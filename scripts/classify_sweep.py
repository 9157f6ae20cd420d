#!/usr/bin/env python3
"""Sweep the nonlinearity power p at criticality and tabulate the predicted regimes.

For each p the partner power q is raised to the critical value, mirroring how
ground-state parameter sets are pinned; the table shows where the second
component's tail switches from the fast rate through the log-corrected
borderline to the intermediate rate.

Usage: python scripts/classify_sweep.py [--n 5] [--beta 1] [--gamma 2] [--points 13]
"""

import argparse
import json

from wolffkit.params import Parameters, classify_regime, exponents


def critical_q(n, beta, gamma, p):
    g = gamma - 1.0
    fast = (n - beta * gamma) / g
    rhs = fast - n / (g + p)
    if rhs <= 0:
        return None
    return n / rhs - g


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--gamma", type=float, default=2.0)
    ap.add_argument("--p-min", type=float, default=1.2)
    ap.add_argument("--p-max", type=float, default=2.4)
    ap.add_argument("--points", type=int, default=13)
    ap.add_argument("--json", action="store_true", help="emit machine-readable rows")
    args = ap.parse_args()

    ps = {args.p_min + (args.p_max - args.p_min) * k / (args.points - 1) for k in range(args.points)}
    # the log-corrected borderline p * fast rate = n is a single point that a
    # uniform step rarely hits, so it is sampled as well
    p_log = args.n * (args.gamma - 1.0) / (args.n - args.beta * args.gamma)
    if args.p_min < p_log < args.p_max and all(abs(p - p_log) > 1e-9 for p in ps):
        ps.add(p_log)
    rows = []
    for p in sorted(ps):
        q = critical_q(args.n, args.beta, args.gamma, p)
        if q is None or q <= 1.0 or q < p - 1e-9:
            continue
        params = Parameters(args.n, args.beta, args.gamma, p, q, 0.0, 0.0)
        rep = classify_regime(params)
        e = exponents(params)
        rows.append(
            {
                "p": round(p, 6),
                "q": round(q, 6),
                "regime": rep.regime.value,
                "u_exponent": round(rep.predicted_u_exponent, 6),
                "v_exponent": round(rep.predicted_v_exponent, 6),
                "v_log_power": rep.v_log_power,
                "q0": round(e.q0, 6),
                "p0": round(e.p0, 6),
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2))
        return
    header = f"{'p':>8} {'q':>8}  {'regime':<13} {'v_exp':>7} {'v_log':>6} {'q0':>7} {'p0':>7}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['p']:>8.4f} {r['q']:>8.4f}  {r['regime']:<13} "
            f"{r['v_exponent']:>7.4f} {r['v_log_power']:>6.2f} {r['q0']:>7.4f} {r['p0']:>7.4f}"
        )


if __name__ == "__main__":
    main()
