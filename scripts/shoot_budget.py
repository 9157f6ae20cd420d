#!/usr/bin/env python3
"""The shooter's work and accuracy on the criterion-7 tuples, the exact n = 3
bubble and the Hardy-weight exact family, as one JSON document.

Per separatrix search: the classified shots by phase, the accepted DOP853
steps of all of them and their right-hand-side calls (`evaluations`), the
integrations (`iterations`: one per classified shot, as final_r_stop is
r_stop here), b*, the reach, the fitted rates, the v log power, both
flux-identity residuals and the wall time.  The bubble (the scalar critical
case, one shot) gives its steps and its largest relative error against
(1 + r^2/3)^{-1/2}; each Hardy-family tuple its largest relative error
against the exact profile, at r_stop = 1e4 as in tests/test_quasilinear.py.

Usage: python scripts/shoot_budget.py [--r-stop 1e6] [--tuples FastFast ...]
"""

import argparse
import json
import time
from collections import Counter

import numpy as np

from wolffkit.params import Parameters
from wolffkit.quasilinear import GroundStateConfig, ShootConfig, find_fast_ground_state, shoot

CRITERION7 = {
    "FastFast": Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0),
    "Logarithmic": Parameters(5, 1.0, 2.0, 5 / 3, 31 / 9, 0.0, 0.0),
    "Intermediate": Parameters(5, 1.0, 2.0, 1.4, 49 / 11, 0.0, 0.0),
}
BUBBLE = Parameters(3, 1.0, 2.0, 5.0, 5.0, 0.0, 0.0)
HARDY = [(3, 2.0, -0.5), (5, 2.0, -0.5), (5, 2.0, -1.0), (3, 1.6, -0.5), (5, 1.8, -0.8)]


def search(params: Parameters, r_stop: float) -> dict:
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=r_stop), final_r_stop=r_stop)
    t0 = time.perf_counter()
    res = find_fast_ground_state(params, cfg)
    seconds = time.perf_counter() - t0
    shots = res.trace[1:]
    return {
        "shots": dict(Counter(e["phase"] for e in shots)),
        "steps": sum(e["steps"] for e in shots),
        "evaluations": sum(e["evaluations"] for e in shots),
        "integrations": res.iterations,
        "b_star": res.trace[0]["b_star"],
        "r_reached": res.trace[0]["r_reached"],
        "rate_u": res.rate_u.exponent,
        "rate_v": res.rate_v.exponent,
        "v_log_power": res.rate_v.log_power,
        "residual_u": res.residual_u,
        "residual_v": res.residual_v,
        "seconds": seconds,
    }


def bubble(r_stop: float) -> dict:
    traj = shoot(BUBBLE, 1.0, 1.0, ShootConfig(r_stop=r_stop))
    exact = (1.0 + traj.r**2 / 3.0) ** -0.5
    return {"steps": traj.steps, "error": float(np.max(np.abs(traj.u / exact - 1.0)))}


def hardy_error(n: int, gamma: float, sigma: float) -> float:
    p_star = gamma * (n + sigma) / (n - gamma) - 1.0
    k = (n + sigma) * ((n - gamma) / (gamma - 1.0)) ** (gamma - 1.0)
    u0 = k ** (1.0 / (p_star - gamma + 1.0))
    params = Parameters(n, 1.0, gamma, p_star, p_star, sigma, sigma)
    traj = shoot(params, u0, u0, ShootConfig(r_stop=1e4))
    exact = u0 * (1.0 + traj.r ** ((gamma + sigma) / (gamma - 1.0))) ** (-(n - gamma) / (gamma + sigma))
    keep = exact > 1e-8 * u0
    return float(max(np.max(np.abs(traj.u[keep] / exact[keep] - 1.0)), np.max(np.abs(traj.v[keep] / exact[keep] - 1.0))))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--r-stop", type=float, default=1e6)
    ap.add_argument("--tuples", nargs="+", choices=sorted(CRITERION7), default=list(CRITERION7))
    args = ap.parse_args()
    out = {
        "r_stop": args.r_stop,
        "searches": {name: search(CRITERION7[name], args.r_stop) for name in args.tuples},
        "bubble": bubble(args.r_stop),
        "hardy": [
            {"n": n, "gamma": gamma, "sigma": sigma, "error": hardy_error(n, gamma, sigma)}
            for n, gamma, sigma in HARDY
        ],
    }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
