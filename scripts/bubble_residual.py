#!/usr/bin/env python3
"""Fixed-point residual of the exact critical bubble across grid resolutions.

The normalized profile lam*(1+r^2)^{-(n-2)/2} solves the scalar critical
system exactly, so its residual under one application of the system map
measures the discretization error floor: expect roughly second-order decay
in the nodes-per-decade count (interpolation-dominated).  Next to each
residual it prints what one warm map of the bubble's source costs once the
grid's reference plan is kept: its milliseconds (the median of 5 maps, each
of another multiple of the source, so no kept masses answer) and the source
evaluations it made (geometry.nodes_evaluated).

Usage: python scripts/bubble_residual.py [--n 5] [--resolutions 12 16 24]
"""

import argparse
import statistics
import time

from wolffkit.geometry import nodes_evaluated
from wolffkit.params import Parameters
from wolffkit.potential import weighted_source, wolff_eval
from wolffkit.radial import RadialGrid
from wolffkit.solver import bubble_profile, system_residual


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=5, choices=(3, 4, 5, 6))
    ap.add_argument("--resolutions", type=int, nargs="+", default=[12, 16, 24])
    ap.add_argument("--r-min", type=float, default=1e-2)
    ap.add_argument("--r-max", type=float, default=1e3)
    args = ap.parse_args()

    n = args.n
    p = (n + 2.0) / (n - 2.0)
    params = Parameters(n, 1.0, 2.0, p, p, 0.0, 0.0)
    print(f"n={n}, critical exponent p=q={p:.4f}")
    for npd in args.resolutions:
        grid = RadialGrid.per_decade(args.r_min, args.r_max, npd)
        u = bubble_profile(n, grid)
        t0 = time.perf_counter()
        res_u, _ = system_residual(params, u, u, window=(grid.r_min, grid.r_max / 10))
        source = weighted_source(0.0, p, u)
        times = []
        for k in range(2, 7):
            nodes = nodes_evaluated()
            start = time.perf_counter()
            wolff_eval(source.scaled(k), n, 1.0, 2.0)
            times.append(time.perf_counter() - start)
        print(
            f"  {npd:>3} nodes/decade ({grid.count:>4} points): "
            f"residual {res_u:.3e}   warm map {1e3 * statistics.median(times):.1f} ms, "
            f"{nodes_evaluated() - nodes} evaluations   [{time.perf_counter() - t0:.1f}s]"
        )


if __name__ == "__main__":
    main()
