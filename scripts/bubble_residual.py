#!/usr/bin/env python3
"""Fixed-point residual of the exact Hardy-Sobolev bubble across grid resolutions.

The profile U = lam (1 + r^{2+sigma})^{-(n-2)/(2+sigma)} of
solver.exact_bubble solves U = W_{1,2}(r^sigma U^p) exactly, so the
residual max |W(r^sigma U^p) / U - 1| over [r_min, r_max / 10] measures the
discretization error floor: expect roughly second-order decay in the
nodes-per-decade count (interpolation-dominated).  At sigma = 0 it is the
critical bubble of the scalar system.  Next to each residual it prints what
one warm map of the bubble's source costs once the grid's reference plan is
kept: its wall and CPU milliseconds (the medians of 5 maps, each of another
multiple of the source, so no kept masses answer) and the source samples it
made (geometry.nodes_evaluated).

Usage: python scripts/bubble_residual.py [--n 5] [--sigma 0] [--resolutions 16 32 64]
"""

import argparse
import statistics
import time

import numpy as np

from wolffkit.geometry import nodes_evaluated
from wolffkit.potential import weighted_source, wolff_eval
from wolffkit.radial import RadialGrid
from wolffkit.solver import exact_bubble


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=5, choices=(3, 4, 5, 6))
    ap.add_argument("--sigma", type=float, default=0.0)
    ap.add_argument("--resolutions", type=int, nargs="+", default=[16, 32, 64])
    ap.add_argument("--r-min", type=float, default=1e-2)
    ap.add_argument("--r-max", type=float, default=1e3)
    args = ap.parse_args()

    n, sigma = args.n, args.sigma
    print(f"n={n}, sigma={sigma:g}, exponent p={(n + 2 + 2 * sigma) / (n - 2):.4f}")
    for npd in args.resolutions:
        grid = RadialGrid.per_decade(args.r_min, args.r_max, npd)
        u, p = exact_bubble(n, sigma, grid)
        t0 = time.perf_counter()
        source = weighted_source(sigma, p, u)
        image = wolff_eval(source, n, 1.0, 2.0)
        window = grid.points <= grid.r_max / 10
        residual = np.max(np.abs(image.values[window] / u.values[window] - 1.0))
        walls, cpus = [], []
        for k in range(2, 7):
            nodes = nodes_evaluated()
            wall, cpu = time.perf_counter(), time.process_time()
            wolff_eval(source.scaled(k), n, 1.0, 2.0)
            walls.append(time.perf_counter() - wall)
            cpus.append(time.process_time() - cpu)
        print(
            f"  {npd:>3} nodes/decade ({grid.count:>4} points): residual {residual:.3e}   "
            f"warm map {1e3 * statistics.median(walls):.1f} ms wall, {1e3 * statistics.median(cpus):.1f} ms CPU, "
            f"{nodes_evaluated() - nodes} samples   [{time.perf_counter() - t0:.1f}s]"
        )


if __name__ == "__main__":
    main()
