"""The benchmark's workloads: the operations of one round and their checks.

Every round of a workload repeats the same operations on the same inputs,
and no input depends on the run's seed.
Each operation is checked against computations made apart from wolffkit
(``oracles``); a check that does not pass counts the operation as failed.

- picard: ``solve_system`` on the Logarithmic criterion-7 tuple.  The
  potential and geometry layers do nearly all the work, on one grid that
  every iteration reuses.
- shoot: ``find_fast_ground_state`` on the three criterion-7 tuples plus the
  exact n = 3, p = q = 5 ground state.  Only ``quasilinear`` and scipy's ODE
  integrator work here.
- inequalities: ``check_inequalities`` on a two-profile battery at
  n = 3, gamma = 1.6 < 2.  Many one-shot Riesz and Wolff evaluations, each on a
  fresh dilated grid, plus ``lp_norm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import wolffkit.potential as potential
import wolffkit.quasilinear as quasilinear
import wolffkit.radial as radial
import wolffkit.solver as solver
import wolffkit.verify as verify
from wolffkit.params import Parameters
from wolffkit.quasilinear import GroundStateConfig, ShootConfig
from wolffkit.solver import SolveConfig

from oracles import (
    Profile,
    critical_bubble_n3,
    fast_decay_rates,
    max_relative_error,
    shell_potential,
    spherical_mean_riesz,
)

CRITERION7 = {
    "FastFast": Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0),
    "Logarithmic": Parameters(5, 1.0, 2.0, 5 / 3, 31 / 9, 0.0, 0.0),
    "Intermediate": Parameters(5, 1.0, 2.0, 1.4, 49 / 11, 0.0, 0.0),
}
# One Picard solve takes 25-35 s here; one tuple per round keeps a run of
# every workload inside the time the whole benchmark may take.  Logarithmic
# is the cheapest (9 iterations) and also drives the log-corrected tail paths.
PICARD_CASE = "Logarithmic"
PICARD_CONFIG = SolveConfig(max_iters=25, rel_tol=5e-3, damping=0.8)
SHOOT_CONFIG = GroundStateConfig(shoot=ShootConfig(r_stop=1e6), final_r_stop=1e6)
BUBBLE = Parameters(3, 1.0, 2.0, 5.0, 5.0, 0.0, 0.0)
# gamma < 2: the Wolff potential is fully nonlinear, unlike the Riesz one.
# One call must fit a run's share of the benchmark's time: with all four
# battery kinds one call took 51-80 s at n = 3 and 61-69 s at n = 5 (the
# Wolff t-panels grow with n/(gamma - 1)), so the battery holds the first two
# profiles (single bumps) at n = 3.  The norm exponent p = 1.5 then satisfies
# 1/p - 1/q = beta*gamma/n with q = 7.5 (p = 2 leaves no admissible q).
INEQUALITY_PARAMS = Parameters(3, 1.0, 1.6, 2.0, 2.75, 0.0, 0.0)
INEQUALITY_NORM_P = 1.5
BATTERY_COUNT = 2
# standard_battery raises on about 5 % of seeds (5, 33, 45, ...: the ball
# indicator's grid span rounds to just below 100), so the battery seed is
# fixed rather than drawn from --seed
BATTERY_SEED = 0

RATE_RTOL = 0.05
LOG_POWER_ATOL = 0.3
# tolerances on each workload's oracle error
PICARD_DEFECT_TOL = 2e-2  # the 16-node discretization floor is ~5e-3
BUBBLE_TOL = 1e-4
RIESZ_TOL = 1e-3  # quadrature error against the profile's own interpolant


@dataclass(frozen=True)
class Operation:
    label: str
    run: Callable[[], object]
    # output -> (problems found, oracle error or None)
    check: Callable[[object], tuple[list, Optional[float]]]


def rate_problems(result, params: Parameters) -> list:
    """Fitted tail rates of a ground state against the fast-decay trichotomy."""
    u_exp, v_exp, v_log = fast_decay_rates(params)
    problems = []
    if not result.converged:
        problems.append("not converged")
    if abs(result.rate_u.exponent / u_exp - 1.0) > RATE_RTOL:
        problems.append(f"u rate {result.rate_u.exponent:.4f}, expected {u_exp:.4f}")
    if abs(result.rate_v.exponent / v_exp - 1.0) > RATE_RTOL:
        problems.append(f"v rate {result.rate_v.exponent:.4f}, expected {v_exp:.4f}")
    if abs(result.rate_v.log_power - v_log) > LOG_POWER_ATOL:
        problems.append(f"v log power {result.rate_v.log_power:.3f}, expected {v_log:.3f}")
    return problems


def picard_defect(params: Parameters, u, v) -> float:
    """Largest relative defect of (u, v) under the gamma = 2 system map.

    W_{1,2} f = I_2 f / (n - 2), with I_2 from Newton's shell theorem.
    """
    if params.beta != 1.0 or params.gamma != 2.0:
        raise ValueError("the shell-theorem map needs beta = 1 and gamma = 2")
    n = params.n
    U, V = Profile.of(u), Profile.of(v)
    u_img = shell_potential(V.powered(params.sigma1, params.q), n, U.r) / (n - 2)
    v_img = shell_potential(U.powered(params.sigma2, params.p), n, V.r) / (n - 2)
    return max(max_relative_error(u_img, U.v), max_relative_error(v_img, V.v))


def check_picard(params: Parameters, result):
    defect = picard_defect(params, result.u, result.v)
    problems = rate_problems(result, params)
    if not defect <= PICARD_DEFECT_TOL:
        problems.append(f"shell-theorem defect {defect:.3e} > {PICARD_DEFECT_TOL:g}")
    return problems, defect


def check_shoot(params: Parameters, result):
    return rate_problems(result, params), None


def check_bubble(result):
    err = max_relative_error(result.u.values, critical_bubble_n3(result.u.grid.points))
    problems = rate_problems(result, BUBBLE)
    if not err <= BUBBLE_TOL:
        problems.append(f"bubble error {err:.3e} > {BUBBLE_TOL:g}")
    return problems, err


def reference_profiles(n: int) -> list:
    """Fixed Riesz test sources: a bump on the battery's grid and the unit ball."""
    grid = radial.RadialGrid.per_decade(1e-2, 1e2, 16)
    r = grid.points
    bump = radial.RadialFunction(grid, (1.0 + r**2) ** (-(n + 4) / 2.0), tail_exponent=n + 4.0)
    ball_grid = radial.RadialGrid.per_decade(1e-2, 1.0, 16)
    ball = radial.RadialFunction(ball_grid, np.ones(ball_grid.count), tail_exponent=math.inf)
    return [bump, ball]


def riesz_oracle_error(params: Parameters, sources) -> float:
    """Largest relative error of riesz_eval at alpha = beta*gamma on the sources."""
    n, alpha = params.n, params.beta * params.gamma
    worst = 0.0
    for f in sources:
        got = potential.riesz_eval(f, n, alpha)
        ref = spherical_mean_riesz(Profile.of(f), n, alpha, got.grid.points)
        worst = max(worst, max_relative_error(got.values, ref))
    return worst


def check_inequality_entries(entries, sources):
    problems = [f"{e.name}: {e.status} (measured {e.measured})" for e in entries if e.status != "pass"]
    if len(entries) < 2:
        problems.append(f"expected two ratio entries, got {len(entries)}")
    err = riesz_oracle_error(INEQUALITY_PARAMS, sources)
    if not err <= RIESZ_TOL:
        problems.append(f"riesz 2F1 error {err:.3e} > {RIESZ_TOL:g}")
    return problems, err


def picard_round() -> list:
    params = CRITERION7[PICARD_CASE]
    return [
        Operation(
            f"solve_system[{PICARD_CASE}]",
            lambda: solver.solve_system(params, PICARD_CONFIG),
            lambda out: check_picard(params, out),
        )
    ]


def shoot_round() -> list:
    ops = [
        Operation(
            f"find_fast_ground_state[{name}]",
            lambda p=params: quasilinear.find_fast_ground_state(p, SHOOT_CONFIG),
            lambda out, p=params: check_shoot(p, out),
        )
        for name, params in CRITERION7.items()
    ]
    ops.append(
        Operation(
            "find_fast_ground_state[bubble n=3]",
            lambda: quasilinear.find_fast_ground_state(BUBBLE, SHOOT_CONFIG),
            check_bubble,
        )
    )
    return ops


def inequalities_round() -> list:
    # the accuracy figure comes from fixed sources, not from the battery
    sources = reference_profiles(INEQUALITY_PARAMS.n)
    return [
        Operation(
            f"check_inequalities[battery_seed={BATTERY_SEED}]",
            lambda: verify.check_inequalities(
                BATTERY_SEED, INEQUALITY_PARAMS, p=INEQUALITY_NORM_P, count=BATTERY_COUNT
            ),
            lambda out: check_inequality_entries(out, sources),
        )
    ]


ROUNDS = {"picard": picard_round, "shoot": shoot_round, "inequalities": inequalities_round}


def warm_up():
    """Fill lazy caches (quadrature rules, scipy's lazily loaded routines) cheaply."""
    grid = radial.RadialGrid.per_decade(1e-2, 1.0, 16)
    ball = radial.RadialFunction(grid, np.ones(grid.count), tail_exponent=math.inf)
    potential.wolff_eval_at(ball, 5, 1.0, 1.6, [0.5])
    potential.riesz_eval_at(ball, 5, 1.6, [0.5])
    radial.lp_norm(ball, 2.0, 0.0, n=5)
    quasilinear.shoot(BUBBLE, 1.0, 1.0, ShootConfig(r_stop=10.0))
    spherical_mean_riesz(Profile.of(ball), 5, 1.6, [0.5])
