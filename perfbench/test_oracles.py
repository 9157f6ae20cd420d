"""Tests of the benchmark's oracles, checks and tracer.

    python3 -m pytest perfbench
"""

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import (  # noqa: E402
    Profile,
    critical_bubble_n3,
    fast_decay_rates,
    max_relative_error,
    shell_potential,
    spherical_mean_riesz,
)
from scipy.special import hyp2f1  # noqa: E402
from spans import Tracer  # noqa: E402
from wolffkit.params import Parameters, classify_regime  # noqa: E402
from wolffkit.radial import RadialFunction, RadialGrid, RateFit  # noqa: E402
from wolffkit.solver import bubble_profile  # noqa: E402
from wolffkit.verify import CheckEntry  # noqa: E402
import wolffkit.potential as potential  # noqa: E402


def _bump(n=5):
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    r = grid.points
    return Profile(r, (1.0 + r**2) ** (-(n + 4) / 2.0), 0.0, float(n + 4))


@pytest.mark.parametrize("n", [3, 5])
def test_shell_theorem_is_exact_on_the_ball_indicator(n):
    R = 2.0
    r = np.geomspace(R / 100.0, R, 33)
    ball = Profile(r, np.ones(r.size), 0.0, math.inf)
    s = oracles.sphere_area(n)
    closed = s * np.where(r < R, r**2 / n + (R**2 - r**2) / 2.0, r ** (2 - n) * R**n / n)
    assert max_relative_error(shell_potential(ball, n, r), closed) < 1e-13


@pytest.mark.parametrize("n,alpha", [(5, 1.6), (5, 1.2), (3, 1.5), (4, 2.5)])
def test_connection_formula_matches_direct_2f1(n, alpha):
    a = 0.5 * (n - alpha)
    z = np.linspace(0.0, 0.999, 500)
    direct = hyp2f1(a, a - n / 2 + 1, n / 2, z)
    assert max_relative_error(oracles._hyp2f1(a, a - n / 2 + 1, n / 2, z), direct) < 1e-12


def test_spherical_mean_reduces_to_the_shell_theorem_at_alpha_2():
    bump = _bump()
    rho = bump.r[::4]
    assert max_relative_error(spherical_mean_riesz(bump, 5, 2.0, rho), shell_potential(bump, 5, rho)) < 1e-12


def test_spherical_kernel_matches_the_n3_closed_form():
    # in R^3 the mean of |x - y|^-lam over a sphere is elementary
    lam, rho = 1.5, 1.3
    r = np.linspace(0.01, 5.0, 41)
    closed = ((rho + r) ** (2 - lam) - np.abs(rho - r) ** (2 - lam)) / (2 * rho * r * (2 - lam))
    assert max_relative_error(oracles._spherical_kernel(3, 3.0 - lam, rho, r), closed) < 1e-12


def test_critical_bubble_solves_the_radial_equation():
    # u'' + (2/r) u' + u^5 = 0 by central differences
    r = np.geomspace(0.05, 50.0, 30)
    h = 1e-4 * r
    u0, up, um = critical_bubble_n3(r), critical_bubble_n3(r + h), critical_bubble_n3(r - h)
    lap = (up - 2 * u0 + um) / h**2 + (up - um) / (h * r)
    assert np.max(np.abs(lap + u0**5) / u0**5) < 1e-5
    assert critical_bubble_n3(0.0) == 1.0


@pytest.mark.parametrize("params", list(workloads.CRITERION7.values()) + [workloads.BUBBLE])
def test_exponent_algebra_agrees_with_classify_regime(params):
    report = classify_regime(params)
    u_exp, v_exp, v_log = fast_decay_rates(params)
    assert u_exp == pytest.approx(report.predicted_u_exponent, rel=1e-12)
    assert v_exp == pytest.approx(report.predicted_v_exponent, rel=1e-12)
    assert v_log == pytest.approx(report.v_log_power, abs=1e-12)


def _result(u, v, u_rate, v_rate, v_log=0.0, converged=True):
    fit = lambda e, L: RateFit(exponent=e, log_power=L, r_squared=1.0, window=(10.0, 100.0))  # noqa: E731
    return types.SimpleNamespace(u=u, v=v, converged=converged, rate_u=fit(u_rate, 0.0), rate_v=fit(v_rate, v_log))


CRITICAL5 = Parameters(5, 1.0, 2.0, 7 / 3, 7 / 3, 0.0, 0.0)  # the n = 5 bubble is its exact fixed point


def test_picard_check_passes_the_bubble_and_fails_perturbations():
    u = bubble_profile(5, RadialGrid.per_decade(1e-2, 1e3, 16))
    problems, defect = workloads.check_picard(CRITICAL5, _result(u, u, 3.0, 3.0))
    assert problems == [] and defect < 1e-2
    scaled = u.scaled(1.05)
    assert workloads.check_picard(CRITICAL5, _result(scaled, scaled, 3.0, 3.0))[0]
    assert workloads.check_picard(CRITICAL5, _result(u, u, 3.3, 3.0))[0]
    assert workloads.check_picard(CRITICAL5, _result(u, u, 3.0, 3.0, v_log=0.5))[0]
    assert workloads.check_picard(CRITICAL5, _result(u, u, 3.0, 3.0, converged=False))[0]


def test_shoot_checks_fail_perturbations():
    grid = RadialGrid.per_decade(1e-4, 1e6, 24)
    exact = RadialFunction(grid, critical_bubble_n3(grid.points), 0.0, 1.0)
    problems, err = workloads.check_bubble(_result(exact, exact, 1.0, 1.0))
    assert problems == [] and err < 1e-15
    assert workloads.check_bubble(_result(exact.scaled(1.05), exact, 1.0, 1.0))[0]
    log_tuple = workloads.CRITERION7["Logarithmic"]
    assert workloads.check_shoot(log_tuple, _result(exact, exact, 3.0, 3.0, v_log=1.0))[0] == []
    assert workloads.check_shoot(log_tuple, _result(exact, exact, 3.0, 2.7, v_log=1.0))[0]
    assert workloads.check_shoot(log_tuple, _result(exact, exact, 3.0, 3.0, v_log=0.0))[0]


def _entry(status):
    return CheckEntry(name="weighted_hls_ratio", paper_ref="", status=status, measured=1.0, expected=None, tolerance=1e3)


def test_inequality_check_fails_a_failed_entry_and_a_perturbed_potential(monkeypatch):
    ball = workloads.reference_profiles(3)[1:]  # the ball indicator: the cheaper source
    passing = [_entry("pass"), _entry("pass")]
    problems, err = workloads.check_inequality_entries(passing, ball)
    assert problems == [] and err < workloads.RIESZ_TOL
    assert workloads.check_inequality_entries([_entry("pass"), _entry("fail")], ball)[0]
    exact = potential.riesz_eval
    monkeypatch.setattr(potential, "riesz_eval", lambda *a, **k: exact(*a, **k).scaled(1.05))
    assert workloads.check_inequality_entries(passing, ball)[0]


def test_tracer_counts_layer_calls_and_repeats(monkeypatch):
    # one thread: with a pool, span times sum over threads and may exceed the call's wall time
    monkeypatch.setenv("WOLFFKIT_THREADS", "1")
    grid = RadialGrid.per_decade(1e-2, 1.0, 16)
    ball = RadialFunction(grid, np.ones(grid.count), tail_exponent=math.inf)
    original = potential.wolff_eval
    tracer = Tracer()
    tracer.install()
    try:
        tracer.recording = True
        potential.wolff_eval(ball, 5, 1.0, 1.6)
        potential.wolff_eval(ball, 5, 1.0, 1.6)
        tracer.recording = False
        potential.wolff_eval(ball, 5, 1.0, 1.6)  # not recorded
    finally:
        tracer.uninstall()
    assert potential.wolff_eval is original
    m = {k: v["value"] for k, v in tracer.layer_metrics(2).items()}
    assert m["potential.wolff_eval.calls"] == 1.0
    assert m["potential.wolff_eval.centres"] == grid.count
    assert m["geometry.ball_mass_batch.calls"] == grid.count
    assert m["potential.distinct_ratio"] == 0.5
    assert 0.0 < m["geometry.ball_mass_batch.self_s"] < m["potential.wolff_eval.s"]
