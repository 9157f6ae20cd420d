import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc, gamma as gamma_fn

from wolffkit.errors import ParameterError
from conftest import clear_stores
from wolffkit import geometry, verify
from wolffkit.params import Parameters
from wolffkit.potential import riesz_eval
from wolffkit.quasilinear import GroundStateConfig, ShootConfig, find_fast_ground_state
from wolffkit.radial import RadialGrid
from wolffkit.solver import SolveConfig, solve_system
from wolffkit.verify import (
    check_fast_rates,
    check_inequalities,
    check_integrability,
    check_log_limit,
    log_tail_expression,
    run_suite,
    sharp_hls_constant,
    standard_battery,
)

PINNED = Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0)  # critical, FastFast


def _status(entries, name):
    matches = [e for e in entries if e.name == name]
    assert matches, f"no check named {name}"
    return matches[0]


def test_log_tail_expression_against_incomplete_gamma_oracle():
    # closed form: integral is (g/A)^{1+1/g} Gamma(1 + 1/g, (A/g) ln(lam x))
    for (n, beta, gamma, lam, x) in [
        (5, 1.0, 2.0, 1.0, 1e5),
        (5, 1.0, 2.0, 2.0, 1e4),
        (4, 0.8, 1.6, 1.0, 1e6),
    ]:
        g = gamma - 1.0
        A = n - beta * gamma
        a = A / g
        s = 1.0 + 1.0 / g
        tau0 = math.log(lam * x)
        integral = gamma_fn(s) * gammaincc(s, a * tau0) / a**s
        oracle = x**a / math.log(lam * x) ** (1.0 / g) * integral
        got = log_tail_expression(n, beta, gamma, lam, x)
        assert got == pytest.approx(oracle, rel=1e-10)


def test_log_limit_exact_finite_x_value():
    # second-order case closed form: lam^{-3} (1/3 + 1/(9 ln(lam x)))
    got = log_tail_expression(5, 1.0, 2.0, 1.0, 1e5)
    assert got == pytest.approx(1 / 3 + 1 / (9 * math.log(1e5)), rel=1e-12)


def test_check_log_limit_entries():
    entries = check_log_limit(PINNED, lam=1.0)
    strict = _status(entries, "log_limit_at_1e5")
    extrap = _status(entries, "log_limit_extrapolated")
    # the exact finite-x gap is 1/(3 ln x) = 2.9% at 1e5: above the pinned 2%
    assert strict.status == "fail"
    assert strict.details["monotone_approach"] is True
    assert strict.measured == pytest.approx(0.34298, abs=1e-4)
    assert extrap.status == "pass"
    assert extrap.measured == pytest.approx(1 / 3, rel=1e-9)


def test_check_log_limit_lambda_scaling():
    e1 = _status(check_log_limit(PINNED, lam=1.0), "log_limit_at_1e5")
    e2 = _status(check_log_limit(PINNED, lam=2.0), "log_limit_at_1e5")
    assert e2.expected == pytest.approx(e1.expected / 8.0, rel=1e-12)
    assert 0.0 < e2.measured < e1.measured  # positive and decreasing in lambda


def test_fast_rate_checks_skip_when_not_converged():
    res = find_fast_ground_state(PINNED, GroundStateConfig(shoot=ShootConfig(r_stop=1e4)))
    object.__setattr__(res, "converged", False)
    entries = check_fast_rates(res, PINNED)
    assert all(e.status == "skipped" for e in entries)


def test_fast_rate_and_integrability_checks_on_separatrix():
    res = find_fast_ground_state(PINNED, GroundStateConfig(shoot=ShootConfig(r_stop=1e5)))
    entries = check_fast_rates(res, PINNED)
    assert all(e.status == "pass" for e in entries)
    entries = check_integrability(res, PINNED)
    for e in entries:
        assert e.status == "pass", (e.name, e.measured, e.expected)


def test_integrability_check_skips_when_not_converged():
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    picard = solve_system(PINNED, SolveConfig(max_iters=1, grid=grid))
    assert not picard.converged
    (entry,) = check_integrability(picard, PINNED)
    assert entry.status == "skipped" and entry.details["reason"] == "solution not converged"


def test_run_suite_integrability_checks_a_solution_or_says_why_not():
    shot = find_fast_ground_state(PINNED, GroundStateConfig(shoot=ShootConfig(r_stop=1e5)))
    report = run_suite(PINNED, suite="integrability", solve_result=shot)
    assert report.solver == "shooting"
    assert [e.name for e in report.checks] == [e.name for e in check_integrability(shot, PINNED)]
    # subcritical and scalar: no solver gives a solution
    report = run_suite(Parameters(5, 1.0, 2.0, 2.0, 2.0, 0.0, 0.0), suite="integrability")
    (entry,) = report.checks
    assert entry.name == "integrability" and entry.status == "skipped" and report.solver is None
    assert "NoBracketError" in entry.details["reason"]


def test_inequalities_reject_violated_exponent_relation():
    with pytest.raises(ParameterError, match="violate"):
        check_inequalities(0, PINNED, p=2.0, q=2.0 * 1.1)


def test_inequalities_reject_divergent_comparison_norms():
    # p (n - alpha)/(gamma - 1) = 1.5 * 3 <= 5: the Riesz image's L^{p/(gamma-1)}
    # norm and the Wolff image's L^p norm both diverge
    with pytest.raises(ParameterError, match="p = 1.5"):
        check_inequalities(0, Parameters(5, 1.0, 2.0, 2.0, 2.75, -0.5, 0.0), p=1.5, count=4)


def test_inequality_ratio_boundedness_small_battery(monkeypatch):
    calls = []

    def counting_riesz(*args, **kwargs):
        calls.append(args[0])
        return riesz_eval(*args, **kwargs)

    monkeypatch.setattr(verify, "riesz_eval", counting_riesz)
    entries = check_inequalities(0, PINNED, count=4)
    # sigma1 = 0: the weighted source is the profile itself, evaluated once,
    # and the sharp-constant extremal adds one
    assert len(calls) == 4 + 1
    # gamma = 2 adds no entry comparing the two potentials with each other
    names = [e.name for e in entries]
    assert names == ["weighted_hls_ratio", "wolff_riesz_comparison", "sharp_hls_constant"]
    hls, cmp_, sharp = entries
    assert hls.status == "pass"
    assert hls.measured < 50.0  # far inside the 1e3 window
    assert cmp_.status == "pass"
    assert sharp.status == "pass"
    assert abs(sharp.measured / sharp.expected - 1.0) < 2.5e-3  # 2.2e-3 measured


def test_inequality_family_builds_each_centre_plan_once(cap_calls):
    # the benchmark's inequalities operation: two bumps and the sharp-constant
    # extremal on one 65-point grid, with a Riesz and a Wolff image per bump
    # and a Riesz image of the extremal, all on the same relative t nodes, so
    # every centre of every map reads one reference plan, built once
    built = geometry.plans_built()
    check_inequalities(0, Parameters(3, 1.0, 1.6, 2.0, 2.75, 0.0, 0.0), p=1.5, count=2)
    assert len(cap_calls) == 1 and geometry.plans_built() == built + 1


def test_mixed_grid_battery_builds_each_grid_centre_plan_once(cap_calls, monkeypatch):
    # count = 8 puts two ball indicators, each on its own grid, between the
    # bumps on the battery grid: the ball indicators (jumps) take nodes built
    # per call and keep no plan, and the battery grid's reference plan is
    # kept across them, so the bumps after a ball indicator and the extremal
    # build none
    params = Parameters(3, 1.0, 1.6, 2.0, 2.75, 0.0, 0.0)
    built = geometry.plans_built()
    entries = check_inequalities(0, params, p=1.5, count=8)
    assert geometry.plans_built() == built + 1
    # stores cleared before each profile build the plan cold for each bump
    # and for the extremal, which follows a ball indicator
    battery = verify.standard_battery

    def clearing(*args, **kwargs):
        for f in battery(*args, **kwargs):
            clear_stores()
            yield f

    monkeypatch.setattr(verify, "standard_battery", clearing)
    built = geometry.plans_built()
    cold = check_inequalities(0, params, p=1.5, count=8)
    assert geometry.plans_built() == built + 7  # six bumps and the extremal
    assert cold == entries


@pytest.mark.parametrize("n, alpha", [(3, 1.6), (5, 2.0), (3, 1.0)])
def test_sharp_hls_constant_is_the_extremal_ratio(n, alpha):
    # oracle: the extremal (1 + r^2)^{-(n+alpha)/2} has the closed-form image
    # pi^{n/2} Gamma(alpha/2)/Gamma((n+alpha)/2) (1 + r^2)^{-(n-alpha)/2}, and
    # its HLS ratio, both norms by adaptive quadrature, is the sharp constant
    p, q = 2 * n / (n + alpha), 2 * n / (n - alpha)
    k = math.pi ** (n / 2) * gamma_fn(alpha / 2) / gamma_fn((n + alpha) / 2)

    def norm(power, exponent):
        integrand = lambda r: r ** (n - 1) * (1 + r * r) ** (-power * exponent / 2)
        integral = quad(integrand, 0, math.inf, epsabs=0, epsrel=1e-13)[0]
        return (2 * math.pi ** (n / 2) / gamma_fn(n / 2) * integral) ** (1 / exponent)

    ratio = k * norm(n - alpha, q) / norm(n + alpha, p)
    assert sharp_hls_constant(n, alpha) == pytest.approx(ratio, rel=1e-10)


def test_sharp_hls_entry_fails_on_a_potential_one_percent_high(monkeypatch):
    def high_riesz(*args, **kwargs):
        return riesz_eval(*args, **kwargs).scaled(1.01)

    monkeypatch.setattr(verify, "riesz_eval", high_riesz)
    entries = {e.name: e for e in check_inequalities(0, PINNED, count=1)}
    assert entries["sharp_hls_constant"].status == "fail"
    # a common factor leaves the boundedness entries as they were
    assert entries["weighted_hls_ratio"].status == "pass"


def test_sharp_hls_entry_only_without_weight():
    params = Parameters(5, 1.0, 2.0, 2.0, 2.75, -0.5, 0.0)
    names = [e.name for e in check_inequalities(0, params, p=2.5, count=1)]
    assert names == ["weighted_hls_ratio", "wolff_riesz_comparison"]


def test_standard_battery_is_deterministic():
    a = standard_battery(5, seed=3, count=6)
    b = standard_battery(5, seed=3, count=6)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.values, fb.values)
        assert np.array_equal(fa.grid.points, fb.grid.points)


@pytest.mark.parametrize("n", [3, 5])
def test_standard_battery_builds_for_every_seed(n):
    # the ball-indicator grids span at least the required two decades
    for seed in range(300):
        battery = standard_battery(n, seed=seed)
        assert len(battery) == 20


def test_run_suite_loglimit_structure_and_determinism():
    r1 = run_suite(PINNED, suite="loglimit", seed=1)
    r2 = run_suite(PINNED, suite="loglimit", seed=1)
    d1, d2 = r1.to_dict(), r2.to_dict()
    assert d1 == d2
    assert set(d1) == {"params", "solver", "checks"}
    assert d1["solver"] is None  # the log limit reads no solution
    for entry in d1["checks"]:
        assert {"name", "paper_ref", "status", "measured", "expected", "tolerance"} <= set(entry)
    # the log limits at 1e5 fail their 2 % tolerance, so the report fails;
    # with only its passing entries and a skipped one it passes
    assert "fail" in [e.status for e in r1.checks] and not r1.passed
    rest = [e for e in r1.checks if e.status != "fail"] + [verify._skipped("x", "ref", "why")]
    assert {e.status for e in rest} == {"pass", "skipped"} and replace(r1, checks=rest).passed


def test_run_suite_names_why_no_solver_ran():
    # subcritical and scalar: the shot hits zero and Picard refuses the tuple
    report = run_suite(Parameters(5, 1.0, 2.0, 2.0, 2.0, 0.0, 0.0), suite="rates")
    (entry,) = report.checks
    assert entry.status == "skipped" and report.solver is None
    reason = entry.details["reason"]
    assert "NoBracketError" in reason and "scalar trajectory hit zero" in reason
    assert "ParameterError" in reason and "subcritical parameters refused" in reason


def test_run_suite_names_the_solver():
    shot = find_fast_ground_state(PINNED, GroundStateConfig(shoot=ShootConfig(r_stop=1e4)))
    report = run_suite(PINNED, suite="rates", solve_result=shot)
    assert report.solver == "shooting" and report.to_dict()["solver"] == "shooting"
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    picard = solve_system(PINNED, SolveConfig(max_iters=1, grid=grid))
    assert run_suite(PINNED, suite="rates", solve_result=picard).solver == "picard"
    assert picard.to_report_dict()["solver"] == "picard"


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ParameterError, match="unknown suite"):
        run_suite(PINNED, suite="everything")


VERIFY_RAISE_SITES = [
    # 1/p - (alpha + sigma)/n = 1/3 - 2/5 < 0
    ("q none", lambda: check_inequalities(0, PINNED, p=3.0, count=1), "leaves no admissible q"),
    # 1/q = 1 - 2/5 gives q = 5/3 = n/(n - alpha)
    ("q floor", lambda: check_inequalities(0, PINNED, p=1.0, count=1), "must exceed n/(n-alpha)"),
    ("lam", lambda: check_log_limit(PINNED, lam=0.0), "lam must be positive"),
    ("log tail x", lambda: log_tail_expression(5, 1.0, 2.0, 1.0, 1.0), "requires beta*gamma < n, lam > 0, x > 1"),
]


@pytest.mark.parametrize(
    "site, call, fragment", VERIFY_RAISE_SITES, ids=[s[0] for s in VERIFY_RAISE_SITES]
)
def test_verify_raise_sites(site, call, fragment):
    with pytest.raises(ParameterError) as err:
        call()
    assert fragment in str(err.value)
