import math

import numpy as np
import pytest
from scipy.special import gammaincc, gamma as gamma_fn

from wolffkit.errors import ParameterError
from wolffkit import verify
from wolffkit.params import Parameters
from wolffkit.potential import riesz_eval
from wolffkit.quasilinear import GroundStateConfig, ShootConfig, find_fast_ground_state
from wolffkit.verify import (
    SCALE_FAMILY,
    check_equivalence_theorem,
    check_fast_rates,
    check_inequalities,
    check_integrability,
    check_log_limit,
    log_tail_expression,
    run_suite,
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


def test_equivalence_checks_on_synthetic_tails():
    entries = check_equivalence_theorem(PINNED)
    assert _status(entries, "fast_tail_is_integrable").status == "pass"
    assert _status(entries, "slow_tail_not_integrable").status == "pass"
    log_params = Parameters(5, 1.0, 2.0, 5 / 3, 31 / 9, 0.0, 0.0)
    entries = check_equivalence_theorem(log_params)
    assert _status(entries, "log_tail_is_integrable").status == "pass"
    assert _status(entries, "slow_tail_not_integrable").status == "pass"


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


def test_inequalities_reject_violated_exponent_relation():
    with pytest.raises(ParameterError, match="violate"):
        check_inequalities(0, PINNED, p=2.0, q=2.0 * 1.1)


def test_inequality_ratio_boundedness_small_battery(monkeypatch):
    calls = []

    def counting_riesz(*args, **kwargs):
        calls.append(args[0])
        return riesz_eval(*args, **kwargs)

    monkeypatch.setattr(verify, "riesz_eval", counting_riesz)
    entries = check_inequalities(0, PINNED, count=4)
    # sigma1 = 0: the weighted source is the profile itself, evaluated once
    assert len(calls) == 4 * len(SCALE_FAMILY)
    # gamma = 2 adds no entry comparing the two potentials with each other
    assert [e.name for e in entries] == ["weighted_hls_ratio", "wolff_riesz_comparison"]
    hls, cmp_ = entries
    assert hls.status == "pass"
    assert hls.measured < 50.0  # far inside the 1e3 window
    assert cmp_.status == "pass"


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
    assert set(d1) == {"params", "checks"}
    for entry in d1["checks"]:
        assert {"name", "paper_ref", "status", "measured", "expected", "tolerance"} <= set(entry)


def test_run_suite_names_why_no_solver_ran():
    # subcritical and scalar: the shot hits zero and Picard refuses the tuple
    report = run_suite(Parameters(5, 1.0, 2.0, 2.0, 2.0, 0.0, 0.0), suite="rates")
    (entry,) = report.checks
    assert entry.status == "skipped"
    reason = entry.details["reason"]
    assert "NoBracketError" in reason and "scalar trajectory hit zero" in reason
    assert "ParameterError" in reason and "subcritical parameters refused" in reason


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ParameterError, match="unknown suite"):
        run_suite(PINNED, suite="everything")
