import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wolffkit.errors import InterchangeWarning, ParameterError
from wolffkit.potential import wolff_eval
from wolffkit.radial import RadialFunction, RadialGrid
from wolffkit.params import (
    PARAM_KEYS,
    Parameters,
    Regime,
    Subcriticality,
    classify_regime,
    exponents,
    integrability_interval,
    subcriticality,
    validate,
)


def test_validate_accepts_admissible_tuple():
    p = Parameters(5, 1.0, 2.0, 7 / 3, 7 / 3, 0.0, 0.0)
    assert validate(p) is p
    # any integral n, numpy's too
    assert Parameters(np.int64(5), 1.0, 2.0, 7 / 3, 7 / 3).n == 5


# argument tuples, not Parameters: a Parameters validates on construction
VIOLATIONS = [
    ((3, 1.0, 3.0, 2.0, 2.0), "gamma out of (1,2]"),
    ((4, 2.0, 2.0, 2.0, 2.0), "beta*gamma < n violated"),
    ((2, 1.0, 2.0, 2.0, 2.0), "n >= 3"),
    ((5, -1.0, 2.0, 2.0, 2.0), "beta > 0"),
    ((5, 1.0, 2.0, 0.5, 2.0), "p > 1"),
    ((5, 1.0, 2.0, 2.0, 1.0), "q > 1"),
    ((5, 1.0, 2.0, 2.0, 2.0, -3.0, 0.0), "sigma1 out of"),
    ((5, 1.0, 2.0, 2.0, 2.0, 0.0, 0.5), "sigma2 out of"),
    ((5, 1.0, 2.5, 2.0, 2.0), "gamma out of (1,2]"),
    ((3, 1.5, 2.0, 2.0, 2.0), "beta*gamma < n violated"),
    ((5, 0.0, 2.0, 2.0, 2.0), "beta > 0"),
]
# the operator's own constraints, which validate and the potential
# evaluators share through validate_operator
OPERATOR_VIOLATIONS = [
    (params, fragment)
    for params, fragment in VIOLATIONS
    if fragment.startswith(("gamma", "beta", "n "))
]


@pytest.mark.parametrize("params, fragment", VIOLATIONS)
def test_validate_names_violated_constraint(params, fragment):
    # construction runs validate
    with pytest.raises(ParameterError) as err:
        Parameters(*params)
    assert fragment in str(err.value)


@pytest.mark.parametrize("params, fragment", VIOLATIONS)
def test_every_route_to_a_tuple_validates(params, fragment):
    # from_dict and dataclasses.replace build through __post_init__ too
    data = dict(zip(PARAM_KEYS, params))
    data.setdefault("sigma1", 0.0)
    data.setdefault("sigma2", 0.0)
    with pytest.raises(ParameterError, match=re.escape(fragment)):
        Parameters.from_dict(data)
    valid = Parameters(5, 1.0, 2.0, 7 / 3, 7 / 3, 0.0, 0.0)
    with pytest.raises(ParameterError, match=re.escape(fragment)):
        dataclasses.replace(valid, **data)


@pytest.mark.parametrize("params, fragment", OPERATOR_VIOLATIONS)
def test_wolff_eval_names_the_same_operator_constraint(params, fragment):
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    f = RadialFunction(grid, (1.0 + grid.points**2) ** -4.5, tail_exponent=9.0)
    n, beta, gamma = params[:3]
    with pytest.raises(ParameterError) as err:
        wolff_eval(f, n, beta, gamma)
    assert fragment in str(err.value)


def test_exponents_symmetric_critical_case():
    e = exponents(Parameters(5, 1.0, 2.0, 7 / 3, 7 / 3, 0.0, 0.0))
    assert e.q0 == pytest.approx(1.5, abs=1e-14)
    assert e.p0 == pytest.approx(1.5, abs=1e-14)
    assert e.r0 == pytest.approx(10 / 3, abs=1e-13)


def test_exponents_direct_substitution():
    e = exponents(Parameters(6, 1.0, 2.0, 2.0, 2.0, 0.0, 0.0))
    assert e.q0 == pytest.approx(2.0, abs=1e-14)
    assert e.p0 == pytest.approx(2.0, abs=1e-14)
    assert e.r0 == pytest.approx(3.0, abs=1e-14)
    assert e.s0 == pytest.approx(3.0, abs=1e-14)


def test_exponents_reduce_to_scalar_slow_rate():
    # second-order scalar case: the slow rate is (2 + sigma)/(p - 1)
    e = exponents(Parameters(3, 1.0, 2.0, 5.0, 5.0, -0.5, -0.5))
    assert e.q0 == pytest.approx((2.0 - 0.5) / (5.0 - 1.0), rel=1e-12)
    assert e.q0 == pytest.approx(0.375, rel=1e-12)
    assert e.p0 == pytest.approx(e.q0, rel=1e-12)


def test_exponents_against_exact_rational_arithmetic():
    # independent oracle: the defining quotient evaluated in exact rationals
    n, beta, gamma = 5, Fraction(1), Fraction(3, 2)
    p = q = Fraction(2)
    s1 = s2 = Fraction(-1, 2)
    g = gamma - 1
    bg = beta * gamma
    q0_exact = (bg * (g + q) + g * s1 + s2 * q) / (p * q - g * g)
    assert q0_exact == Fraction(2, 3)
    e = exponents(Parameters(5, 1.0, 1.5, 2.0, 2.0, -0.5, -0.5))
    assert e.q0 == pytest.approx(float(q0_exact), rel=1e-14)
    assert e.p0 == pytest.approx(float(q0_exact), rel=1e-14)


@pytest.mark.parametrize(
    "p, expected",
    [
        (7 / 3, Subcriticality.CRITICAL),
        (3.0, Subcriticality.SUPERCRITICAL),
        (2.0, Subcriticality.SUBCRITICAL),
    ],
)
def test_subcriticality_trichotomy(p, expected):
    assert subcriticality(Parameters(5, 1.0, 2.0, p, p, 0.0, 0.0)) is expected


@pytest.mark.parametrize(
    "p, q, regime, v_exp, v_log",
    [
        (2.0, 2.0, Regime.FAST_FAST, 3.0, 0.0),
        (5 / 3, 5 / 3, Regime.LOGARITHMIC, 3.0, 1.0),
        (3 / 2, 3.0, Regime.INTERMEDIATE, 2.5, 0.0),
    ],
)
def test_classify_regime_examples(p, q, regime, v_exp, v_log):
    report = classify_regime(Parameters(5, 1.0, 2.0, p, q, 0.0, 0.0))
    assert report.regime is regime
    assert report.predicted_u_exponent == pytest.approx(3.0)
    assert report.predicted_v_exponent == pytest.approx(v_exp)
    assert report.v_log_power == pytest.approx(v_log)


def test_classify_regime_interchanges_with_warning():
    # q < p: the relabeled tuple satisfies the ordering hypotheses
    with pytest.warns(InterchangeWarning):
        report = classify_regime(Parameters(5, 1.0, 2.0, 3.0, 1.5, 0.0, 0.0))
    assert report.interchanged
    assert report.regime is Regime.INTERMEDIATE


def test_regime_report_json_keys():
    d = classify_regime(Parameters(5, 1.0, 2.0, 2.0, 2.0, 0.0, 0.0)).to_dict()
    assert set(d) == {"regime", "u_exponent", "v_exponent", "v_log_power", "subcriticality"}
    assert d["regime"] == "FastFast"
    assert d["subcriticality"] == "Subcritical"


def test_integrability_interval_examples():
    (u_low, u_hi), (v_low, v_hi) = integrability_interval(
        Parameters(5, 1.0, 2.0, 2.0, 2.0, 0.0, 0.0)
    )
    assert u_low == pytest.approx(5 / 3)
    assert v_low == pytest.approx(5 / 3)
    assert math.isinf(u_hi) and math.isinf(v_hi)
    (_, _), (v_low, _) = integrability_interval(Parameters(5, 1.0, 2.0, 1.5, 3.0, 0.0, 0.0))
    assert v_low == pytest.approx(2.0)


def test_integrability_interval_degenerate_denominator():
    # p * fast_rate below beta*gamma + sigma2 (near-borderline beta*gamma)
    bad = Parameters(5, 2.45, 2.0, 1.05, 6.0, 0.0, 0.0)
    with pytest.raises(ParameterError, match="degenerate"):
        integrability_interval(bad)


# -- property tests -----------------------------------------------------------


@st.composite
def valid_parameters(draw, ordered=False):
    n = draw(st.integers(min_value=3, max_value=8))
    gamma = draw(st.floats(min_value=1.1, max_value=2.0))
    frac = draw(st.floats(min_value=0.15, max_value=0.85))
    beta = frac * n / gamma
    p = draw(st.floats(min_value=1.05, max_value=5.0))
    q = draw(st.floats(min_value=1.05, max_value=5.0))
    if ordered and q < p:
        p, q = q, p
    bg = beta * gamma
    s1 = -draw(st.floats(min_value=0.0, max_value=0.9)) * bg
    s2 = -draw(st.floats(min_value=0.0, max_value=0.9)) * bg
    if ordered and s1 > s2:
        s1, s2 = s2, s1
    return Parameters(n, beta, gamma, p, q, s1, s2)


@given(valid_parameters(ordered=True))
@settings(max_examples=150, deadline=None)
def test_regime_matches_rate_comparison(params):
    # the regime split and the comparison between the two candidate v-rates
    # are the same algebraic condition
    e = exponents(params)
    report = classify_regime(params)
    diff = e.intermediate_rate_v - e.fast_rate_u
    if report.regime is Regime.FAST_FAST:
        assert diff > -1e-9
    elif report.regime is Regime.INTERMEDIATE:
        assert diff < 1e-9
    else:
        assert abs(diff) <= 1e-6


@given(valid_parameters())
@settings(max_examples=150, deadline=None)
def test_swap_symmetry_of_exponents(params):
    e = exponents(params)
    es = exponents(params.swapped())
    assert es.q0 == pytest.approx(e.p0, rel=1e-12)
    assert es.p0 == pytest.approx(e.q0, rel=1e-12)


@given(valid_parameters())
@settings(max_examples=150, deadline=None)
def test_sum_of_exponents_equivalent_to_subcriticality(params):
    e = exponents(params)
    fast = e.fast_rate_u
    total = e.q0 + e.p0
    sub = subcriticality(params)
    if abs(total - fast) > 1e-7 * max(1.0, abs(fast)):
        if total <= fast:
            assert sub in (Subcriticality.CRITICAL, Subcriticality.SUPERCRITICAL)
        else:
            assert sub is Subcriticality.SUBCRITICAL


@given(
    st.integers(min_value=3, max_value=8),
    st.floats(min_value=1.2, max_value=2.0),
    st.floats(min_value=0.15, max_value=0.8),
    st.floats(min_value=1.1, max_value=4.0),
)
@settings(max_examples=100, deadline=None)
def test_critical_unweighted_intermediate_rate_identity(n, gamma, frac, p):
    # at criticality with zero weights the intermediate rate collapses to
    # n/(gamma-1) * (gamma-1+p)/(gamma-1+q)
    g = gamma - 1.0
    beta = frac * n / gamma
    fast = (n - beta * gamma) / g
    rhs = fast - n / (g + p)
    if rhs <= 1e-9:
        return
    q = n / rhs - g
    if not (1.05 <= q <= 50.0):
        return
    params = Parameters(n, beta, gamma, p, q, 0.0, 0.0)
    assert subcriticality(params) is Subcriticality.CRITICAL
    e = exponents(params)
    expected = n / g * (g + p) / (g + q)
    assert e.intermediate_rate_v == pytest.approx(expected, rel=1e-9)


@given(valid_parameters())
@settings(max_examples=60, deadline=None)
def test_parameters_dict_round_trip(params):
    assert Parameters.from_dict(params.to_dict()) == params


def _neither_labeling():
    # q < p asks for the swap, and after it sigma1 > sigma2; the warning is
    # raised here as an error
    with warnings.catch_warnings():
        warnings.simplefilter("error", InterchangeWarning)
        classify_regime(Parameters(5, 1.0, 2.0, 3.0, 1.5, -0.5, 0.0))


_VALID = {"n": 5, "beta": 1.0, "gamma": 2.0, "p": 2.0, "q": 2.0, "sigma1": 0.0, "sigma2": 0.0}
PARAMS_RAISE_SITES = [
    ("from_dict keys", lambda: Parameters.from_dict({"n": 5, "beta": 1.0}), ParameterError,
     "missing parameter keys: ['gamma', 'p', 'q', 'sigma1', 'sigma2']"),
    ("not a number", lambda: Parameters(5, 1.0, 2.0, "2", None), ParameterError,
     "parameters must be real numbers: ['p', 'q']"),
    ("from_dict number", lambda: Parameters.from_dict({**_VALID, "p": "x"}), ParameterError,
     "parameters must be numbers"),
    ("from_dict n", lambda: Parameters.from_dict({**_VALID, "n": 5.5}), ParameterError,
     "n must be an integer, got 5.5"),
    ("neither labeling", _neither_labeling, InterchangeWarning,
     "neither labeling satisfies q >= p and sigma1 <= sigma2"),
]


@pytest.mark.parametrize(
    "site, call, error, fragment", PARAMS_RAISE_SITES, ids=[s[0] for s in PARAMS_RAISE_SITES]
)
def test_params_raise_sites(site, call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert fragment in str(err.value)
