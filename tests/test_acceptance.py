"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 8 is asserted exactly as pinned and is an expected
failure: the finite-x value of the log-tail expression differs from its
limit by 1/(3 ln x) ~ 2.9% at x = 1e5, above the pinned 2% tolerance for
mathematical (not numerical) reasons; the companion extrapolation check
inside criterion 8b validates the identity itself.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from wolffkit.params import (
    Parameters,
    Subcriticality,
    classify_regime,
    exponents,
    integrability_interval,
    subcriticality,
)
from wolffkit.geometry import CapKernel, ball_mass
from wolffkit.potential import riesz_eval_at, wolff_eval, wolff_eval_at
from wolffkit.quasilinear import GroundStateConfig, ShootConfig, find_fast_ground_state, shoot
from wolffkit.radial import (
    RadialFunction,
    RadialGrid,
    is_infinite,
    lp_norm,
    unit_ball_volume,
)
from wolffkit.solver import SolveConfig, bubble_profile, make_ansatz, solve_system, system_residual
from wolffkit.verify import check_inequalities, log_tail_expression

from conftest import ORACLES_PATH, indicator_of_ball, power_tail_profile

warnings.filterwarnings("ignore")


def report(number, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {tag}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {number} ({name}): {detail}"


# 1 ---------------------------------------------------------------------------


def test_criterion_1_exponent_algebra():
    params = Parameters(5, 1.0, 2.0, 7 / 3, 7 / 3, 0.0, 0.0)
    e = exponents(params)
    ok = (
        abs(e.q0 - 1.5) < 1e-12
        and abs(e.p0 - 1.5) < 1e-12
        and subcriticality(params) is Subcriticality.CRITICAL
    )
    report(1, "exponent algebra", ok, f"q0={e.q0!r} p0={e.p0!r}")


# 2 ---------------------------------------------------------------------------


def test_criterion_2_geometry():
    grid = RadialGrid.per_decade(1e-2, 2e3, 16)
    ones = RadialFunction(grid, np.ones(grid.count), tail_exponent=math.inf)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        rho = float(rng.uniform(0.0, 5.0))
        t = float(rng.uniform(0.1, 5.0))
        got = ball_mass(CapKernel(n), ones, rho, t)
        worst = max(worst, abs(got / (unit_ball_volume(n) * t**n) - 1.0))
    lens = ball_mass(CapKernel(3), indicator_of_ball(1.0), 1.0, 1.0)
    lens_err = abs(lens / (5 * math.pi / 12) - 1.0)
    ok = worst <= 1e-6 and lens_err <= 1e-6
    report(2, "ball-mass geometry", ok, f"uniform worst={worst:.2e} lens={lens_err:.2e}")


# 3 ---------------------------------------------------------------------------


def test_criterion_3_wolff_closed_form(unit_indicator):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 7))
        gamma = float(rng.uniform(1.25, 2.0))
        beta = float(rng.uniform(0.15, 0.85)) * n / gamma
        g = gamma - 1.0
        bg = beta * gamma
        expected = unit_ball_volume(n) ** (1.0 / g) * (g / bg + g / (n - bg))
        got = wolff_eval_at(unit_indicator, n, beta, gamma, [0.0])[0]
        worst = max(worst, abs(got / expected - 1.0))
    report(3, "Wolff indicator closed form", worst <= 1e-4, f"worst rel={worst:.2e}")


# 4 ---------------------------------------------------------------------------


def _battery(n):
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    return [
        indicator_of_ball(1.0),
        power_tail_profile(g, 0.5, n + 5.0),  # localized bump
        power_tail_profile(g, 1.0, n + 2.0),  # power-law tail
    ]


# Criterion 4: riesz_eval runs on wolff_eval's engine, so comparing the two
# would compare a code path with itself.  The evidence for either sits with
# the benchmark's oracles (the conftest fixture): Newton's shell theorem and
# the 2F1 spherical mean, integrated in r with no wolffkit code.
ORACLE_RTOL = 1e-3


def _oracle_profiles():
    return {
        "bump": power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 9.0),
        "power-7 tail": power_tail_profile(RadialGrid.per_decade(1e-2, 1e1, 16), 1.0, 7.0),
        "ball indicator": indicator_of_ball(1.0),
    }


@pytest.mark.parametrize("n, alpha", [(3, 1.6), (4, 1.5), (5, 1.2), (5, 2.0)])
def test_criterion_4_riesz_against_spherical_mean_oracle(oracles, n, alpha):
    for name, f in _oracle_profiles().items():
        rho = f.grid.points[::4]
        got = riesz_eval_at(f, n, alpha, rho)
        ref = oracles.spherical_mean_riesz(oracles.Profile.of(f), n, alpha, rho)
        err = oracles.max_relative_error(got, ref)
        assert err <= ORACLE_RTOL, (name, err)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_4_wolff_gamma2_against_shell_theorem_oracle(oracles, n):
    for name, f in _oracle_profiles().items():
        rho = f.grid.points[::4]
        got = (n - 2) * wolff_eval_at(f, n, 1.0, 2.0, rho)
        ref = oracles.shell_potential(oracles.Profile.of(f), n, rho)
        err = oracles.max_relative_error(got, ref)
        assert err <= ORACLE_RTOL, (name, err)


def _wolffkit_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "no imports found; the parse is not reading the oracle module"
    return [m for m in imported if m.split(".")[0] == "wolffkit" or m.startswith(".")]


def test_oracle_module_imports_nothing_from_wolffkit():
    offending = _wolffkit_imports(ORACLES_PATH)
    assert not offending, offending


def test_lens_oracle_imports_nothing_from_wolffkit():
    offending = _wolffkit_imports(Path(__file__).with_name("lens_oracle.py"))
    assert not offending, offending


# 5 ---------------------------------------------------------------------------


def test_criterion_5_homogeneity_and_monotonicity():
    n, beta, gamma = 5, 1.0, 1.6
    worst_h = 0.0
    worst_m = 0.0
    for f in _battery(n):
        lam = 2.31
        base = wolff_eval(f, n, beta, gamma)
        scaled = wolff_eval(f.scaled(lam), n, beta, gamma)
        worst_h = max(
            worst_h,
            float(np.max(np.abs(scaled.values / (lam ** (1 / (gamma - 1)) * base.values) - 1))),
        )
        bigger = f.with_values(f.values * (1.0 + 0.4 * np.sin(np.log(f.grid.points)) ** 2))
        wb = wolff_eval(bigger, n, beta, gamma)
        worst_m = max(worst_m, float(np.max(base.values / wb.values)) - 1.0)
    ok = worst_h <= 1e-12 and worst_m <= 1e-10
    report(5, "homogeneity and monotonicity", ok, f"homog={worst_h:.1e} mono={worst_m:.1e}")


# 6 ---------------------------------------------------------------------------


def test_criterion_6_bubble_fixed_point():
    params = Parameters(5, 1.0, 2.0, 7 / 3, 7 / 3, 0.0, 0.0)
    grid = RadialGrid.per_decade(1e-2, 1e3, 16)
    u = bubble_profile(5, grid)
    res_u, res_v = system_residual(params, u, u, window=(grid.r_min, grid.r_max / 10.0))
    ok = res_u <= 1e-2 and res_v <= 1e-2
    report(6, "bubble fixed point", ok, f"residuals=({res_u:.2e},{res_v:.2e})")


# 7 ---------------------------------------------------------------------------

REGIME_CASES = {
    # pinned FastFast tuple (p=q=2) is subcritical, so q is raised to the
    # nearest critical value, as the criterion prescribes for the other sets
    "FastFast": Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0),
    "Logarithmic": Parameters(5, 1.0, 2.0, 5 / 3, 31 / 9, 0.0, 0.0),
    "Intermediate": Parameters(5, 1.0, 2.0, 1.4, 49 / 11, 0.0, 0.0),
}


def _rate_defects(result, prediction):
    du = abs(result.rate_u.exponent / prediction.predicted_u_exponent - 1.0)
    dv = abs(result.rate_v.exponent / prediction.predicted_v_exponent - 1.0)
    dl = abs(result.rate_v.log_power - prediction.v_log_power)
    detail = (
        f"u={result.rate_u.exponent:.3f} v={result.rate_v.exponent:.3f} "
        f"log={result.rate_v.log_power:.3f}"
    )
    return du <= 0.05 and dv <= 0.05 and dl <= 0.3, detail


# Picard and shooting are asserted apart, so that neither covers for the other
@pytest.mark.parametrize("regime_name", list(REGIME_CASES))
def test_criterion_7_fast_rate_recovery(regime_name):
    params = REGIME_CASES[regime_name]
    prediction = classify_regime(params)
    assert prediction.regime.value == regime_name
    assert prediction.subcriticality is Subcriticality.CRITICAL
    result = solve_system(params, SolveConfig(max_iters=25, rel_tol=5e-3, damping=0.8))
    rates_ok, detail = _rate_defects(result, prediction)
    report(7, f"fast-rate recovery [{regime_name}]", result.converged and rates_ok,
           f"picard, {result.iterations} iterations: {detail}")


SHOOTING_INTEGRATIONS = {"FastFast": 21, "Logarithmic": 22, "Intermediate": 27}


@pytest.mark.parametrize("regime_name", list(REGIME_CASES))
def test_criterion_7_fast_rate_recovery_by_shooting(regime_name):
    params = REGIME_CASES[regime_name]
    prediction = classify_regime(params)
    result = find_fast_ground_state(
        params, GroundStateConfig(shoot=ShootConfig(r_stop=1e6), final_r_stop=1e6)
    )
    rates_ok, detail = _rate_defects(result, prediction)
    report(7, f"fast-rate recovery by shooting [{regime_name}]", result.converged and rates_ok,
           f"shooting, {result.iterations} integrations: {detail}")
    # integrations, one per classified shot, as measured: a search that
    # integrated any shot twice would exceed them
    assert result.iterations <= SHOOTING_INTEGRATIONS[regime_name]


HARDY_CASES = {
    # sigma1 = sigma2 = -0.5 on the critical curve, one tuple per regime
    "FastFast": Parameters(5, 1.0, 2.0, 2.0, 2.0, -0.5, -0.5),
    "Logarithmic": Parameters(5, 1.0, 2.0, 1.5, 2.75, -0.5, -0.5),
    "Intermediate": Parameters(5, 1.0, 2.0, 1.3, 3.3125, -0.5, -0.5),
}


@pytest.mark.parametrize("regime_name", list(HARDY_CASES))
def test_criterion_7_picard_under_hardy_weights(oracles, regime_name):
    # the Anderson-mixed solve takes 4, 6 and 6 iterations; damped Picard
    # alone took 10, 10 and 12.  The defect is the solution's, under the
    # gamma = 2 map W_{1,2} = I_2 / (n - 2) from Newton's shell theorem.
    params = HARDY_CASES[regime_name]
    prediction = classify_regime(params)
    assert prediction.regime.value == regime_name
    assert prediction.subcriticality is Subcriticality.CRITICAL
    result = solve_system(params, SolveConfig(max_iters=25, rel_tol=5e-3, damping=0.8))
    n = params.n
    U, V = oracles.Profile.of(result.u), oracles.Profile.of(result.v)
    u_img = oracles.shell_potential(V.powered(params.sigma1, params.q), n, U.r) / (n - 2)
    v_img = oracles.shell_potential(U.powered(params.sigma2, params.p), n, V.r) / (n - 2)
    defect = max(oracles.max_relative_error(u_img, U.v), oracles.max_relative_error(v_img, V.v))
    rates_ok, detail = _rate_defects(result, prediction)
    ok = result.converged and result.iterations <= 6 and rates_ok and defect <= 5e-3
    report(7, f"Picard under Hardy weights [{regime_name}]", ok,
           f"{result.iterations} iterations: {detail} defect={defect:.1e}")


# 8 ---------------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="exact mathematics: the finite-x gap 1/(3 ln(lam x)) is 2.9% (lam=1) and "
    "2.7% (lam=2) at x=1e5, above the pinned 2% tolerance; the identity itself is "
    "verified to ~1e-13 by extrapolation in criterion 8b",
)
def test_criterion_8_log_limit_at_pinned_point():
    n, beta, gamma = 5, 1.0, 2.0
    ok = True
    details = []
    for lam in (1.0, 2.0):
        measured = log_tail_expression(n, beta, gamma, lam, 1e5)
        expected = (gamma - 1.0) / (n - beta * gamma) * lam ** (-3.0)
        rel = abs(measured / expected - 1.0)
        details.append(f"lam={lam}: rel={rel:.4f}")
        ok = ok and rel <= 0.02
    report(8, "log-limit identity at |x|=1e5 (pinned 2%)", ok, "; ".join(details))


def test_criterion_8b_log_limit_identity_by_extrapolation():
    # the gap decays like 1/ln(x); one Richardson step recovers the limit
    n, beta, gamma = 5, 1.0, 2.0
    worst = 0.0
    for lam in (1.0, 2.0):
        expected = (gamma - 1.0) / (n - beta * gamma) * lam ** (-3.0)
        v4 = log_tail_expression(n, beta, gamma, lam, 1e4)
        v5 = log_tail_expression(n, beta, gamma, lam, 1e5)
        w4, w5 = 1.0 / math.log(lam * 1e4), 1.0 / math.log(lam * 1e5)
        extrap = v5 + (v5 - v4) * w5 / (w4 - w5)
        worst = max(worst, abs(extrap / expected - 1.0))
    report(8, "log-limit identity (extrapolated companion)", worst <= 0.02, f"worst rel={worst:.2e}")


# 9 ---------------------------------------------------------------------------


def test_criterion_9_optimal_integrability():
    rng = np.random.default_rng(9)
    grid = RadialGrid.per_decade(1e-2, 1e3, 16)
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 8))
        gamma = float(rng.uniform(1.15, 2.0))
        beta = float(rng.uniform(0.15, 0.85)) * n / gamma
        p = float(rng.uniform(1.05, 4.0))
        q = float(rng.uniform(p, 5.0))
        bg = beta * gamma
        s2 = -float(rng.uniform(0.0, 0.9)) * bg
        s1 = -float(rng.uniform(-s2 / bg, 0.9)) * bg
        params = Parameters(n, beta, gamma, p, q, s1, s2)
        try:
            (u_low, _), (v_low, _) = integrability_interval(params)
            u, v = make_ansatz(params, grid)
        except Exception:
            continue
        if min(u_low, v_low) < 1.0:
            continue  # endpoint exponents below 1 fall outside the norm contract
        for f, low in ((u, u_low), (v, v_low)):
            inside = lp_norm(f, low * 1.1, 0.0, n=n)
            at_end = lp_norm(f, low, 0.0, n=n)
            assert not is_infinite(inside), (params, low)
            assert is_infinite(at_end), (params, low)
        checked += 1
    report(9, "optimal integrability endpoints", checked == 50, f"{checked} tuples")


# 10 --------------------------------------------------------------------------


def test_criterion_10_quasilinear_oracle():
    critical = Parameters(3, 1.0, 2.0, 5.0, 5.0, 0.0, 0.0)
    traj = shoot(critical, 1.0, 1.0, ShootConfig(r_stop=100.0))
    exact = (1.0 + traj.r**2 / 3.0) ** -0.5
    worst = float(np.max(np.abs(traj.u / exact - 1.0)))
    supercrit = Parameters(3, 1.0, 2.0, 6.0, 6.0, 0.0, 0.0)
    res = find_fast_ground_state(
        supercrit, GroundStateConfig(shoot=ShootConfig(r_stop=1e8), final_r_stop=1e8, fit_decades=5.0)
    )
    slow_expected = 2.0 / (6.0 - 1.0)
    slow_err = abs(res.rate_u.exponent / slow_expected - 1.0)
    ok = worst <= 1e-4 and slow_err <= 0.05
    report(10, "quasilinear oracle", ok, f"profile rel={worst:.2e} slow rel={slow_err:.2%}")


# 11 --------------------------------------------------------------------------


def test_criterion_11_inequality_ratio_boundedness():
    # at gamma = 2 the comparison ratio is n - alpha by construction, so it
    # is skipped there and read at gamma = 1.6 (spread 1.3175 measured)
    params = Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0)
    entries = {e.name: e for e in check_inequalities(11, params, count=20)}
    hls = entries["weighted_hls_ratio"]
    skipped = entries["wolff_riesz_comparison"].status == "skipped"
    params = Parameters(3, 1.0, 1.6, 2.0, 2.75, 0.0, 0.0)
    cmp_ = {e.name: e for e in check_inequalities(11, params, p=1.5, count=20)}["wolff_riesz_comparison"]
    ok = hls.status == "pass" and skipped and cmp_.status == "pass"
    report(
        11,
        "inequality ratio boundedness",
        ok,
        f"hls spread={hls.measured:.3f} cmp spread={cmp_.measured:.3f}",
    )
