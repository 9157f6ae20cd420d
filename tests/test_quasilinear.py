import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from wolffkit.errors import NoBracketError, ParameterError
from wolffkit import quasilinear
from wolffkit.params import Parameters
from wolffkit.potential import weighted_source, wolff_eval_at
from wolffkit.quasilinear import (
    GroundStateConfig,
    ShootConfig,
    _outcome,
    find_fast_ground_state,
    flux_identity_residual,
    shoot,
)
from wolffkit.radial import sphere_surface

SCALAR_CUBIC = Parameters(3, 1.0, 2.0, 5.0, 5.0, 0.0, 0.0)


def test_shoot_matches_critical_closed_form():
    # u(r) = (1 + r^2/3)^{-1/2} solves the critical scalar case exactly
    traj = shoot(SCALAR_CUBIC, 1.0, 1.0, ShootConfig(r_stop=1e2))
    exact = (1.0 + traj.r**2 / 3.0) ** -0.5
    assert traj.event is None
    assert np.max(np.abs(traj.u / exact - 1.0)) <= 1e-4
    assert np.max(np.abs(traj.v / exact - 1.0)) <= 1e-4


def test_shoot_requires_unit_beta_and_positive_data():
    with pytest.raises(ParameterError, match="beta"):
        shoot(Parameters(3, 0.5, 2.0, 5.0, 5.0, 0.0, 0.0), 1.0, 1.0)
    with pytest.raises(ParameterError, match="positive"):
        shoot(SCALAR_CUBIC, 1.0, 0.0)


def test_trajectories_are_nonincreasing():
    traj = shoot(SCALAR_CUBIC, 1.0, 1.0, ShootConfig(r_stop=1e3))
    assert np.all(np.diff(traj.u) <= 1e-12)
    assert np.all(np.diff(traj.v) <= 1e-12)
    assert np.all(traj.flux_u <= 0.0)
    assert np.all(traj.flux_v <= 0.0)


def test_flux_identity_along_trajectory():
    traj = shoot(SCALAR_CUBIC, 1.0, 1.0, ShootConfig(r_stop=1e3))
    assert flux_identity_residual(SCALAR_CUBIC, traj) <= 1e-3


def test_scaling_family_invariance():
    # u_lam(r) = lam^{(n-2)/2} u(lam r) solves the same critical equation
    lam = 2.0
    base = shoot(SCALAR_CUBIC, 1.0, 1.0, ShootConfig(r_stop=1e2))
    scaled = shoot(SCALAR_CUBIC, lam**0.5, lam**0.5, ShootConfig(r_stop=1e2 / lam))
    u_interp = np.exp(np.interp(np.log(scaled.r * lam), np.log(base.r), np.log(base.u)))
    assert np.max(np.abs(scaled.u / (lam**0.5 * u_interp) - 1.0)) <= 1e-4


def test_supercritical_slow_branch_rate():
    params = Parameters(3, 1.0, 2.0, 6.0, 6.0, 0.0, 0.0)
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e8), final_r_stop=1e8, fit_decades=5.0)
    res = find_fast_ground_state(params, cfg)
    assert res.rate_u.exponent == pytest.approx(2.0 / (6.0 - 1.0), rel=0.05)


def test_system_separatrix_fast_rates():
    params = Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0)
    res = find_fast_ground_state(params, GroundStateConfig(shoot=ShootConfig(r_stop=1e5)))
    assert res.converged
    assert res.rate_u.exponent == pytest.approx(3.0, rel=0.05)
    assert res.rate_v.exponent == pytest.approx(3.0, rel=0.05)


def test_logarithmic_separatrix_rates_and_log_scale():
    # the benchmark's Logarithmic tuple: both rates (n - beta*gamma)/(gamma - 1)
    # = 3, and v carries (ln r)^{1/(gamma - 1)}; bounds are the benchmark's
    params = Parameters(5, 1.0, 2.0, 5 / 3, 31 / 9, 0.0, 0.0)
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e6), final_r_stop=1e6)
    res = find_fast_ground_state(params, cfg)
    assert res.converged
    assert res.trace[0]["log_scale"] > 1.0  # rescaled to anchor the log factor
    assert res.rate_u.exponent == pytest.approx(3.0, rel=0.05)
    assert res.rate_v.exponent == pytest.approx(3.0, rel=0.05)
    assert res.rate_v.log_power == pytest.approx(1.0, abs=0.3)


def test_no_bracket_raises():
    params = Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0)
    with pytest.raises(NoBracketError):
        find_fast_ground_state(
            params, GroundStateConfig(bracket=(40.0, 80.0), shoot=ShootConfig(r_stop=1e3))
        )


def test_separatrix_consistent_with_integral_formulation():
    # the correspondence constant u / W_{1,2}(v^q) is exactly 1/s_{n-1} when
    # gamma = 2; two-sided boundedness of the ratio is the general statement
    params = Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0)
    res = find_fast_ground_state(params, GroundStateConfig(shoot=ShootConfig(r_stop=1e4)))
    src = weighted_source(params.sigma1, params.q, res.v)
    rho = np.geomspace(1.0, 50.0, 8)
    w = wolff_eval_at(src, params.n, 1.0, 2.0, rho)
    k1 = res.u(rho) / w
    assert k1.max() / k1.min() <= 1.2
    assert np.median(k1) == pytest.approx(1.0 / sphere_surface(params.n), rel=0.05)


def test_bisection_stops_at_adjacent_doubles(monkeypatch):
    # reference: the bisection run to full depth, which keeps re-shooting an
    # endpoint once lo and hi are adjacent doubles
    params = Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0)
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e4))
    lo, hi = cfg.bracket
    t_lo, t_hi = shoot(params, cfg.a, lo, cfg.shoot), shoot(params, cfg.a, hi, cfg.shoot)
    c_lo = _outcome(t_lo)
    best = t_lo if t_lo.r_reached >= t_hi.r_reached else t_hi
    for _ in range(quasilinear.BISECTION_DEPTH):
        mid = math.sqrt(lo * hi)
        t_mid = shoot(params, cfg.a, mid, cfg.shoot)
        if t_mid.r_reached >= best.r_reached:
            best = t_mid
        if _outcome(t_mid) == c_lo:
            lo = mid
        else:
            hi = mid
    b_star = math.sqrt(lo * hi)
    final = shoot(params, cfg.a, b_star, cfg.shoot)
    if final.r_reached < best.r_reached:
        final = best

    shots = []

    def counting_shoot(params, a, b, cfg=None):
        shots.append(b)
        return shoot(params, a, b, cfg)

    monkeypatch.setattr(quasilinear, "shoot", counting_shoot)
    res = find_fast_ground_state(params, cfg)
    # no b is shot twice: the final trajectory is the bisection's own shot at
    # b_star, which the full-depth reference shoots once more
    assert len(set(shots)) == len(shots) < quasilinear.BISECTION_DEPTH + 2
    assert b_star in shots
    assert res.trace[0]["b_star"] == b_star
    assert res.trace[0]["r_reached"] == final.r_reached
    for prof, comp in ((res.u, final.u), (res.v, final.v)):
        k = prof.grid.count
        assert np.array_equal(prof.grid.points, final.r[:k])
        assert np.array_equal(prof.values, comp[:k])
    # the report counts the trajectories shot and gives each component its
    # own flux identity: m_v(r) + int_0^r s^{n-1+sigma2} u^p ds = 0
    assert res.iterations == len(shots)
    assert res.residual_u == flux_identity_residual(params, final)
    u, r = np.maximum(final.u, 0.0), final.r
    n_s2 = params.n + params.sigma2
    mass_v = cumulative_trapezoid(r**n_s2 * u**params.p, np.log(r), initial=0.0)
    mass_v += u[0] ** params.p * r[0] ** n_s2 / n_s2
    residual_v = np.max(np.abs(final.flux_v + mass_v)) / np.max(np.abs(final.flux_v))
    assert res.residual_v == pytest.approx(residual_v, rel=1e-12)
    assert res.residual_v != pytest.approx(res.residual_u, rel=0.1)


def test_final_shot_made_when_final_r_stop_differs(monkeypatch):
    params = Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0)
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e4), final_r_stop=1e5)
    shots = []

    def counting_shoot(params, a, b, cfg=None):
        shots.append((b, cfg.r_stop))
        return shoot(params, a, b, cfg)

    monkeypatch.setattr(quasilinear, "shoot", counting_shoot)
    res = find_fast_ground_state(params, cfg)
    b_star = res.trace[0]["b_star"]
    assert shots[-1] == (b_star, 1e5)
    assert all(r_stop == 1e4 for _, r_stop in shots[:-1])
    assert b_star in [b for b, _ in shots[:-1]]  # re-shot to the farther radius
    assert res.iterations == len(shots)
