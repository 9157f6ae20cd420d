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


FASTFAST = Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0)
INTERMEDIATE = Parameters(5, 1.0, 2.0, 1.4, 49 / 11, 0.0, 0.0)


@pytest.fixture(scope="module")
def full_depth_bisection():
    """The FastFast bisection at r_stop = 1e4 run to full depth with sampled shots.

    It keeps re-shooting an endpoint once lo and hi are adjacent doubles.
    Returns the config, every shot by b, b_star and the reference final
    trajectory.
    """
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e4))
    lo, hi = cfg.bracket
    shots = {b: shoot(FASTFAST, cfg.a, b, cfg.shoot) for b in (lo, hi)}
    c_lo = _outcome(shots[lo].event)
    best = shots[lo] if shots[lo].r_reached >= shots[hi].r_reached else shots[hi]
    for _ in range(quasilinear.BISECTION_DEPTH):
        mid = math.sqrt(lo * hi)
        t_mid = shots[mid] = shoot(FASTFAST, cfg.a, mid, cfg.shoot)
        if t_mid.r_reached >= best.r_reached:
            best = t_mid
        if _outcome(t_mid.event) == c_lo:
            lo = mid
        else:
            hi = mid
    b_star = math.sqrt(lo * hi)
    final = shoot(FASTFAST, cfg.a, b_star, cfg.shoot)
    if final.r_reached < best.r_reached:
        final = best
    return cfg, shots, b_star, final


def _counting(monkeypatch):
    """Record the b of every classified and every sampled shot."""
    classified, sampled = [], []
    classify, shoot_ = quasilinear._classify, quasilinear.shoot

    def counting_classify(params, a, b, r_stop):
        classified.append((b, r_stop))
        return classify(params, a, b, r_stop)

    def counting_shoot(params, a, b, cfg=None):
        sampled.append((b, cfg.r_stop))
        return shoot_(params, a, b, cfg)

    monkeypatch.setattr(quasilinear, "_classify", counting_classify)
    monkeypatch.setattr(quasilinear, "shoot", counting_shoot)
    return classified, sampled


def test_classify_matches_shoot_at_every_bisection_b(full_depth_bisection):
    # tolerance 0: the unsampled classification reads the outcome and reach
    # that the sampled shot reports, at every b of the bisection
    cfg, shots, _, final = full_depth_bisection
    for b, t in shots.items():
        assert quasilinear._classify(FASTFAST, cfg.a, b, cfg.shoot.r_stop) == (
            t.event,
            t.r_reached,
        )
    res = find_fast_ground_state(FASTFAST, cfg)
    for prof, comp in ((res.u, final.u), (res.v, final.v)):
        k = prof.grid.count
        assert np.array_equal(prof.grid.points, final.r[:k])
        assert np.array_equal(prof.values, comp[:k])


def test_non_positive_start_hits_zero_at_series_start():
    # at b = 200 the series start gives u(R_START) = -16.8: u has already hit zero
    traj = shoot(INTERMEDIATE, 1.0, 200.0)
    assert traj.event == ("u", quasilinear.R_START)
    assert traj.r_reached == quasilinear.R_START
    assert traj.u[0] < 0.0 and traj.r.size == 1
    assert quasilinear._classify(INTERMEDIATE, 1.0, 200.0, 1e4) == (traj.event, traj.r_reached)


def test_series_start_overflow_is_a_parameter_error_naming_b():
    # v(0)^q = 1e36 and its 1/(gamma - 1) = 10th power leave the float range
    params = Parameters(5, 1.0, 1.1, 1.2, 9.0, 0.0, -0.5)
    with pytest.raises(ParameterError, match=r"v\(0\) = 10000\.0"):
        shoot(params, 1.0, 1e4, ShootConfig(r_stop=1e8))
    with pytest.raises(ParameterError, match=r"v\(0\) = 10000\.0"):
        quasilinear._classify(params, 1.0, 1e4, 1e8)
    # one decade lower the start is finite (and already non-positive in u)
    traj = shoot(params, 1.0, 1e3, ShootConfig(r_stop=1e2))
    assert np.isfinite(traj.u[0]) and traj.event == ("u", quasilinear.R_START)


def test_bisection_stops_at_adjacent_doubles(full_depth_bisection, monkeypatch):
    params = FASTFAST
    cfg, _, b_star, final = full_depth_bisection
    classified, sampled = _counting(monkeypatch)
    res = find_fast_ground_state(params, cfg)
    # no b is classified twice, and only the final trajectory is sampled:
    # the bisection's own shot at b_star, which the full-depth reference
    # shoots once more
    shots = [b for b, _ in classified]
    assert len(set(shots)) == len(shots) < quasilinear.BISECTION_DEPTH + 2
    assert b_star in shots
    assert sampled == [(b_star, cfg.shoot.r_stop)]
    assert res.trace[0]["b_star"] == b_star
    assert res.trace[0]["r_reached"] == final.r_reached
    for prof, comp in ((res.u, final.u), (res.v, final.v)):
        k = prof.grid.count
        assert np.array_equal(prof.grid.points, final.r[:k])
        assert np.array_equal(prof.values, comp[:k])
    # the report counts the integrations and gives each component its own
    # flux identity: m_v(r) + int_0^r s^{n-1+sigma2} u^p ds = 0
    assert res.iterations == len(classified) + len(sampled)
    assert res.residual_u == flux_identity_residual(params, final)
    u, r = np.maximum(final.u, 0.0), final.r
    n_s2 = params.n + params.sigma2
    mass_v = cumulative_trapezoid(r**n_s2 * u**params.p, np.log(r), initial=0.0)
    mass_v += u[0] ** params.p * r[0] ** n_s2 / n_s2
    residual_v = np.max(np.abs(final.flux_v + mass_v)) / np.max(np.abs(final.flux_v))
    assert res.residual_v == pytest.approx(residual_v, rel=1e-12)
    assert res.residual_v != pytest.approx(res.residual_u, rel=0.1)


def test_trace_records_each_bisection_shot(monkeypatch):
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e3))
    classified, _ = _counting(monkeypatch)
    res = find_fast_ground_state(FASTFAST, cfg)
    steps = res.trace[1:]
    assert [(e["b"], cfg.shoot.r_stop) for e in steps] == classified
    assert set(res.trace[0]) == {"b_star", "r_reached", "log_scale"}
    # the bisection ends on adjacent doubles, one of them b_star, whose
    # last classifications differ
    outcome = {e["b"]: e["outcome"] for e in steps}
    b_star = res.trace[0]["b_star"]
    (other,) = [b for b in outcome if b != b_star and np.nextafter(b, b_star) == b_star]
    assert outcome[b_star] != outcome[other]
    assert "trace" not in res.to_report_dict()


def test_final_shot_made_when_final_r_stop_differs(monkeypatch):
    params = FASTFAST
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e4), final_r_stop=1e5)
    classified, sampled = _counting(monkeypatch)
    res = find_fast_ground_state(params, cfg)
    b_star = res.trace[0]["b_star"]
    # b_star is sampled to 1e5; if that shot hits zero short of the
    # bisection's farthest reach, the farthest shot is sampled to 1e4 too
    assert sampled[0] == (b_star, 1e5) and len(sampled) <= 2
    assert all(r_stop == 1e4 for _, r_stop in classified + sampled[1:])
    assert b_star in [b for b, _ in classified]  # re-shot to the farther radius
    assert res.iterations == len(classified) + len(sampled)
