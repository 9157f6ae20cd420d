import dataclasses
import gc
import math
import os
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from wolffkit.errors import NoBracketError, ParameterError
from wolffkit import quasilinear
from wolffkit.params import Parameters, classify_regime
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


def _bubble_error(a: float) -> float:
    """Largest relative error of the scalar search's u from u(0) = a to r = 1e6
    against the exact bubble (1 + r^2/3)^{-1/2}, as the benchmark reads it."""
    cfg = GroundStateConfig(a=a, shoot=ShootConfig(r_stop=1e6), final_r_stop=1e6)
    u = find_fast_ground_state(SCALAR_CUBIC, cfg).u
    assert u.grid.r_max == pytest.approx(1e6, rel=1e-12)
    return float(np.max(np.abs(u.values / (1.0 + u.grid.points**2 / 3.0) ** -0.5 - 1.0)))


# the bubble error at r = 1e6 on scipy's compiled DOP853 at RTOL = 1e-13;
# measured on this engine: 1.9e-10
BUBBLE_ERROR_1E6 = 4.76e-10


def test_bubble_to_1e6_matches_its_closed_form():
    assert _bubble_error(1.0) <= BUBBLE_ERROR_1E6


def test_bubble_check_fails_one_percent_off_the_centre_value():
    # u(0) = 1.01 starts the dilated bubble 1.01 U(1.01^2 r), 1 % above U at
    # the origin and 1 % below it in the tail
    assert _bubble_error(1.01) > BUBBLE_ERROR_1E6


def test_shoot_flux_matches_the_bubbles_closed_form():
    # m_u = r^2 u'(r) = -(r^3/3)(1 + r^2/3)^{-3/2} on the exact bubble,
    # differentiated by hand; measured 4.8e-12 on [1e-3, 1e3], where the
    # series start's truncation at R_START dominates
    traj = shoot(SCALAR_CUBIC, 1.0, 1.0, ShootConfig(r_stop=1e4))
    keep = (traj.r >= 1e-3) & (traj.r <= 1e3)
    r = traj.r[keep]
    exact = -(r**3 / 3.0) * (1.0 + r**2 / 3.0) ** -1.5
    assert keep.sum() > 100
    assert np.max(np.abs(traj.flux_u[keep] / exact - 1.0)) <= 5e-11
    assert np.max(np.abs(traj.flux_v[keep] / exact - 1.0)) <= 5e-11


def test_dop853_takes_the_compiled_dop853s_steps_bit_for_bit():
    # on a linear system whose steps are all accepted, scipy's compiled
    # DOP853 with the engine's settings records the same step ends and
    # values, and makes as many right-hand-side calls: 12 per step and 2 for
    # the first step's choice.  (After a rejected step scipy 1.17 shrinks the
    # step fivefold, where Hairer's code, and the engine, shrink it by the
    # error's own factor.)
    from array import array

    from scipy.integrate import ode

    def f(s, u, v, a, b):
        return (u, -2.0 * v, b, -a)

    y0, calls = (1.0, 1.0, 1.0, 0.5), [0]

    def counted(t, y):
        calls[0] += 1
        return f(t, *y.tolist())

    steps = (array("d"), array("d"))
    y, evaluations = quasilinear._dop853(f, 0.0, 0.0, y0, 5.0, 0.0, steps)
    compiled = ode(counted).set_integrator(
        "dop853", rtol=quasilinear.RTOL, atol=quasilinear.ATOL, dfactor=0.2, ifactor=10.0
    )
    recorded = []
    compiled.set_solout(lambda t, y: recorded.append((t, *y.tolist())) and 0)
    compiled.set_initial_value(np.array(y0), 0.0)
    assert tuple(compiled.integrate(5.0).tolist()) == y
    s, ys = steps
    assert recorded == [(s[i], *ys[4 * i : 4 * i + 4]) for i in range(len(s))]
    assert evaluations == calls[0] == 12 * (len(s) - 1) + 2 and len(s) > 50
    assert y[0] == pytest.approx(math.exp(5.0), rel=1e-14)


def test_dop853_start_at_zero_is_a_step_size_too_small_error():
    # an unknown at exactly 0 has the scale ATOL, so the first-step choice's
    # |y'| / scale overflows and its first guess is h = 0: scipy's compiled
    # DOP853 stops there with "step size becomes too small", and the engine
    # raises its own ParameterError rather than dividing by zero
    from scipy.integrate import ode

    def f(s, u, v, a, b):
        return (u, -2.0 * v, b, -a)

    y0 = (1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ParameterError, match="step size too small at r = 1$"):
        quasilinear._dop853(f, 0.0, 0.0, y0, 5.0, 0.0)
    compiled = ode(lambda t, y: f(t, *y.tolist())).set_integrator(
        "dop853", rtol=quasilinear.RTOL, atol=quasilinear.ATOL, dfactor=0.2, ifactor=10.0
    )
    compiled.set_initial_value(np.array(y0), 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        compiled.integrate(5.0)
    assert compiled.get_return_code() == -3 and "step size becomes too small" in str(caught[0].message)


def test_brentq_port_matches_scipys_iterates():
    # the same iterates as scipy's brentq, call for call, on a root the
    # secant, inverse quadratic and bisection steps all take part in
    import scipy.optimize

    def traced(log):
        def f(x):
            log.append(x)
            return math.atan(x - 0.3) * (x - 0.3) ** 2 + 1e-3 * (x - 0.3)
        return f

    ours, theirs = [], []
    root = quasilinear._brentq(traced(ours), -4.0, 7.0, 1e-14, quasilinear.EVENT_TOL, 100)
    assert root == scipy.optimize.brentq(traced(theirs), -4.0, 7.0, xtol=1e-14, rtol=quasilinear.EVENT_TOL)
    assert ours == theirs and len(ours) > 8
    with pytest.raises(ValueError, match="different signs"):
        quasilinear._brentq(math.exp, 0.0, 1.0, 1e-12, quasilinear.EVENT_TOL, 100)


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


def test_canonical_log_scale_falls_back_to_one():
    # the anchor r0 of v ~ r^-3 ln(r / r0) comes from a line fit of v r^3
    # against ln r; with fewer than 8 points in the window, or a slope that
    # is not positive, the scale is 1
    params = Parameters(5, 1.0, 2.0, 5 / 3, 31 / 9, 0.0, 0.0)
    r = np.geomspace(1.0, 1e4, 41)

    def traj(v):
        zero = np.zeros_like(r)
        return quasilinear.Trajectory(r, np.ones_like(r), v, zero, zero, None, 0)

    log_tail = traj(r**-3.0 * np.log(r / 0.5))
    assert quasilinear._canonical_log_scale(params, log_tail, 3.0, (10.0, 1e4)) == pytest.approx(0.5, rel=1e-12)
    assert quasilinear._canonical_log_scale(params, log_tail, 3.0, (10.0, 40.0)) == 1.0  # 7 points
    assert quasilinear._canonical_log_scale(params, traj(r**-3.5), 3.0, (10.0, 1e4)) == 1.0  # falling


@pytest.mark.parametrize("r_stop", [5e-5, quasilinear.R_START, math.inf, math.nan])
def test_shoot_config_needs_a_finite_r_stop_past_the_series_start(r_stop):
    with pytest.raises(ParameterError, match="r_stop"):
        ShootConfig(r_stop=r_stop)
    with pytest.raises(ParameterError, match="final_r_stop"):
        GroundStateConfig(final_r_stop=r_stop)


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"a": 0.0}, "a must"),
        ({"a": math.inf}, "a must"),
        ({"bracket": (2.0, 1.0)}, "bracket"),
        ({"bracket": (0.0, 1.0)}, "bracket"),
        ({"bracket": (1.0, math.inf)}, "bracket"),
        ({"bracket": (1.0,)}, "bracket"),
        ({"fit_decades": 0.0}, "fit_decades"),
        ({"fit_decades": math.nan}, "fit_decades"),
    ],
)
def test_ground_state_config_checks_its_fields(kwargs, named):
    with pytest.raises(ParameterError, match=named):
        GroundStateConfig(**kwargs)


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
    # measured: spread 1.00086, median * s_{n-1} = 1.00197
    assert k1.max() / k1.min() <= 1.005
    assert np.median(k1) == pytest.approx(1.0 / sphere_surface(params.n), rel=5e-3)


FASTFAST = Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0)
INTERMEDIATE = Parameters(5, 1.0, 2.0, 1.4, 49 / 11, 0.0, 0.0)


def test_fast_fast_search_step_budget():
    # the benchmark's FastFast search to r = 1e6: with the fluxes integrated
    # as logarithms its shots take 3,138 accepted DOP853 steps in all, on
    # scipy's compiled DOP853 and on this engine with the bracket halved
    # first (2,770 without; 6,153 with the fluxes themselves as unknowns),
    # and b* stays where the flux unknowns put it, 1.0528731851737583, to
    # 1e-14 relative
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e6), final_r_stop=1e6)
    res = find_fast_ground_state(FASTFAST, cfg)
    assert sum(e["steps"] for e in res.trace[1:]) <= 3500
    assert res.trace[0]["b_star"] == pytest.approx(1.0528731851737583, rel=1e-14, abs=0.0)


@pytest.fixture(scope="module")
def full_depth_bisection():
    """The FastFast bisection at r_stop = 1e4 run to full depth with sampled shots.

    It keeps re-shooting an endpoint once lo and hi are adjacent doubles.
    Returns the config, every shot by b and b_star.
    """
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e4))
    lo, hi = cfg.bracket
    shots = {b: shoot(FASTFAST, cfg.a, b, cfg.shoot) for b in (lo, hi)}
    c_lo = _outcome(shots[lo].event)
    for _ in range(quasilinear.MAX_SHOTS):
        mid = math.sqrt(lo * hi)
        shots[mid] = shoot(FASTFAST, cfg.a, mid, cfg.shoot)
        if _outcome(shots[mid].event) == c_lo:
            lo = mid
        else:
            hi = mid
    return cfg, shots, math.sqrt(lo * hi)


def _integrated(params, a, b, r_stop):
    """(event, r_reached, steps) of one integration, unsampled: what the search reads."""
    shot = quasilinear._integrate(params, a, b, r_stop)
    return shot.event, float(shot.r[-1]), len(shot.s) - 1


def _counting(monkeypatch):
    """Record the (b, r_stop) of every integrated and every sampled shot."""
    integrated, sampled, origin = [], [], {}
    integrate, sample = quasilinear._integrate, quasilinear._sample

    def counting_integrate(params, a, b, r_stop):
        integrated.append((b, r_stop))
        shot = integrate(params, a, b, r_stop)
        origin[shot] = (b, r_stop)
        return shot

    def counting_sample(shot):
        sampled.append(origin[shot])
        return sample(shot)

    monkeypatch.setattr(quasilinear, "_integrate", counting_integrate)
    monkeypatch.setattr(quasilinear, "_sample", counting_sample)
    return integrated, sampled


def test_classify_matches_shoot_at_every_bisection_b(full_depth_bisection):
    # tolerance 0: the unsampled integration reads the outcome, reach and
    # step count that the sampled shot reports, at every b of the bisection;
    # and each kept shot, sampled only after every other shot was
    # integrated, gives the fresh shot's samples bit for bit
    cfg, shots, _ = full_depth_bisection
    kept = {b: quasilinear._integrate(FASTFAST, cfg.a, b, cfg.shoot.r_stop) for b in shots}
    for b, t in shots.items():
        assert (kept[b].event, float(kept[b].r[-1]), len(kept[b].s) - 1) == (
            t.event,
            t.r_reached,
            t.steps,
        )
    for b in reversed(list(kept)):
        got, t = quasilinear._sample(kept[b]), shots[b]
        assert got.event == t.event and got.steps == t.steps
        for name in ("r", "u", "v", "flux_u", "flux_v"):
            assert np.array_equal(getattr(got, name), getattr(t, name)), (b, name)


def test_non_positive_start_hits_zero_at_series_start():
    # at b = 200 the series start gives u(R_START) = -16.8: u has already hit zero
    traj = shoot(INTERMEDIATE, 1.0, 200.0)
    assert traj.event == ("u", quasilinear.R_START)
    assert traj.r_reached == quasilinear.R_START
    assert traj.u[0] < 0.0 and traj.r.size == 1
    assert traj.steps == 0
    assert _integrated(INTERMEDIATE, 1.0, 200.0, 1e4) == (
        traj.event,
        traj.r_reached,
        traj.steps,
    )


def test_series_start_overflow_is_a_parameter_error_naming_b():
    # v(0)^q = 1e36 and its 1/(gamma - 1) = 10th power leave the float range
    params = Parameters(5, 1.0, 1.1, 1.2, 9.0, 0.0, -0.5)
    with pytest.raises(ParameterError, match=r"v\(0\) = 10000\.0"):
        shoot(params, 1.0, 1e4, ShootConfig(r_stop=1e8))
    with pytest.raises(ParameterError, match=r"v\(0\) = 10000\.0"):
        _integrated(params, 1.0, 1e4, 1e8)
    # one decade lower the start is finite (and already non-positive in u)
    traj = shoot(params, 1.0, 1e3, ShootConfig(r_stop=1e2))
    assert np.isfinite(traj.u[0]) and traj.event == ("u", quasilinear.R_START)


def test_gamma_near_one_stays_in_float_range():
    # at gamma = 1.05, r^{(gamma-n)/(gamma-1)} = 1e291 at R_START and
    # (-m_u)^{1/(gamma-1)} underflows; the power of their product,
    # exp((ln(-m_u) + (gamma - n) s)/(gamma - 1)), is in range
    params = Parameters(5, 1.0, 1.05, 1.2, 9.0, 0.0, -0.5)
    for b in (1.0, 0.01):
        traj = shoot(params, 1.0, b, ShootConfig(r_stop=1e3))
        assert traj.event is not None and traj.steps > 0
        assert _integrated(params, 1.0, b, 1e3) == (
            traj.event,
            traj.r_reached,
            traj.steps,
        )
        for y in (traj.u, traj.v, traj.flux_u, traj.flux_v):
            assert np.all(np.isfinite(y)) and np.all(np.diff(y) <= 0.0)


def test_rhs_overflow_is_a_parameter_error_naming_gamma(monkeypatch):
    # a right-hand side that leaves the float range ends the shot at once; the
    # error names the last accepted step end before it and gamma.  Here the
    # slopes overflow past s = 0, so the shot's steps are the unpatched
    # shot's up to the last one ending at r <= 1
    flux_form = quasilinear._rhs
    unpatched = quasilinear._integrate(FASTFAST, 1.0, 1.0, 1e2)
    r_last = math.exp(max(s for s in unpatched.s if s <= 0.0))

    def overflowing(params):
        rhs = flux_form(params)

        def past_one(s, *y):
            if s > 0.0:
                raise OverflowError("math range error")
            return rhs(s, *y)

        return past_one

    monkeypatch.setattr(quasilinear, "_rhs", overflowing)
    with pytest.raises(ParameterError, match=r"range past r = (\S+) .*gamma = 2\.0") as raised:
        shoot(FASTFAST, 1.0, 1.0, ShootConfig(r_stop=1e2))
    assert f"past r = {r_last:.6g} (math range error)" in str(raised.value)
    assert 0.1 < r_last <= 1.0
    with pytest.raises(ParameterError, match=r"gamma = 2\.0"):
        _integrated(FASTFAST, 1.0, 1.0, 1e2)
    monkeypatch.undo()
    assert _integrated(FASTFAST, 1.0, 1.0, 1e2)[2] > 0  # the engine still works


def test_integration_failure_is_a_parameter_error_without_warning(monkeypatch):
    # past a cap of 5 attempted steps the shot fails, naming the cap and the
    # radius it reached (about 7e-4 after five steps from R_START), and it
    # warns nothing
    monkeypatch.setattr(quasilinear, "MAX_STEPS", 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r"more than MAX_STEPS = 5 steps at r = 0\.000"):
            shoot(FASTFAST, 1.0, 1.0, ShootConfig(r_stop=1e2))


def _growth(run) -> int:
    """Memory blocks still allocated after run() and a collection.

    Counted by sys.getallocatedblocks, not traced by tracemalloc: under
    tracemalloc each allocation in a long Python function costs a scan of its
    line table, which made this test take 48 s on the Python DOP853.
    """
    gc.collect()
    before = sys.getallocatedblocks()
    run()
    gc.collect()
    return sys.getallocatedblocks() - before


def test_shots_leave_no_memory_behind():
    # a shot keeps its steps in its own _Shot, and nothing else holds them,
    # so they are freed with it.  Shots at v(0) near 100 hit zero after
    # about 50 steps, with a dozen side integrations for the event root.
    # Measured growth: 1 block; 4,999 if every shot stayed alive (25 blocks
    # a shot).  (On scipy's compiled DOP853, traced by tracemalloc: 1.2 kB,
    # and 2.8 MB with its callbacks made per shot.)
    def shots():
        for k in range(200):
            event, _, steps = _integrated(INTERMEDIATE, 1.0, 100.0 + 0.01 * k, 1e4)
            assert event[0] == "u" and steps > 0

    _integrated(INTERMEDIATE, 1.0, 100.0, 1e4)
    assert _growth(shots) < 100
    # a whole search keeps the steps of its farthest shots until it has
    # sampled one of them, and none once it returns.  Measured growth of a
    # FastFast search at r_stop = 1e3: 2-3 blocks; 876 if every shot's steps
    # stayed alive.  The sampled shot's alone would add about 25, so each
    # shot is also watched until it is freed.
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e3))
    find_fast_ground_state(FASTFAST, cfg)
    assert _growth(lambda: find_fast_ground_state(FASTFAST, cfg)) < 100
    integrate, made = quasilinear._integrate, []

    def watched(*args):
        shot = integrate(*args)
        made.append(weakref.ref(shot))
        return shot

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quasilinear, "_integrate", watched)
        res = find_fast_ground_state(FASTFAST, cfg)
    gc.collect()
    assert len(made) == res.iterations and not any(ref() for ref in made)


def test_threads_share_the_engine_one_shot_at_a_time():
    # shots share no state, so they need no lock: with more threads than
    # cores and a short switch interval, every unsampled and sampled shot
    # equals the same shot made alone
    cases = [(FASTFAST, 0.5), (FASTFAST, 0.75), (FASTFAST, 1.0)]
    cases += [(INTERMEDIATE, 0.3), (INTERMEDIATE, 0.6)]
    alone = [shoot(params, 1.0, b, ShootConfig(r_stop=1e3)) for params, b in cases]
    got, errors = {}, []

    def worker(i):
        params, b = cases[i]
        try:
            for _ in range(3):
                classified = _integrated(params, 1.0, b, 1e3)
                sampled = shoot(params, 1.0, b, ShootConfig(r_stop=1e3))
                got.setdefault(i, []).append((classified, sampled))
        except Exception as exc:  # reported below, with the case that raised it
            errors.append((i, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for i, ref in enumerate(alone):
        assert len(got[i]) == 3
        for classified, sampled in got[i]:
            assert classified == (ref.event, ref.r_reached, ref.steps)
            assert sampled.event == ref.event and sampled.steps == ref.steps
            assert np.array_equal(sampled.u, ref.u) and np.array_equal(sampled.flux_v, ref.flux_v)


def test_search_ends_on_the_bisection_b_star(full_depth_bisection, monkeypatch):
    params = FASTFAST
    cfg, _, b_star = full_depth_bisection
    integrated, sampled = _counting(monkeypatch)
    res = find_fast_ground_state(params, cfg)
    # no b is integrated twice, and exactly one trajectory is sampled, off
    # its kept steps: the classified shot that reached farthest, of equal
    # reaches the one nearest the search's b_star, whose samples the profiles
    # are bit for bit.  b_star lies within Brent's tolerance of the
    # full-depth bisection's (here it is the same double; on Logarithmic at
    # r_stop = 1e4 it ends 2.0e-15 away).  The search classifies 29 shots
    # here (33 without halving the bracket first); bisection on the outcome
    # class alone classifies 57.
    shots = [b for b, _ in integrated]
    assert len(set(shots)) == len(shots) <= 30
    found = res.trace[0]["b_star"]
    assert found in shots
    assert abs(math.log(found / b_star)) <= quasilinear.SEPARATRIX_BAND
    entries = res.trace[1:]
    farthest = max(e["r_reached"] for e in entries)
    b_final = min(
        (e["b"] for e in entries if e["r_reached"] == farthest),
        key=lambda b: abs(math.log(b / found)),
    )
    assert sampled == [(b_final, cfg.shoot.r_stop)]
    monkeypatch.undo()
    final = shoot(params, cfg.a, b_final, cfg.shoot)
    assert res.trace[0]["r_reached"] == final.r_reached == farthest
    for prof, comp in ((res.u, final.u), (res.v, final.v)):
        k = prof.grid.count
        assert np.array_equal(prof.grid.points, final.r[:k])
        assert np.array_equal(prof.values, comp[:k])
    # the report counts the integrations and gives each component its own
    # flux identity, m_v(r) + int_0^r s^{n-1+sigma2} u^p ds = 0, on the
    # samples the profiles keep: CLEAN_FRACTION of the reach
    assert res.iterations == len(integrated) == len(entries)
    k = res.u.grid.count
    assert final.r[k - 1] <= quasilinear.CLEAN_FRACTION * final.r_reached < final.r[k]
    kept = dataclasses.replace(
        final, r=final.r[:k], u=final.u[:k], v=final.v[:k],
        flux_u=final.flux_u[:k], flux_v=final.flux_v[:k],
    )
    assert res.residual_u == flux_identity_residual(params, kept)
    u, r, flux_v = np.maximum(kept.u, 0.0), kept.r, kept.flux_v
    n_s2 = params.n + params.sigma2
    mass_v = cumulative_trapezoid(r**n_s2 * u**params.p, np.log(r), initial=0.0)
    mass_v += u[0] ** params.p * r[0] ** n_s2 / n_s2
    residual_v = np.max(np.abs(flux_v + mass_v)) / np.max(np.abs(flux_v))
    assert res.residual_v == pytest.approx(residual_v, rel=1e-12)
    assert res.residual_v != pytest.approx(res.residual_u, rel=0.1)


def test_trace_records_each_classified_shot(monkeypatch):
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e3))
    integrated, _ = _counting(monkeypatch)
    res = find_fast_ground_state(FASTFAST, cfg)
    steps = res.trace[1:]
    assert [(e["b"], cfg.shoot.r_stop) for e in steps] == integrated
    assert set(res.trace[0]) == {"b_star", "r_reached", "log_scale"}
    # each shot names the phase that classified it: the two bracket ends and
    # their midpoint, then Brent's iterates, then the bisection of Brent's
    # tightest bracket
    phases = [e["phase"] for e in steps]
    assert phases[:3] == ["bracket"] * 3 and phases.count("bracket") == 3
    assert phases == sorted(phases, key=["bracket", "brent", "bisect"].index)
    assert "brent" in phases
    # the search ends on adjacent doubles, one of them b_star: some shot
    # adjacent to b_star classifies differently
    entry = {e["b"]: e for e in steps}
    b_star = res.trace[0]["b_star"]
    adjacent = [b for b in entry if b != b_star and np.nextafter(b, b_star) == b_star]
    assert any(entry[b]["outcome"] != entry[b_star]["outcome"] for b in adjacent)
    # r_hit is the event radius that the search read, None for a survivor;
    # steps counts the shot's accepted DOP853 steps and evaluations its
    # right-hand sides: twelve per accepted step, eleven per rejected one,
    # two for the first step's choice and those of the event root
    for b in [b_star] + adjacent:
        shot = quasilinear._integrate(FASTFAST, cfg.a, b, cfg.shoot.r_stop)
        event, n_steps = shot.event, len(shot.s) - 1
        assert entry[b]["r_hit"] == (None if event is None else event[1])
        assert entry[b]["r_reached"] == float(shot.r[-1])
        assert entry[b]["steps"] == n_steps > 0
        assert entry[b]["evaluations"] == shot.evaluations >= 12 * n_steps + 2
    assert all(e["r_hit"] is None for e in steps if e["outcome"] == "survive")
    assert "trace" not in res.to_report_dict()


SYNTHETIC_B0 = 1.2345678901234567


def _synthetic_search(monkeypatch, lower, scale, brentq=None):
    """Run the FastFast search (r_stop = 1e4) on synthetic shots.

    A shot at b hits zero in u where lower(b) holds and in v elsewhere, at
    r_hit = scale |b - SYNTHETIC_B0|^{-1/k} with k = 3, the law the misfit
    assumes; it survives where r_hit reaches r_stop.  Each synthetic shot
    has one step.  The sampled shot is recorded and stood in for by a real
    shot near the FastFast separatrix, so that the fits have a profile to
    read.  brentq, when given, stands in for _brentq.  Returns the result,
    the integrated b in shot order, the sampled b and the synthetic outcome.
    """
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e4))
    real = shoot(FASTFAST, 1.0, 1.0528731851723776, cfg.shoot)
    classified, sampled = [], []

    def synthetic(params, a, b, r_stop):
        distance = abs(b - SYNTHETIC_B0)
        r_hit = scale * distance ** (-1.0 / 3.0) if distance > 0.0 else math.inf
        if r_hit >= r_stop:
            return None, r_stop
        return ("u" if lower(b) else "v", r_hit), r_hit

    def integrate(params, a, b, r_stop):
        classified.append(b)
        event, reach = synthetic(params, a, b, r_stop)
        return SimpleNamespace(b=b, event=event, r=np.array([reach]), s=[None, None], evaluations=0)

    def sample(shot):
        sampled.append(shot.b)
        return real

    monkeypatch.setattr(quasilinear, "_integrate", integrate)
    monkeypatch.setattr(quasilinear, "_sample", sample)
    if brentq is not None:
        monkeypatch.setattr(quasilinear, "_brentq", brentq)
    res = find_fast_ground_state(FASTFAST, cfg)

    def outcome(b):
        return _outcome(synthetic(FASTFAST, cfg.a, b, cfg.shoot.r_stop)[0])

    return res, classified, sampled, outcome


def test_search_on_a_monotone_class_ends_on_the_full_bisection_b_star(monkeypatch):
    # u below SYNTHETIC_B0, v above, survivors within 1e-12 of it: the class
    # (u or not) is monotone, so the search ends on the adjacent doubles
    # that a full-depth bisection from the bracket ends on, to the bit
    res, classified, sampled, outcome = _synthetic_search(
        monkeypatch, lambda b: b < SYNTHETIC_B0, 1.0
    )
    lo, hi = GroundStateConfig().bracket
    c_lo = outcome(lo)
    while math.sqrt(lo * hi) not in (lo, hi):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if outcome(mid) == c_lo else (lo, mid)
    assert res.trace[0]["b_star"] == math.sqrt(lo * hi)
    assert len(set(classified)) == len(classified)
    # every survivor reaches r_stop; the one sampled is the nearest to b_star
    assert outcome(hi) == "survive" and outcome(lo) == "hit_u"
    assert sampled == [hi]


def test_search_across_an_alternating_band_ends_on_a_sign_change(monkeypatch):
    # within 8 ulps of SYNTHETIC_B0 the outcome alternates from one double to
    # the next; the search still ends on adjacent doubles of different
    # class, classifies no b twice and samples the farthest classified shot
    ulp = math.ulp(SYNTHETIC_B0)

    def lower(b):
        i = round((b - SYNTHETIC_B0) / ulp)
        return i % 2 == 0 if abs(i) <= 8 else b < SYNTHETIC_B0

    res, classified, sampled, outcome = _synthetic_search(monkeypatch, lower, 1e-3)
    assert len(set(classified)) == len(classified)
    b_star = res.trace[0]["b_star"]
    assert abs(b_star - SYNTHETIC_B0) <= 9 * ulp
    entry = {e["b"]: e for e in res.trace[1:]}
    assert b_star in entry
    adjacent = [b for b in entry if b != b_star and np.nextafter(b, b_star) == b_star]
    assert any(
        (entry[b]["outcome"] == "hit_u") != (entry[b_star]["outcome"] == "hit_u")
        for b in adjacent
    )
    assert "bisect" in [e["phase"] for e in res.trace[1:]]
    farthest = max(e["r_reached"] for e in entry.values())
    nearest = min(
        (b for b, e in entry.items() if e["r_reached"] == farthest),
        key=lambda b: abs(math.log(b / b_star)),
    )
    assert sampled == [nearest]


def test_bisection_keeps_a_reversed_sign_change(monkeypatch):
    # a stand-in for Brent's method leaves the tightest sign change reversed:
    # its lower end classifies as the bracket's upper end.  Each midpoint must
    # replace the end whose class it shares, not the end c_lo names.  The
    # class is reversed within 20 ulps of SYNTHETIC_B0: v below it, u above.
    ulp = math.ulp(SYNTHETIC_B0)

    def lower(b):
        return (b < SYNTHETIC_B0) != (abs(b - SYNTHETIC_B0) <= 20 * ulp)

    def two_iterates(f, a, b, *args):
        for i in (-7, 6):
            f(math.log(SYNTHETIC_B0 + i * ulp))

    res, classified, _, _ = _synthetic_search(monkeypatch, lower, 1e-3, two_iterates)
    entries = res.trace[1:]
    # the bracket's ends and midpoint, then the stand-in's two iterates
    assert [e["phase"] for e in entries[:5]] == ["bracket"] * 3 + ["brent"] * 2
    assert [e["outcome"] for e in entries[3:5]] == ["hit_v", "hit_u"]  # b rising
    assert entries[3]["b"] < entries[4]["b"]
    assert len(set(classified)) == len(classified) > 5
    b_star = res.trace[0]["b_star"]
    assert entries[3]["b"] <= b_star <= entries[4]["b"]
    entry = {e["b"]: e for e in entries}
    adjacent = [b for b in entry if b != b_star and np.nextafter(b, b_star) == b_star]
    assert any(
        (entry[b]["outcome"] == "hit_u") != (entry[b_star]["outcome"] == "hit_u")
        for b in adjacent
    )


def test_search_integrates_each_classified_shot_once(monkeypatch):
    # one integration per classified shot and none more: the profiles are
    # sampled from the farthest shot's own kept steps
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e3), final_r_stop=1e3)
    integrated, sampled = _counting(monkeypatch)
    res = find_fast_ground_state(FASTFAST, cfg)
    assert integrated == [(e["b"], 1e3) for e in res.trace[1:]]
    assert res.iterations == len(integrated)
    assert len(sampled) == 1 and sampled[0] in integrated


def test_final_shot_made_when_final_r_stop_differs(monkeypatch):
    params = FASTFAST
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e4), final_r_stop=1e5)
    integrated, sampled = _counting(monkeypatch)
    res = find_fast_ground_state(params, cfg)
    b_star = res.trace[0]["b_star"]
    # b_star is integrated once more, to 1e5, after every classified shot to
    # 1e4, and sampled; if that shot hits zero short of the bisection's
    # farthest reach, the farthest shot is sampled off its kept steps too,
    # with no further integration.  Here b_star's shot falls short.
    entries = res.trace[1:]
    classified = [(e["b"], 1e4) for e in entries]
    assert integrated == classified + [(b_star, 1e5)]
    assert b_star in [b for b, _ in classified]  # re-shot to the farther radius
    farthest = max(e["r_reached"] for e in entries)
    b_far = min(
        (e["b"] for e in entries if e["r_reached"] == farthest),
        key=lambda b: abs(math.log(b / b_star)),
    )
    assert sampled == [(b_star, 1e5), (b_far, 1e4)]
    assert res.trace[0]["r_reached"] == farthest
    assert res.iterations == len(integrated)


def test_final_r_stop_adds_one_counted_shot(monkeypatch):
    # on the Logarithmic tuple, shot to r_stop = 1e3: a final_r_stop of 1e5
    # adds b_star's shot to 1e5 to the classified shots and to `iterations`,
    # and the sample reaches no less far than the farthest classified shot;
    # an equal final_r_stop makes no extra shot
    params = Parameters(5, 1.0, 2.0, 5 / 3, 31 / 9, 0.0, 0.0)
    integrated, _ = _counting(monkeypatch)
    res = find_fast_ground_state(params, GroundStateConfig(shoot=ShootConfig(r_stop=1e3), final_r_stop=1e5))
    classified = len(res.trace) - 1
    assert res.iterations == classified + 1 == len(integrated)
    assert integrated[-1] == (res.trace[0]["b_star"], 1e5)
    assert res.trace[0]["r_reached"] >= max(e["r_reached"] for e in res.trace[1:])
    equal = find_fast_ground_state(params, GroundStateConfig(shoot=ShootConfig(r_stop=1e3), final_r_stop=1e3))
    assert equal.iterations == len(equal.trace) - 1 == classified


def test_import_leaves_scipy_integrate_unloaded():
    # the package loads neither scipy.integrate nor scipy.optimize: shots run
    # on quasilinear's own DOP853 and Brent root finder
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = (
        "import sys, wolffkit\n"
        "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "n, gamma, sigma",
    [(3, 2.0, -0.5), (5, 2.0, -0.5), (5, 2.0, -1.0), (3, 1.6, -0.5), (5, 1.8, -0.8)],
)
def test_shoot_matches_hardy_weight_exact_family(n, gamma, sigma):
    # U = (1 + r^{(gamma+sigma)/(gamma-1)})^{-(n-gamma)/(gamma+sigma)} solves
    # -Delta_gamma U = K r^sigma U^{p*}, so u(0) U solves the shooter's
    # unit-coefficient system with u(0) = v(0) = K^{1/(p* - gamma + 1)}
    # (Ghoussoub & Yuan, Trans. AMS 352, 2000); measured 3.4e-11 to 2.7e-7
    p_star = gamma * (n + sigma) / (n - gamma) - 1.0
    k = (n + sigma) * ((n - gamma) / (gamma - 1.0)) ** (gamma - 1.0)
    u0 = k ** (1.0 / (p_star - gamma + 1.0))
    params = Parameters(n, 1.0, gamma, p_star, p_star, sigma, sigma)
    traj = shoot(params, u0, u0, ShootConfig(r_stop=1e4))
    exact = u0 * (1.0 + traj.r ** ((gamma + sigma) / (gamma - 1.0))) ** (
        -(n - gamma) / (gamma + sigma)
    )
    keep = exact > 1e-8 * u0
    assert traj.event is None and keep.sum() > 100
    assert np.max(np.abs(traj.u[keep] / exact[keep] - 1.0)) <= 1e-6
    assert np.max(np.abs(traj.v[keep] / exact[keep] - 1.0)) <= 1e-6


@pytest.mark.parametrize(
    "params, v_rate, v_log",
    [
        (Parameters(5, 1.0, 2.0, 1.5, 2.75, -0.5, -0.5), 3.0, 1.0),  # Logarithmic
        (Parameters(5, 1.0, 2.0, 1.3, 3.3125, -0.5, -0.5), 2.4, 0.0),  # Intermediate
    ],
)
def test_singular_weight_separatrix_rates(params, v_rate, v_log):
    # sigma1 = sigma2 = -0.5 through the separatrix search; criterion-7 bounds
    report = classify_regime(params)
    assert report.predicted_v_exponent == pytest.approx(v_rate)
    assert report.v_log_power == v_log
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e6), final_r_stop=1e6)
    res = find_fast_ground_state(params, cfg)
    assert res.converged
    assert res.rate_u.exponent == pytest.approx(3.0, rel=0.05)
    assert res.rate_v.exponent == pytest.approx(v_rate, rel=0.05)
    assert res.rate_v.log_power == pytest.approx(v_log, abs=0.3)
