import gc
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

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
    # measured: spread 1.00086, median * s_{n-1} = 1.00197
    assert k1.max() / k1.min() <= 1.005
    assert np.median(k1) == pytest.approx(1.0 / sphere_surface(params.n), rel=5e-3)


FASTFAST = Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0)
INTERMEDIATE = Parameters(5, 1.0, 2.0, 1.4, 49 / 11, 0.0, 0.0)


@pytest.fixture(scope="module")
def full_depth_bisection():
    """The FastFast bisection at r_stop = 1e4 run to full depth with sampled shots.

    It keeps re-shooting an endpoint once lo and hi are adjacent doubles.
    Returns the config, every shot by b, b_star, the b of the reference final
    trajectory (b_star unless a shot of the path reached farther) and that
    trajectory.
    """
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e4))
    lo, hi = cfg.bracket
    shots = {b: shoot(FASTFAST, cfg.a, b, cfg.shoot) for b in (lo, hi)}
    c_lo = _outcome(shots[lo].event)
    best = lo if shots[lo].r_reached >= shots[hi].r_reached else hi
    for _ in range(quasilinear.MAX_SHOTS):
        mid = math.sqrt(lo * hi)
        t_mid = shots[mid] = shoot(FASTFAST, cfg.a, mid, cfg.shoot)
        if t_mid.r_reached >= shots[best].r_reached:
            best = mid
        if _outcome(t_mid.event) == c_lo:
            lo = mid
        else:
            hi = mid
    b_star = math.sqrt(lo * hi)
    b_final = b_star
    final = shoot(FASTFAST, cfg.a, b_star, cfg.shoot)
    if final.r_reached < shots[best].r_reached:
        b_final, final = best, shots[best]
    return cfg, shots, b_star, b_final, final


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
    # tolerance 0: the unsampled classification reads the outcome, reach and
    # step count that the sampled shot reports, at every b of the bisection
    cfg, shots, _, _, final = full_depth_bisection
    for b, t in shots.items():
        assert quasilinear._classify(FASTFAST, cfg.a, b, cfg.shoot.r_stop) == (
            t.event,
            t.r_reached,
            t.steps,
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
    assert traj.steps == 0
    assert quasilinear._classify(INTERMEDIATE, 1.0, 200.0, 1e4) == (
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
        quasilinear._classify(params, 1.0, 1e4, 1e8)
    # one decade lower the start is finite (and already non-positive in u)
    traj = shoot(params, 1.0, 1e3, ShootConfig(r_stop=1e2))
    assert np.isfinite(traj.u[0]) and traj.event == ("u", quasilinear.R_START)


def test_gamma_near_one_stays_in_float_range():
    # at gamma = 1.05, r^{(gamma-n)/(gamma-1)} = 1e291 at R_START and
    # (-m_u)^{1/(gamma-1)} underflows; their product, (r|u'|)^{gamma-1}
    # raised to 1/(gamma-1), is in range
    params = Parameters(5, 1.0, 1.05, 1.2, 9.0, 0.0, -0.5)
    for b in (1.0, 0.01):
        traj = shoot(params, 1.0, b, ShootConfig(r_stop=1e3))
        assert traj.event is not None and traj.steps > 0
        assert quasilinear._classify(params, 1.0, b, 1e3) == (
            traj.event,
            traj.r_reached,
            traj.steps,
        )
        for y in (traj.u, traj.v, traj.flux_u, traj.flux_v):
            assert np.all(np.isfinite(y)) and np.all(np.diff(y) <= 0.0)


def test_rhs_overflow_is_a_parameter_error_naming_gamma(monkeypatch):
    # an exception raised in the compiled solver's callback would crash the
    # process; the engine reports it once the solver has stopped
    flux_form = quasilinear._rhs

    def overflowing(params):
        rhs = flux_form(params)

        def past_one(s, y):
            if s > 0.0:
                raise OverflowError("math range error")
            return rhs(s, y)

        return past_one

    monkeypatch.setattr(quasilinear, "_rhs", overflowing)
    with pytest.raises(ParameterError, match=r"range at r = 1 .*gamma = 2\.0"):
        shoot(FASTFAST, 1.0, 1.0, ShootConfig(r_stop=1e2))
    with pytest.raises(ParameterError, match=r"gamma = 2\.0"):
        quasilinear._classify(FASTFAST, 1.0, 1.0, 1e2)
    monkeypatch.undo()
    assert quasilinear._classify(FASTFAST, 1.0, 1.0, 1e2)[2] > 0  # the engine still works


def test_integration_failure_is_a_parameter_error_without_warning(monkeypatch):
    # a solver built with a 5-step cap fails with scipy's istate -2
    monkeypatch.setattr(quasilinear, "_solver", None)
    monkeypatch.setattr(quasilinear, "MAX_STEPS", 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="larger nsteps is needed"):
            shoot(FASTFAST, 1.0, 1.0, ShootConfig(r_stop=1e2))


def test_shots_leave_no_memory_behind():
    # scipy's dop853 wrapper keeps references to the callbacks of every run;
    # the engine's callbacks are module functions, so the shots' step lists
    # are freed.  Shots at v(0) near 100 hit zero after about 50 steps, with
    # a dozen side integrations for the event root.  Measured growth: 1.2 kB;
    # 2.8 MB with callbacks made per shot, and 53 kB with the integrator's
    # own bound _solout, a new object on every run.
    quasilinear._classify(INTERMEDIATE, 1.0, 100.0, 1e4)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(200):
            event, _, steps = quasilinear._classify(INTERMEDIATE, 1.0, 100.0 + 0.01 * k, 1e4)
            assert event[0] == "u" and steps > 0
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 20_000


def test_threads_share_the_engine_one_shot_at_a_time():
    # one solver serves the process; with more threads than cores and a
    # short switch interval, every classified and sampled shot equals the
    # same shot made alone
    cases = [(FASTFAST, 0.5), (FASTFAST, 0.75), (FASTFAST, 1.0)]
    cases += [(INTERMEDIATE, 0.3), (INTERMEDIATE, 0.6)]
    alone = [shoot(params, 1.0, b, ShootConfig(r_stop=1e3)) for params, b in cases]
    got, errors = {}, []

    def worker(i):
        params, b = cases[i]
        try:
            for _ in range(3):
                classified = quasilinear._classify(params, 1.0, b, 1e3)
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
    cfg, _, b_star, b_final, final = full_depth_bisection
    classified, sampled = _counting(monkeypatch)
    res = find_fast_ground_state(params, cfg)
    # no b is classified twice, and exactly one trajectory is sampled: the
    # full-depth bisection's farthest shot (b_star unless a shot of its path
    # reached farther), which the search has classified.  The search
    # classifies 35 shots here; bisection on the outcome class alone
    # classifies 57.
    shots = [b for b, _ in classified]
    assert len(set(shots)) == len(shots) <= 40
    assert b_star in shots and b_final in shots
    assert sampled == [(b_final, cfg.shoot.r_stop)]
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


def test_trace_records_each_classified_shot(monkeypatch):
    cfg = GroundStateConfig(shoot=ShootConfig(r_stop=1e3))
    classified, _ = _counting(monkeypatch)
    res = find_fast_ground_state(FASTFAST, cfg)
    steps = res.trace[1:]
    assert [(e["b"], cfg.shoot.r_stop) for e in steps] == classified
    assert set(res.trace[0]) == {"b_star", "r_reached", "log_scale"}
    # the search ends on adjacent doubles, one of them b_star: some shot
    # adjacent to b_star classifies differently
    entry = {e["b"]: e for e in steps}
    b_star = res.trace[0]["b_star"]
    adjacent = [b for b in entry if b != b_star and np.nextafter(b, b_star) == b_star]
    assert any(entry[b]["outcome"] != entry[b_star]["outcome"] for b in adjacent)
    # r_hit is the event radius that the search read, None for a survivor;
    # steps counts the shot's accepted DOP853 steps
    for b in [b_star] + adjacent:
        event, reach, n_steps = quasilinear._classify(FASTFAST, cfg.a, b, cfg.shoot.r_stop)
        assert entry[b]["r_hit"] == (None if event is None else event[1])
        assert entry[b]["r_reached"] == reach
        assert entry[b]["steps"] == n_steps > 0
    assert all(e["r_hit"] is None for e in steps if e["outcome"] == "survive")
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


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate (and the scipy.special and scipy.optimize it loads) is
    # imported on the first shot, not by the package
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
    # (Ghoussoub & Yuan, Trans. AMS 352, 2000); measured 2.1e-11 to 1.7e-7
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
