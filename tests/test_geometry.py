import math
import sys
import threading

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.special import beta, betainc, factorial, poch
from hypothesis import given, settings
from hypothesis import strategies as st

from wolffkit import geometry
from wolffkit.errors import DivergentIntegralError, ParameterError
from wolffkit.geometry import CapKernel, ball_mass, ball_mass_batch, cap_fraction
from wolffkit.params import Parameters
from wolffkit.potential import wolff_eval
from wolffkit.radial import LruStore, RadialFunction, RadialGrid, unit_ball_volume
from wolffkit.solver import SolveConfig, default_solver_grid, make_ansatz, potential_images

from conftest import clear_stores, indicator_of_ball, power_tail_profile
from lens_oracle import ball_mass as oracle_ball_mass


def test_cap_fraction_concentric():
    k = CapKernel(3)
    assert cap_fraction(k, 0.0, 1.0, 0.5) == 1.0
    assert cap_fraction(k, 0.0, 1.0, 1.5) == 0.0


def test_cap_fraction_full_and_empty_regions():
    k = CapKernel(4)
    assert cap_fraction(k, 1.0, 3.0, 1.5) == 1.0  # r <= t - rho
    assert cap_fraction(k, 5.0, 1.0, 2.0) == 0.0  # |rho - r| >= t
    assert cap_fraction(k, 1.0, 1.0, 3.0) == 0.0  # r >= t + rho


def test_cap_fraction_three_dimensional_closed_form():
    k = CapKernel(3)
    # cos(theta*) = (rho^2 + r^2 - t^2)/(2 rho r); fraction = (1 - cos)/2
    assert cap_fraction(k, 1.0, 1.0, 1.0) == pytest.approx(0.25, rel=1e-14)
    for rho, t, r in [(1.0, 1.2, 0.9), (2.0, 1.5, 1.0), (0.7, 0.9, 1.4)]:
        c = (rho * rho + r * r - t * t) / (2 * rho * r)
        if -1 < c < 1:
            assert cap_fraction(k, rho, t, r) == pytest.approx((1 - c) / 2, rel=1e-12)


def test_cap_fraction_monte_carlo_oracle_four_dimensions():
    # independent oracle: uniform points on S^3 of radius r, count inside B_t(x)
    rho, t, r = 1.0, 1.2, 0.9
    rng = np.random.default_rng(42)
    inside = 0
    total = 4_000_000
    for _ in range(4):
        pts = rng.normal(size=(total // 4, 4))
        pts *= r / np.linalg.norm(pts, axis=1, keepdims=True)
        pts[:, 0] -= rho
        inside += int(np.count_nonzero(np.linalg.norm(pts, axis=1) < t))
    frac_mc = inside / total
    sigma = math.sqrt(frac_mc * (1 - frac_mc) / total)
    got = cap_fraction(CapKernel(4), rho, t, r)
    assert abs(got - frac_mc) < 4 * sigma


def _beta_oracle_points():
    """x from 1e-300 to 1, dense on both sides of the even-n series switch."""
    s = geometry._SERIES_SWITCH
    near = s * (1.0 + np.array([-1e-3, -1e-9, 0.0, 1e-9, 1e-3]))
    edges = [0.0, np.nextafter(s, 0.0), np.nextafter(s, 1.0), np.nextafter(1.0, 0.0), 1.0]
    return np.concatenate([np.geomspace(1e-300, 1.0, 3001), np.linspace(0.0, 1.0, 2001), near, edges])


@pytest.mark.parametrize("n", range(3, 11))
def test_closed_form_cap_measure_matches_betainc(n):
    # scipy's betainc is the independent oracle of I_x((n-1)/2, 1/2); below the
    # smallest normal double only absolute rounding is left
    x = _beta_oracle_points()
    got = geometry._regularized_beta(n, x)
    want = betainc((n - 1) / 2.0, 0.5, x)
    assert np.all(np.abs(got - want) <= 1e-12 * want + np.finfo(float).tiny)


@pytest.mark.parametrize("n", range(3, 11))
def test_closed_form_coefficients_match_gamma_functions(n):
    # the series terms past the first few weigh too little below the switch
    # for the betainc comparison to see them; check every coefficient itself
    m = (n - 1) // 2
    first, second = geometry._beta_coefficients(n)
    k = np.arange(second.size)
    if n % 2:
        assert np.allclose(second, poch(0.5, k) / factorial(k), rtol=1e-15, atol=0.0)  # P
        # 1 - (1-x) P^2 = x^m R, term by term
        lhs = P.polysub([1.0], P.polymul([1.0, -1.0], P.polymul(second, second)))
        assert np.allclose(lhs, np.concatenate([np.zeros(m), first]), rtol=0.0, atol=1e-15)
        assert first.size == m
    else:
        a = m + 0.5
        j = np.arange(m)
        assert np.allclose(first, math.pi / (2.0 * (j + 0.5) * beta(j + 0.5, 0.5)), rtol=1e-14, atol=0.0)
        want = poch(0.5, k) / (beta(a, 0.5) * (a + k) * factorial(k))
        assert np.allclose(second, want, rtol=1e-14, atol=0.0)
        assert want[-1] * geometry._SERIES_SWITCH ** k[-1] < 1e-16 * want[0]


@pytest.mark.parametrize("n", range(3, 11))
def test_cap_fraction_matches_betainc_on_partial_shells(n):
    rng = np.random.default_rng(n)
    rho = rng.uniform(0.01, 10.0, 4000)
    t = rng.uniform(0.01, 10.0, 4000)
    a, b = np.abs(t - rho), t + rho
    r = a + rng.uniform(0.0, 1.0, 4000) * (b - a)
    inside = (r > a) & (r < b)
    rho, t, r = rho[inside], t[inside], r[inside]
    x = np.clip((t**2 - (rho - r) ** 2) * ((rho + r) ** 2 - t**2) / (2.0 * rho * r) ** 2, 0.0, 1.0)
    half = 0.5 * betainc((n - 1) / 2.0, 0.5, x)
    want = np.where(rho**2 + r**2 >= t**2, half, 1.0 - half)
    got = cap_fraction(CapKernel(n), rho, t, r)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@given(
    st.integers(min_value=3, max_value=10),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_cap_fraction_nondecreasing_in_t(n, rho, r):
    k = CapKernel(n)
    ts = np.linspace(0.05, rho + r + 1.0, 60)
    vals = cap_fraction(k, rho, ts, r)
    assert np.all(np.diff(vals) >= -1e-12)


def test_cap_fraction_continuous_across_boundaries():
    k = CapKernel(5)
    rho, t = 1.0, 1.3
    for edge in (abs(t - rho), t + rho):
        eps = np.array([-1e-6, -1e-9, 1e-9, 1e-6])
        vals = cap_fraction(k, rho, t, edge + eps)
        assert np.max(np.abs(np.diff(vals))) < 1e-3


def test_cap_fraction_input_validation():
    k = CapKernel(3)
    with pytest.raises(ParameterError):
        cap_fraction(k, 1.0, -1.0, 1.0)
    with pytest.raises(ParameterError):
        cap_fraction(k, 1.0, 1.0, 0.0)
    with pytest.raises(ParameterError):
        CapKernel(2)


def test_ball_mass_full_containment(unit_indicator):
    for n in (3, 4, 5, 6):
        got = ball_mass(CapKernel(n), unit_indicator, 0.0, 2.0)
        assert got == pytest.approx(unit_ball_volume(n), rel=1e-12)


def test_ball_mass_concentric_sub_ball(unit_indicator):
    got = ball_mass(CapKernel(3), unit_indicator, 0.0, 0.5)
    assert got == pytest.approx(unit_ball_volume(3) * 0.5**3, rel=1e-12)


def test_ball_mass_two_unit_ball_lens(unit_indicator):
    # closed-form lens volume: pi (4R + d)(2R - d)^2 / 12 at R = d = 1
    got = ball_mass(CapKernel(3), unit_indicator, 1.0, 1.0)
    assert got == pytest.approx(5 * math.pi / 12, rel=1e-9)


def test_ball_mass_uniform_profile_random_batch():
    grid = RadialGrid.per_decade(1e-2, 1e3, 16)
    ones = RadialFunction(grid, np.ones(grid.count), tail_exponent=math.inf)
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        rho = float(rng.uniform(0.0, 5.0))
        t = float(rng.uniform(0.1, 5.0))
        got = ball_mass(CapKernel(n), ones, rho, t)
        assert got == pytest.approx(unit_ball_volume(n) * t**n, rel=1e-6)


def test_ball_mass_monotone_in_density():
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    f = power_tail_profile(grid, 1.0, 7.0)
    g = f.with_values(f.values * (1.0 + 0.3 * np.sin(np.log(grid.points)) ** 2))
    k = CapKernel(4)
    for rho, t in [(0.0, 1.0), (2.0, 1.5), (10.0, 3.0)]:
        assert ball_mass(k, f, rho, t) <= ball_mass(k, g, rho, t) * (1 + 1e-12)


def test_ball_mass_batch_matches_scalar():
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    f = power_tail_profile(grid, 1.0, 6.0)
    k = CapKernel(5)
    ts = np.geomspace(0.05, 30.0, 17)
    batch = ball_mass_batch(k, f, 1.3, ts)
    singles = np.array([ball_mass(k, f, 1.3, float(t)) for t in ts])
    assert np.allclose(batch, singles, rtol=1e-13)


def _lens_volume(n, R, d, t):
    """Volume of B_R(0) n B_t(x), |x| = d, as two hyperspherical-cap volumes."""
    unit = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    if d >= R + t:
        return 0.0
    if d <= abs(R - t):
        return unit * min(R, t) ** n

    def cap(a, c):  # volume of {y in B_a : y_1 > c}, |c| <= a
        half = 0.5 * unit * a**n * betainc((n + 1) / 2, 0.5, 1.0 - (c / a) ** 2)
        return half if c >= 0.0 else unit * a**n - half

    c = (d * d + R * R - t * t) / (2.0 * d)
    return cap(R, c) + cap(t, d - c)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ball_mass_batch_lens_volume_oracle(n):
    # uniform density cut off at R: the mass over B_t(x) is the lens volume;
    # t = rho starts the shell at r -> 0, whose wide pieces get subdivided
    R = 1.5
    grid = RadialGrid.per_decade(R / 1000.0, R, 16)
    ones = RadialFunction(grid, np.ones(grid.count), tail_exponent=math.inf)
    k = CapKernel(n)
    cases = [
        (0.8, [0.3, 0.8, 1.2, 2.0]),  # t < rho, t = rho, t > rho
        (1e-3, [5e-4, 1e-3, 0.5, 1.49]),  # rho << R
        (0.5, [10.0, 1e3]),  # t >> R
        (5.0, [4.0, 5.0, 6.0]),  # centre outside the support
        (100.0, [99.0, 100.0, 100.5, 101.4]),  # rho, t >> R
    ]
    for rho, ts in cases:
        got = ball_mass_batch(k, ones, rho, np.array(ts))
        want = np.array([_lens_volume(n, R, rho, t) for t in ts])
        assert np.allclose(got, want, rtol=1e-9, atol=0.0), (rho, ts)


# the largest error measured against the oracle on the cases below was
# 2.2e-4 (the bump on the grid x 3, n = 5): quadrature across the kinks of
# the (ln r, ln f) interpolant, where quad_boundaries merges cells
KINKED_MASS_RTOL = 3e-4


@pytest.mark.parametrize("n", [3, 5])
def test_ball_mass_batch_against_independent_quadrature(n, oracles):
    # the oracle integrates the cap fraction from betainc against the
    # benchmark's own profile evaluator with adaptive quad, split at every
    # grid point; grids x 4 (which shares the base grid's plans) and x 3
    # (which does not)
    profiles = [
        power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 9.0),  # bump
        power_tail_profile(RadialGrid.per_decade(1e-2, 1e1, 16), 1.0, 7.0),
    ]
    k = CapKernel(n)
    for f in profiles:
        for lam in (1.0, 4.0, 3.0):
            g = f.dilate(1.0 / lam)
            for rho in (0.3 * lam, 2.0 * lam):
                ts = np.array([0.1, 1.0, 2.5, 10.0]) * lam
                got = ball_mass_batch(k, g, rho, ts)
                want = [oracle_ball_mass(oracles.Profile.of(g), n, rho, t) for t in ts]
                assert np.max(np.abs(got / want - 1.0)) <= KINKED_MASS_RTOL
    # on a power law the interpolant has no kinks, and the two agree to
    # rounding (8e-14 measured)
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    power = RadialFunction(grid, grid.points**-2.0, head_exponent=2.0, tail_exponent=2.0)
    ts = np.array([0.1, 1.0, 2.5, 10.0])
    got = ball_mass_batch(k, power, 2.0, ts)
    want = [oracle_ball_mass(oracles.Profile.of(power), n, 2.0, t) for t in ts]
    assert np.max(np.abs(got / want - 1.0)) <= 1e-12


@pytest.mark.parametrize("n", [3, 5])
def test_log_tail_shells_match_independent_quadrature(n, oracles):
    # shells wholly beyond r_max read the log-corrected tail model alone, a
    # smooth integrand: masses from the plan's tail nodes and kept tail logs
    # agree with the oracle's own tail evaluation to rounding (2.1e-15
    # measured); without the log factor they would be off by ~30 %
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    r = grid.points
    f = RadialFunction(grid, (1.0 + r**2) ** -3 * (1.0 + np.log1p(r)), tail_exponent=6.0, tail_log_power=1.0)
    ts = np.array([50.0, 150.0, 250.0])
    got = ball_mass_batch(CapKernel(n), f, 400.0, ts)
    want = [oracle_ball_mass(oracles.Profile.of(f), n, 400.0, t) for t in ts]
    assert np.max(np.abs(got / want - 1.0)) <= 1e-12


def test_power_of_two_dilation_shares_plans_down_to_tiny_radii():
    # masses scale as lam^-n under a dilation by 1/lam; at r_min ~ 1e-30 and
    # n = 6 the kernel weights are ~1e-180, still normal, and the masses keep
    # that homogeneity to rounding
    k = CapKernel(6)
    f = power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 9.0)
    tiny = RadialFunction(RadialGrid(f.grid.points * 2.0**-93), f.values, tail_exponent=9.0)
    assert 1e-30 < tiny.grid.r_min < 1.1e-30
    ts = np.geomspace(1e-3, 1e3, 50)
    base = ball_mass_batch(k, f, 0.7, ts)
    got = ball_mass_batch(k, tiny, 0.7 * 2.0**-93, ts * 2.0**-93)
    assert np.all(got > 0.0)
    assert np.max(np.abs(got / (base * 2.0 ** (-93 * 6)) - 1.0)) <= 1e-13


def test_kernel_weights_out_of_range_raise():
    # r^5 on a grid at 1e200 overflows for n = 6: an error, not inf masses,
    # from nodes built per call and, for a smooth source in balls that
    # cover no shell whole, from the plan's rho^n
    grid = RadialGrid.per_decade(1e200, 1e202, 16)
    huge = RadialFunction(grid, np.ones(grid.count), tail_exponent=math.inf)
    with pytest.raises(ParameterError, match="floating-point range"):
        ball_mass_batch(CapKernel(6), huge, 3e202, np.array([2.5e202]))
    smooth = huge.with_values(huge.values, tail_exponent=9.0)
    with pytest.raises(ParameterError, match="rho = 3e\\+202 leave the floating-point range"):
        _shared_masses(CapKernel(6), smooth, 3e202, np.geomspace(1e-3, 0.5, 20))


def test_ball_mass_divergent_head_error():
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    f = RadialFunction(grid, grid.points**-5.0, head_exponent=5.0, tail_exponent=5.0)
    with pytest.raises(DivergentIntegralError):
        ball_mass(CapKernel(4), f, 0.5, 1.0)
    # away from the origin the mass is finite
    assert ball_mass(CapKernel(4), f, 10.0, 1.0) > 0.0


def test_indicator_shifted_center_matches_quadrature():
    # mass of indicator of B_1 over B_t(x): compare against the cap integral
    # computed with an independent trapezoid rule on a fine grid
    ind = indicator_of_ball(1.0)
    k = CapKernel(4)
    rho, t = 0.8, 0.7
    r = np.linspace(1e-6, min(1.0, t + rho), 40001)
    frac = cap_fraction(k, rho, t, r)
    oracle = np.trapezoid(frac * r**3, r) * k.surface
    assert ball_mass(k, ind, rho, t) == pytest.approx(oracle, rel=1e-6)


# -- reference plans and kept masses -------------------------------------


def _shared_masses(k, f, rho, tau):
    """ball_mass_batch on the shared path: the reference plan of f's grid
    step for the relative radii tau, at t = rho tau."""
    plan = geometry.reference_plan(k, f.grid.log_step, tau)
    return ball_mass_batch(k, f, rho, rho * tau, plan=plan)


def _held_bytes(store):
    """A store's bytes: its entries' and, once, each key part they share."""
    return sum(nbytes for _, nbytes in store._items.values()) + sum(len(part) for part in store._holders)


def _store_profiles(n):
    """The five profile kinds: power tail, bump, ball indicator, kinked, log tail."""
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    r = g.points
    return [
        RadialFunction(g, r**-1.0 / (1.0 + r) ** (n + 1), head_exponent=1.0, tail_exponent=n + 2.0),
        power_tail_profile(g, 0.5, n + 3.0),
        indicator_of_ball(1.5),
        RadialFunction(g, np.where(r < 1.0, 1.0, 0.0) + np.where((r > 2) & (r < 5), 0.5, 0.0)),
        RadialFunction(
            g,
            (1.0 + r**2) ** (-(n + 1) / 2) * (1.0 + np.log1p(r)),
            tail_exponent=n + 1.0,
            tail_log_power=1.0,
        ),
    ]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_stored_weights_match_cold_values(n, cap_calls):
    # the reference plan built for f serves another source g of its grid
    # step, on and off the grid points; a source with a jump takes nodes
    # built per call, every call.  Either way warm masses are cold ones
    k = CapKernel(n)
    tau = np.geomspace(1e-3, 1e4, 60)
    for f in _store_profiles(n):
        g = f.with_values(f.values * (1.0 + 0.3 * np.sin(np.log(f.grid.points)) ** 2))
        for rho in (0.3, 1.0, 40.0, float(f.grid.points[20])):
            if f.has_jump:
                masses = lambda source: ball_mass_batch(k, source, rho, rho * tau)
            else:
                masses = lambda source: _shared_masses(k, source, rho, tau)
            clear_stores()
            before = len(cap_calls)
            cold = masses(g)
            cold_calls = len(cap_calls) - before  # none where every shell is empty
            clear_stores()
            masses(f)
            before = len(cap_calls)
            warm = masses(g)
            assert len(cap_calls) - before == (cold_calls if f.has_jump else 0)
            assert np.array_equal(warm, cold)


def test_store_misses_on_changed_dimension_or_truncation(cap_calls):
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    f = power_tail_profile(grid, 1.0, 9.0)
    ts = np.geomspace(1e-2, 1e3, 40)
    variants = [
        (CapKernel(4), f),
        (CapKernel(5), f),  # another dimension
        (CapKernel(5), f.with_values(f.values, tail_exponent=math.inf)),  # hard cut-off
        (CapKernel(5), f.with_values(np.append(f.values[:-1], 0.0))),  # vanishing last value
    ]
    for k, g in variants:
        before = len(cap_calls)
        got = ball_mass_batch(k, g, 2.0, ts)
        assert len(cap_calls) == before + 1
        clear_stores()
        assert np.array_equal(got, ball_mass_batch(k, g, 2.0, ts))


def test_store_stays_under_its_byte_cap(cap_calls, monkeypatch):
    # reference plans and kept masses sit in two least-recently-used stores,
    # each under its byte cap with an exact byte count, and neither hands
    # out an array that can be written; a new source replaces one centre's
    # masses and the other centres keep theirs
    k = CapKernel(3)
    tau = np.geomspace(1e-3, 1e4, 200)
    rhos = np.geomspace(0.1, 10.0, 5)
    plans, masses = geometry._plans, geometry._masses
    # eight grid steps, eight plans
    sources = [power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16 + j), 1.0, 6.0) for j in range(8)]

    def serve(f):
        for rho in rhos:
            _shared_masses(k, f, float(rho), tau)
        for store in (plans, masses):
            assert 0 < store.nbytes == _held_bytes(store) <= store.max_bytes
        assert not any(a.flags.writeable for plan, _ in plans._items.values() for a in plan[3:])
        assert not any(m.flags.writeable for (_, m), _ in masses._items.values())

    for f in sources:
        serve(f)
    assert len(cap_calls) == len(plans._items) == 8
    g = sources[-1].with_values(2.0 * sources[-1].values)
    _shared_masses(k, g, 0.1, tau)
    held = [source for (source, _), _ in masses._items.values()]
    assert held.count(g.source_key) == 1 and held.count(sources[-1].source_key) == 4
    assert masses.nbytes == _held_bytes(masses)
    # under room for three plans the least recently used go first, and a
    # plan built again is the cold plan
    size = max(nbytes for _, nbytes in plans._items.values())
    monkeypatch.setattr(plans, "max_bytes", 3 * size)
    clear_stores()
    first = [_shared_masses(k, sources[0], float(rho), tau) for rho in rhos]
    for j, f in enumerate(sources):
        serve(f)
        assert len(plans._items) == min(j + 1, 3)
    before = len(cap_calls)
    masses.clear()
    again = [_shared_masses(k, sources[0], float(rho), tau) for rho in rhos]
    assert len(cap_calls) == before + 1
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def _grid_switch_sources():
    """A bump on grid A and a ball indicator on grid B, as the inequality battery mixes them."""
    bump = power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 6.0)
    grid_b = RadialGrid.per_decade(1e-2, 1.0, 16)
    ball = RadialFunction(grid_b, np.ones(grid_b.count), head_exponent=0.0, tail_exponent=math.inf)
    return bump, ball


_SWITCH_RHOS = (0.05, 0.2, 0.5, 0.9, 3.0)


def test_switching_back_to_a_grid_builds_nothing(cap_calls):
    # the bump takes the shared path on grid A, the ball indicator (a jump)
    # nodes built per call on grid B; back on A the kept plan serves again
    k = CapKernel(3)
    tau = np.geomspace(1e-3, 1e4, 120)
    bump, ball = _grid_switch_sources()
    for rho in _SWITCH_RHOS:
        _shared_masses(k, bump, rho, tau)
    assert len(cap_calls) == 1
    for rho in _SWITCH_RHOS:
        ball_mass_batch(k, ball, rho, rho * tau)
    assert len(cap_calls) == 1 + len(_SWITCH_RHOS)
    built = geometry.plans_built()
    other = bump.scaled(2.0)  # another source: the kept masses do not answer
    again = [_shared_masses(k, other, rho, tau) for rho in _SWITCH_RHOS]
    assert len(cap_calls) == 1 + len(_SWITCH_RHOS)  # grid A's plan was kept
    assert geometry.plans_built() == built
    clear_stores()
    cold = [_shared_masses(k, other, rho, tau) for rho in _SWITCH_RHOS]
    assert geometry.plans_built() == built + 1
    for a, b in zip(again, cold):
        assert np.array_equal(a, b)


@pytest.fixture
def source_calls(monkeypatch):
    """The evaluations of f per call: RadialFunction.__call__ and a plan's
    nodes off the grid points both end in at_located, a plan's nodes at a
    block of grid points in at_virtual, one row per grid point."""
    calls = []
    at_located, at_virtual = RadialFunction.at_located, RadialFunction.at_virtual

    def counting(self, slot, s):
        calls.append(np.size(s))
        return at_located(self, slot, s)

    def counting_virtual(self, *args):
        out = at_virtual(self, *args)
        calls.append(out.size)
        return out

    monkeypatch.setattr(RadialFunction, "at_located", counting)
    monkeypatch.setattr(RadialFunction, "at_virtual", counting_virtual)
    return calls


def _sums_source():
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    r = grid.points
    return RadialFunction(
        grid, r**-1.0 * (1.0 + r**2) ** -4.0, head_exponent=1.0, tail_exponent=9.0, tail_log_power=0.5
    )


def test_bit_equal_source_reuses_partial_shell_sums(cap_calls, source_calls, monkeypatch):
    # a bit-equal copy in other objects, as weighted_source(0, 1, f) gives:
    # its ball masses come from the stored masses, without evaluating f or
    # its cumulative mass again
    mass_calls = []
    cumulative_mass = RadialFunction.cumulative_mass

    def counting(self, n, x):
        mass_calls.append(np.size(x))
        return cumulative_mass(self, n, x)

    monkeypatch.setattr(RadialFunction, "cumulative_mass", counting)
    k = CapKernel(5)
    f = _sums_source()
    copy = RadialFunction(
        RadialGrid(f.grid.points.copy()), f.values.copy(), f.head_exponent, f.tail_exponent, f.tail_log_power
    )
    ts = np.geomspace(1e-3, 1e4, 120)
    rhos = (0.005, 0.3, 1.0, 40.0)
    first = [ball_mass_batch(k, f, rho, ts) for rho in rhos]
    assert len(cap_calls) == len(source_calls) == len(mass_calls) == len(rhos)
    again = [ball_mass_batch(k, copy, rho, ts) for rho in rhos]
    assert len(cap_calls) == len(source_calls) == len(mass_calls) == len(rhos)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    # a hit hands out a copy: writing to it leaves the stored masses intact
    again[0][:] = -1.0
    assert np.array_equal(ball_mass_batch(k, copy, rhos[0], ts), first[0])
    # a centre the masses do not hold yet still takes one evaluation
    ball_mass_batch(k, copy, 2.0, ts)
    assert len(source_calls) == len(rhos) + 1


def test_changed_source_misses_partial_shell_sums(cap_calls, source_calls):
    k = CapKernel(5)
    f = _sums_source()
    nudged = f.values.copy()
    nudged[40] = np.nextafter(nudged[40], 1.0)
    variants = [
        f.with_values(nudged),
        f.with_values(f.values, head_exponent=1.2),
        f.with_values(f.values, tail_exponent=9.5),
        f.with_values(f.values, tail_log_power=0.0),
    ]
    tau = np.geomspace(1e-3, 1e4, 120)
    # off the grid, below r_min, and on a grid point
    for rho in (0.005, 1.0, float(f.grid.points[40])):
        _shared_masses(k, f, rho, tau)
        for g in variants:
            caps, calls = len(cap_calls), len(source_calls)
            warm = _shared_masses(k, g, rho, tau)
            assert len(cap_calls) == caps == 1  # the plan serves g
            assert len(source_calls) == calls + 1  # f's masses do not
            _shared_masses(k, f, rho, tau)
            assert len(source_calls) == calls + 2  # one source at a time
            geometry._masses.clear()
            assert np.array_equal(warm, _shared_masses(k, g, rho, tau))
            _shared_masses(k, f, rho, tau)


def test_each_centre_keeps_the_masses_of_its_own_last_source(cap_calls, source_calls):
    # two sources on one grid, each served last at its own centre: each
    # centre hands back its own source's masses without evaluating it again
    k = CapKernel(5)
    f = _sums_source()
    g = f.with_values(2.0 * f.values)
    ts = np.geomspace(1e-3, 1e4, 120)
    f_masses = ball_mass_batch(k, f, 0.3, ts)
    g_masses = ball_mass_batch(k, g, 1.0, ts)
    calls = len(source_calls)
    assert np.array_equal(ball_mass_batch(k, f, 0.3, ts), f_masses)
    assert np.array_equal(ball_mass_batch(k, g, 1.0, ts), g_masses)
    assert len(source_calls) == calls and len(cap_calls) == 2


def test_moved_grid_point_misses_the_store(cap_calls, source_calls):
    # a moved point leaves the grid without a log step, so the grid takes
    # nodes built per call, and f's kept masses do not answer for it
    k = CapKernel(5)
    f = _sums_source()
    pts = f.grid.points.copy()
    pts[3] *= 0.99
    moved = RadialFunction(RadialGrid(pts), f.values, f.head_exponent, f.tail_exponent, f.tail_log_power)
    assert f.grid.log_step is not None and moved.grid.log_step is None
    ts = np.geomspace(1e-3, 1e4, 120)
    for rho in (0.005, 1.0):
        ball_mass_batch(k, f, rho, ts)
        caps, calls = len(cap_calls), len(source_calls)
        warm = ball_mass_batch(k, moved, rho, ts)
        assert len(cap_calls) == caps + 1 and len(source_calls) == calls + 1
        clear_stores()
        assert np.array_equal(warm, ball_mass_batch(k, moved, rho, ts))


def test_picard_plans_are_stored_located_under_the_cap(cap_calls):
    # two system-map applications on the solver's default 81-point grid:
    # one reference plan serves every centre of all four maps, and it is
    # served again after its masses are dropped.  Its 15,590 nodes are
    # 7,960 distinct ones: 270 shared by 7,900 node slots, the rest each
    # one shell's own
    params = Parameters(5, 1.0, 2.0, 5 / 3, 31 / 9, 0.0, 0.0)
    cfg = SolveConfig()
    u, v = make_ansatz(params, default_solver_grid())
    first = potential_images(params, u, v, cfg)
    geometry._masses.clear()
    potential_images(params, u, v, cfg)
    assert len(cap_calls) == 1 and u.grid.count == 81
    ((plan, _),) = geometry._plans._items.values()
    assert geometry._plans.nbytes <= 2 * 2**20
    assert plan.cell.size == 7_960 and plan.weights.shape[1] == 270
    assert np.count_nonzero(plan.weights) + plan.kw.size == 15_590
    assert not any(a.flags.writeable for a in plan[3:])
    clear_stores()
    cold = potential_images(params, u, v, cfg)
    for a, b in zip(first, cold):
        assert np.array_equal(a.values, b.values)


def test_centre_with_only_empty_shells_stores_nothing(cap_calls):
    # a truncated source far from the centre: no t leaves a partial shell
    # inside r <= 1, so only the covered mass remains
    ind = indicator_of_ball(1.0)
    k = CapKernel(4)
    ts = np.array([10.0, 50.0, 150.0, 1e3])
    got = ball_mass_batch(k, ind, 100.0, ts)
    assert np.allclose(got, [0.0, 0.0, unit_ball_volume(4), unit_ball_volume(4)], rtol=1e-12)
    assert got[0] == got[1] == 0.0
    assert not cap_calls and geometry._masses.nbytes == geometry._plans.nbytes == 0


def test_store_stress_concurrent_grids_and_centres():
    # more threads than cores, switching often: lookups, puts that replace a
    # centre's masses and the dropping of the least recently used entries
    # interleave on a masses store; a lost update would break the byte
    # count or hand a centre another centre's or another source's masses
    store = LruStore(56 * 40)
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(400):
                grid = int(rng.integers(3))
                centre = int(rng.integers(64))
                source = int(rng.integers(2))
                kept = store.get((grid, centre))
                if kept is not None and not np.all(kept[1] == 1000 * grid + 100 * kept[0] + centre):
                    errors.append((grid, centre))
                store.put((grid, centre), (source, np.full(5, 1000.0 * grid + 100 * source + centre)), 40)
        except Exception as exc:  # surfaced through the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    # the cap holds 56 of the 192 keys: entries were dropped, every entry
    # left is its own key's, and the bytes count exactly
    entries = list(store._items.items())
    assert 0 < len(entries) <= 56
    for (grid, centre), ((source, masses), _) in entries:
        assert np.all(masses == 1000 * grid + 100 * source + centre)
    assert store.nbytes == _held_bytes(store) == 40 * len(entries) <= store.max_bytes


def test_kept_plans_stay_under_two_mib_at_every_resolution(cap_calls):
    # the solver's grid at 16, 32 and 64 points a decade: one reference
    # plan per grid step, well under 2 MiB in all, and a map of a second
    # source builds none
    for npd in (16, 32, 64):
        clear_stores()
        u = power_tail_profile(RadialGrid.per_decade(1e-2, 1e3, npd), 1.0, 3.0)
        before = len(cap_calls)
        wolff_eval(u, 5, 1.0, 2.0)
        built = geometry.plans_built()
        wolff_eval(u.scaled(3.0), 5, 1.0, 2.0)
        assert geometry.plans_built() == built and len(cap_calls) == before + 1
        assert len(geometry._plans._items) == 1 and geometry._plans.nbytes <= 2 * 2**20


def test_masses_keys_share_the_grids_one_points_key():
    # a map keeps one memo entry, keyed by the grid's one points key, the
    # centres and the plan's radii, whose bytes the memo counts exactly:
    # after one map at 64 points a decade it holds the 321 centres' masses
    # and the grid's 2,568 bytes of points once
    clear_stores()
    u = power_tail_profile(RadialGrid.per_decade(1e-2, 1e3, 64), 1.0, 3.0)
    wolff_eval(u, 5, 1.0, 2.0)
    items = geometry._masses._items
    ((key, ((_, masses), nbytes)),) = items.items()
    assert key[1] is u.grid.points_key and key[2] == u.grid.points.tobytes() and masses.shape[0] == 321
    assert nbytes == masses.nbytes + len(key[2]) + len(key[3])
    assert geometry._masses.nbytes == _held_bytes(geometry._masses) == nbytes + u.grid.points.nbytes == nbytes + 2568
    # a second source on the grid hits no kept masses and replaces them;
    # the first source's map again replaces them back, bit for bit
    wolff_eval(u.scaled(3.0), 5, 1.0, 2.0)
    wolff_eval(u, 5, 1.0, 2.0)
    ((again, ((_, kept), _)),) = items.items()
    assert again == key and np.array_equal(kept, masses)
    assert geometry._masses.nbytes == nbytes + u.grid.points.nbytes


def _block_masses(k, f, rhos, plan, centres, monkeypatch):
    """_plan_shells at rhos in blocks of the given number of centres."""
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_BLOCK_BYTES", centres * 8 * plan.cell.size)
        return geometry._plan_shells(k, f, rhos, plan)


def _node_values(f, rho, i, r, step):
    """f at rho times each node r, each node held as its virtual cell j,
    [q^{j-1}, q^j), and its offset s in it.  Off the grid points (i None)
    through RadialFunction.__call__; at the grid point r_i on f's grid
    continued past both ends by its log step, node by node: the node lies in
    slot j + i, whose power law, moved out by whole cells past the grid's
    ends, reads exp((ln v_a - m k step) - m s), and on a log tail
    L log1p(offset / ln r_max) more."""
    below = np.floor(np.log(r) / step)
    s = np.log(r) - below * step
    if i is None:
        return f(rho * np.exp(below * step + s))
    N = f.grid.count
    j = (below + 1 + i).astype(int)
    k = np.clip(j, 0, N)
    m = f._slots["m"][k]
    exponent = (f._slots["log_va"][k] - m * ((j - np.clip(j, 1, N)) * step)) - m * s
    tail = j >= N
    offset = s[tail] + (j[tail] - N) * step
    exponent[tail] += f.tail_log_power * np.log1p(offset / np.log(f.grid.r_max))
    return np.exp(exponent)


@pytest.mark.parametrize("tail", ["plain", "log"])
def test_block_pass_matches_a_sum_over_every_plan_node(tail, monkeypatch):
    # every shell's partial mass from the block pass (distinct nodes, shared
    # sums by one product, owned ones by add.reduceat) against an
    # independent sum: f at rho times every plan node, times its kernel
    # weight, summed shell by shell; at the grid points on the continued
    # grid, node by node.  On the 81
    # grid points and 81 centres between them, in blocks of 1 and of 81
    # centres; a centre's row is the same in either
    params = Parameters(5, 1.0, 2.0, 5 / 3, 31 / 9, 0.0, 0.0)
    u, v = make_ansatz(params, default_solver_grid())
    f = v if tail == "log" else power_tail_profile(u.grid, 1.0, 7.0)
    assert (f.tail_log_power != 0.0) == (tail == "log")
    k, step = CapKernel(5), f.grid.log_step
    tau = np.geomspace(1e-3, 1e3, 97)
    plan = geometry.reference_plan(k, step, tau)
    r, kw, owner = geometry._plan_nodes(k, step, tau)
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    pts = f.grid.points
    for on_grid, rhos in ((True, pts), (False, pts * 10 ** (1 / 32))):
        values = [_node_values(f, rho, i if on_grid else None, r, step) for i, rho in enumerate(rhos)]
        want = np.stack([rho**5 * np.add.reduceat(fr * kw, starts) for rho, fr in zip(rhos, values)])
        alone = _block_masses(k, f, rhos, plan, 1, monkeypatch)
        together = _block_masses(k, f, rhos, plan, 81, monkeypatch)
        assert np.array_equal(alone, together)
        assert np.max(np.abs(together / want - 1.0)) <= 1e-14


def _cliff(steepness):
    """A source on the solver's 81-point grid, flat up to r = 1, falling at
    the log-log slope steepness / ln q over the next three cells, then at
    the slope of its T = 6 tail: its steepest cell has |m| ln q =
    steepness."""
    grid = default_solver_grid()
    x = np.log(grid.points)
    width = 3 * grid.log_step
    values = np.exp(-steepness / grid.log_step * np.clip(x, 0.0, width) - 6.0 * np.maximum(x - width, 0.0))
    return RadialFunction(grid, values, head_exponent=0.0, tail_exponent=6.0)


def _grid_point_shells(f, plan, on_stencil):
    """_plan_shells at f's grid points, the source evaluations it made, and
    the independent per-node sum of the block-pass test: on the continued
    grid for the stencil, f(rho r) for the nodes."""
    k, step, pts = CapKernel(5), plan.step, f.grid.points
    r, kw, owner = geometry._plan_nodes(k, step, plan.tau)
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    values = [_node_values(f, rho, i if on_stencil else None, r, step) for i, rho in enumerate(pts)]
    want = np.stack([rho**5 * np.add.reduceat(fr * kw, starts) for rho, fr in zip(pts, values)])
    nodes = geometry.nodes_evaluated()
    got = geometry._plan_shells(k, f, pts, plan)
    return got, geometry.nodes_evaluated() - nodes, want


@pytest.mark.parametrize("steepness, on_stencil", [(2.9, True), (3.1, False)])
def test_steep_cells_choose_the_stencil_or_the_nodes(steepness, on_stencil):
    # at |m| ln q = 2.9 the grid points take the stencil, 16 samples in each
    # of the span + N - 1 virtual cells; at 3.1 f at every distinct plan
    # node of every centre.  Either way every shell agrees with the
    # per-node sum
    f = _cliff(steepness)
    assert abs(f.cell_steepness(f.grid.log_step) - steepness) <= 1e-12
    plan = geometry.reference_plan(CapKernel(5), f.grid.log_step, np.geomspace(1e-3, 1e3, 97))
    got, evaluations, want = _grid_point_shells(f, plan, on_stencil)
    N = f.grid.count
    assert evaluations == (16 * (plan.span + N - 1) if on_stencil else N * plan.cell.size)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-14


def test_a_twelve_point_stencil_misses_the_steep_cell(monkeypatch):
    # 12 Chebyshev samples a cell leave the 2.9 cliff's interpolant 1e-10
    # off (measured 1.1e-10)
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_CHEBYSHEV_NODES", 12)
        clear_stores()
        f = _cliff(2.9)
        plan = geometry.reference_plan(CapKernel(5), f.grid.log_step, np.geomspace(1e-3, 1e3, 97))
        got, evaluations, want = _grid_point_shells(f, plan, True)
    clear_stores()
    assert evaluations == 12 * (plan.span + f.grid.count - 1)
    assert np.max(np.abs(got / want - 1.0)) > 1e-11


def test_log_tail_near_one_leaves_the_stencil():
    # a log tail's factor (1 + s / ln r_max)^L is singular at s = -ln r_max:
    # with r_max = 1.2, under two cells from the tail, no interpolant of 16
    # samples holds, so its grid points read every node; at r_max = 100 the
    # factor adds |L| ln q / ln r_max to the tail's |T| ln q
    def log_tailed(r_max):
        grid = RadialGrid.per_decade(1e-2, r_max, 16)
        values = (1.0 + grid.points**2) ** -2.0
        return RadialFunction(grid, values, head_exponent=0.0, tail_exponent=4.0, tail_log_power=1.5)

    near, far = log_tailed(1.2), log_tailed(100.0)
    step = far.grid.log_step
    assert far.cell_steepness(step) == pytest.approx((4.0 + 1.5 / math.log(100.0)) * step, rel=1e-12)
    step = near.grid.log_step
    assert near.cell_steepness(step) == math.inf
    plan = geometry.reference_plan(CapKernel(5), step, np.geomspace(1e-3, 1e3, 97))
    got, evaluations, want = _grid_point_shells(near, plan, False)
    assert evaluations == near.grid.count * plan.cell.size
    assert np.max(np.abs(got / want - 1.0)) <= 1e-14


_BUMP = power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 8.0)
GEOMETRY_RAISE_SITES = [
    ("cap rho", lambda: cap_fraction(CapKernel(3), -1.0, 1.0, 1.0), "rho must be nonnegative"),
    ("cap rho nan", lambda: cap_fraction(CapKernel(3), math.nan, 1.0, 1.0),
     "center distance rho must be nonnegative, got nan"),
    ("cap t nan", lambda: cap_fraction(CapKernel(3), 1.0, math.nan, 1.0),
     "ball radius t must be positive, got nan"),
    ("cap r nan", lambda: cap_fraction(CapKernel(3), 1.0, 1.0, [1.0, math.nan]),
     "shell radius r must be positive, got nan"),
    ("batch t", lambda: ball_mass_batch(CapKernel(3), _BUMP, 1.0, np.array([1.0, 0.0])),
     "ball radius t must be positive"),
    ("batch rho", lambda: ball_mass_batch(CapKernel(3), _BUMP, -1.0, np.array([1.0])),
     "rho must be nonnegative"),
    ("batch t nan", lambda: ball_mass_batch(CapKernel(3), _BUMP, 1.0, np.array([1.0, math.nan])),
     "ball radius t must be positive, got nan"),
    ("batch rho nan", lambda: ball_mass_batch(CapKernel(3), _BUMP, math.nan, np.array([1.0])),
     "center distance rho must be nonnegative, got nan"),
    ("ball_mass rho nan", lambda: ball_mass(CapKernel(3), _BUMP, math.nan, 1.0),
     "center distance rho must be nonnegative, got nan"),
]


@pytest.mark.parametrize(
    "site, call, fragment", GEOMETRY_RAISE_SITES, ids=[s[0] for s in GEOMETRY_RAISE_SITES]
)
def test_geometry_raise_sites(site, call, fragment):
    with pytest.raises(ParameterError) as err:
        call()
    assert fragment in str(err.value)
