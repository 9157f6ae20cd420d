import math
import sys
import threading

import numpy as np
import pytest
from scipy.special import betainc
from hypothesis import given, settings
from hypothesis import strategies as st

from wolffkit import geometry
from wolffkit.errors import DivergentIntegralError, ParameterError
from wolffkit.geometry import CapKernel, ball_mass, ball_mass_batch, cap_fraction
from wolffkit.radial import RadialFunction, RadialGrid, unit_ball_volume

from conftest import indicator_of_ball, power_tail_profile


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


@given(
    st.integers(min_value=3, max_value=7),
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


# -- the kernel-weight store ----------------------------------------------


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
    # weights stored for f serve another source g on the same geometry
    k = CapKernel(n)
    ts = np.geomspace(1e-3, 1e4, 60)
    for f in _store_profiles(n):
        g = f.with_values(f.values * (1.0 + 0.3 * np.sin(np.log(f.grid.points)) ** 2))
        for rho in (0.3, 1.0, 40.0):
            geometry._kernel_weights.clear()
            cold = ball_mass_batch(k, g, rho, ts)
            geometry._kernel_weights.clear()
            ball_mass_batch(k, f, rho, ts)
            before = len(cap_calls)
            warm = ball_mass_batch(k, g, rho, ts)
            assert len(cap_calls) == before  # served from the store
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
        geometry._kernel_weights.clear()
        assert np.array_equal(got, ball_mass_batch(k, g, 2.0, ts))


def test_store_stays_under_its_byte_cap(cap_calls, monkeypatch):
    k = CapKernel(3)
    ts = np.geomspace(1e-3, 1e4, 200)
    store = geometry._kernel_weights
    for j in range(12):  # distinct grids: each one replaces the last
        grid = RadialGrid.per_decade(10.0 ** (-2 - 0.1 * j), 1e2, 16)
        f = power_tail_profile(grid, 1.0, 6.0)
        for rho in np.geomspace(0.1, 10.0, 5):
            ball_mass_batch(k, f, float(rho), ts)
        assert 0 < store.nbytes <= store.max_bytes
        assert store.nbytes == sum(a.nbytes for plan in store._plans.values() for a in plan)
        assert not any(a.flags.writeable for plan in store._plans.values() for a in plan)
    # one grid with more centres than the cap admits
    monkeypatch.setattr(store, "max_bytes", 3 * store.nbytes // 5)
    store.clear()
    for rho in np.geomspace(0.1, 10.0, 5):
        ball_mass_batch(k, f, float(rho), ts)
    assert 0 < store.nbytes <= store.max_bytes
    before = len(cap_calls)
    for rho in np.geomspace(0.1, 10.0, 5):
        ball_mass_batch(k, f, float(rho), ts)
    assert 0 < len(cap_calls) - before < 5  # the centres that did not fit


def test_centre_with_only_empty_shells_stores_nothing(cap_calls):
    # a truncated source far from the centre: no t leaves a partial shell
    # inside r <= 1, so only the covered mass remains
    ind = indicator_of_ball(1.0)
    k = CapKernel(4)
    ts = np.array([10.0, 50.0, 150.0, 1e3])
    got = ball_mass_batch(k, ind, 100.0, ts)
    assert np.allclose(got, [0.0, 0.0, unit_ball_volume(4), unit_ball_volume(4)], rtol=1e-12)
    assert got[0] == got[1] == 0.0
    assert not cap_calls and geometry._kernel_weights.nbytes == 0


def test_store_stress_concurrent_grids_and_centres():
    # more threads than cores, switching often: grid changes, inserts and
    # lookups interleave; a lost update would break the byte count or hand
    # a centre another grid's weights
    store = geometry._KernelWeightStore(max_bytes=40 * 8 * 64)
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(400):
                grid = int(rng.integers(3))
                centre = int(rng.integers(64))
                got = store.get(grid, centre)
                if got is not None and not np.all(got == 1000 * grid + centre):
                    errors.append((grid, centre))
                store.put(grid, centre, np.full(40, 1000.0 * grid + centre))
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
    assert store.nbytes == sum(w.nbytes for w in store._plans.values()) <= store.max_bytes
