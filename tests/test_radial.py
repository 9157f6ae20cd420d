import gc
import json
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from wolffkit import potential, radial
from wolffkit.errors import ParameterError, ProfileFormatError
from wolffkit.potential import wolff_eval
from wolffkit.radial import (
    INFINITE,
    RadialFunction,
    RadialGrid,
    fit_decay_rate,
    is_infinite,
    lp_norm,
    read_profile,
    sphere_surface,
    unit_ball_volume,
    write_profile,
)

from conftest import power_tail_profile


def test_grid_invariants():
    with pytest.raises(ParameterError):
        RadialGrid(np.linspace(1.0, 2.0, 32))  # span below two decades
    with pytest.raises(ParameterError):
        RadialGrid(np.geomspace(1e-2, 1e2, 8))  # too few points
    with pytest.raises(ParameterError):
        RadialGrid(np.array([1.0, 0.5] + list(np.geomspace(2, 1e3, 30))))
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    assert g.r_min == pytest.approx(1e-2)
    assert g.r_max == pytest.approx(1e2)
    assert g.count >= 16


def test_interpolation_exact_on_power_laws():
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    f = RadialFunction(g, g.points**-2.5, head_exponent=2.5, tail_exponent=2.5)
    r = np.geomspace(2e-2, 5e1, 77)
    assert np.allclose(f(r), r**-2.5, rtol=1e-12)
    # head/tail models extend the power law
    assert f(1e-3) == pytest.approx(1e-3 ** -2.5, rel=1e-12)
    assert f(1e3) == pytest.approx(1e3 ** -2.5, rel=1e-12)


def test_interpolation_zero_cells_fall_back_to_linear():
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    vals = np.ones(g.count)
    vals[10] = 0.0
    f = RadialFunction(g, vals, tail_exponent=math.inf)
    mid = math.sqrt(g.points[10] * g.points[11])
    assert 0.0 < f(mid) < 1.0


def _call_by_region(f, r):
    """Reference: __call__ as head, tail and body masks, with the body split
    into power and linear cells.  The head, the tail and the power cells
    are power laws exp(ln v_a - m ln(r / r_a)), the tail's times
    (ln r / ln r_max)^L in the exponent, taken in at_located's order of
    operations.  Returns the values and the mask of points evaluated on power
    cells."""
    out = np.empty_like(r)
    pts, v = f.grid.points, f.values
    head, tail = r < pts[0], r > pts[-1]
    body = ~(head | tail)
    with np.errstate(divide="ignore"):
        log_v0, log_vn = np.log(v[0]), np.log(v[-1])
    out[head] = np.exp(log_v0 - f.head_exponent * np.log(r[head] / pts[0])) if v[0] > 0 else 0.0
    if f.cut_off:
        out[tail] = 0.0
    else:
        span = np.log(r[tail] / pts[-1])
        exponent = log_vn - f.tail_exponent * span
        if f.tail_log_power != 0.0:
            exponent += f.tail_log_power * np.log1p(span / np.log(pts[-1]))
        out[tail] = np.exp(exponent)
    rb = r[body]
    idx = np.clip(np.searchsorted(pts, rb, side="right") - 1, 0, pts.size - 2)
    power, m = ~f._slots["linear"][idx + 1], f._slots["m"][idx + 1]
    ra, rb_hi, va, vb = pts[idx], pts[idx + 1], v[idx], v[idx + 1]
    res = np.empty_like(rb)
    res[power] = np.exp(np.log(va[power]) - m[power] * np.log(rb[power] / ra[power]))
    lin = ~power
    res[lin] = va[lin] + (vb[lin] - va[lin]) * (rb[lin] - ra[lin]) / (rb_hi[lin] - ra[lin])
    out[body] = res
    on_power = np.zeros(r.size, dtype=bool)
    on_power[np.flatnonzero(body)[power]] = True
    return out, on_power


def _edges_as_powers(f, r):
    """The head and tail models as powers of r, v_0 (r/r_min)^(-h) and
    v_N (r/r_max)^(-T) (ln r / ln r_max)^L: the values, and the exponent's
    size beyond ln v_a, |m s| plus the log term's, at every r < r_min or
    r > r_max (0 elsewhere)."""
    pts, v = f.grid.points, f.values
    head, tail = r < pts[0], r > pts[-1]
    want, size = np.zeros_like(r), np.zeros_like(r)
    if v[0] > 0:
        want[head] = v[0] * (r[head] / pts[0]) ** (-f.head_exponent)
        size[head] = np.abs(f.head_exponent * np.log(r[head] / pts[0]))
    if not f.cut_off:
        T, L = f.tail_exponent, f.tail_log_power
        want[tail] = v[-1] * (r[tail] / pts[-1]) ** (-T) * (np.log(r[tail]) / np.log(pts[-1])) ** L
        size[tail] = np.abs(T * np.log(r[tail] / pts[-1])) + np.abs(
            L * np.log(np.log(r[tail]) / np.log(pts[-1]))
        )
    return want, size


def _call_profiles():
    """Head-singular, power-tail, log-tail, hard-cutoff and zero-cell profiles."""
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    r = g.points
    kinked = np.where(r < 1.0, 1.0, 0.0) + np.where((r > 2.0) & (r < 5.0), 0.5, 0.0)
    return [
        RadialFunction(g, r**-1.5 / (1.0 + r) ** 3, head_exponent=1.5, tail_exponent=4.5),
        power_tail_profile(g, 1.0, 6.0),
        RadialFunction(
            g, (1.0 + r**2) ** -2 * (1.0 + np.log1p(r)), tail_exponent=4.0, tail_log_power=1.0
        ),
        RadialFunction(g, np.exp(-r), tail_exponent=math.inf),
        RadialFunction(g, kinked, tail_exponent=3.0),
        RadialFunction(g, np.append(kinked[:-1] + 0.25, 0.0), tail_exponent=3.0),
    ]


def test_one_pass_call_matches_region_formulas():
    for f in _call_profiles():
        pts = f.grid.points
        # below, across and beyond the grid, with every grid point and the
        # geometric midpoint of every cell
        r = np.concatenate(
            [np.geomspace(1e-6, 1e7, 2001), pts, np.sqrt(pts[:-1] * pts[1:])]
        )
        got = f(r)
        want, on_power = _call_by_region(f, r)
        assert np.array_equal(got[on_power], want[on_power])
        rest = ~on_power
        assert np.all(np.abs(got[rest] - want[rest]) <= 1e-15 * np.abs(want[rest]))
        assert all(f(float(x)) == y for x, y in zip(r[::97], got[::97]))
        # the head and tail, exp(ln v_a - m s), against their models as
        # powers of r: within 32 eps (1 + |m s|), measured 13.7 eps
        edge = (r < pts[0]) | (r > pts[-1])
        powers, size = _edges_as_powers(f, r)
        err = np.abs(got[edge] - powers[edge])
        assert np.all(err <= 32 * np.finfo(float).eps * (1.0 + size[edge]) * powers[edge])


def test_located_evaluation_matches_region_formulas_bit_for_bit():
    # slots and offsets located once: their evaluation is the region
    # formulas' everywhere, linear cells, head and tail included
    for f in _call_profiles():
        pts = f.grid.points
        r = np.concatenate(
            [np.geomspace(1e-6, 1e7, 2001), pts, np.sqrt(pts[:-1] * pts[1:])]
        )
        slot, s = f.locate(r)
        got = f.at_located(slot, s)
        assert np.array_equal(got, _call_by_region(f, r)[0])
        assert np.array_equal(got, f(r))
        # a source with other values but the same vanishing cells has the
        # same located form
        g = f.with_values(f.values * (1.0 + 0.5 * np.cos(np.log(pts)) ** 2))
        g_slot, g_s = g.locate(r)
        assert np.array_equal(g_slot, slot) and np.array_equal(g_s, s)
        assert np.array_equal(g.at_located(slot, s), g(r))


def _mass_by_region(f, n, x):
    """Reference: cumulative_mass in its earlier branch form, head (x <= r_min),
    tail (x >= r_max) and body masks, each cell's rule reading x itself and
    the head and tail rules ln(x / r_min) and ln(x / r_max).  The rules are
    written out here in the engine's arithmetic, powers taken on arrays as
    the engine takes them (a scalar power may round differently):
    scale expm1(rate L) / rate
    (scale L at rate 0, exp in place of expm1 on the head), a growing cell
    in logs, 16-node Gauss-Legendre on a cell with a vanishing endpoint and
    32-node Gauss-Legendre on a log tail."""
    pts, v = f.grid.points, f.values
    surface = sphere_surface(n)

    def power_rule(scale, rate, span, first=np.expm1):
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.where(rate == 0.0, span, first(rate * span)) * scale
            return np.where(rate == 0.0, out, out / np.where(rate == 0.0, 1.0, rate))

    def cells_to(idx, x):
        ra, va, vb = pts[idx], v[idx], v[idx + 1]
        lin = (va == 0.0) | (vb == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.where(lin, 0.0, -np.log(vb / va) / np.log(pts[idx + 1] / ra))
        rate = np.where(lin, 0.0, n - m * 1.0)
        span = np.log(x / ra)
        out = power_rule(np.where(lin, 0.0, va**1.0 * ra**n), rate, span)
        z = rate * span
        lost = (z > 0.0) & ~(np.isfinite(out) & (out > 0.0))
        if lost.any():
            zl = z[lost]
            log_fx = 1.0 * np.log(va[lost]) + n * np.log(ra[lost]) + zl
            out[lost] = np.exp(log_fx) * -np.expm1(-zl) / rate[lost]
        lin = np.flatnonzero(lin)
        if lin.size:
            a, b = ra[lin, None], pts[idx[lin] + 1, None]
            fa, fb = va[lin, None], v[idx[lin] + 1, None]
            nodes, wts = radial._leggauss01(16)
            la = np.log(a)
            width = np.log(x[lin, None]) - la
            rr = np.exp(la + width * nodes)
            fr = np.maximum(fa + (fb - fa) * ((rr - a) / (b - a)), 0.0)
            out[lin] = width[:, 0] * (fr**1.0 * rr**n * wts).sum(axis=1)
        return out

    def head_to(x):
        h = f.head_exponent if v[0] > 0.0 else 0.0
        with np.errstate(divide="ignore"):  # ln 0 = -inf, whose head mass is 0
            lx = np.log(x / pts[0])
        return power_rule(v[:1] ** 1.0 * pts[:1] ** n, n - h * 1.0, lx, first=np.exp)

    def tail_to(x):
        span = np.log(x / pts[-1])
        if f.cut_off:
            return np.zeros_like(span)
        scale, rate = v[-1:] ** 1.0 * pts[-1:] ** n, n - f.tail_exponent * 1.0
        if abs(rate) <= radial.BORDERLINE_TOL:
            rate = 0.0
        if f.tail_log_power == 0.0:
            return power_rule(scale, rate, span)
        lam0 = math.log(pts[-1])
        nodes, wts = radial._leggauss01(32)
        lam = lam0 + np.outer(span, nodes)
        shape = (np.exp(rate * (lam - lam0)) * (lam / lam0) ** (f.tail_log_power * 1.0) * wts).sum(axis=1)
        return scale * shape * span

    whole = np.concatenate([head_to(pts[:1]), cells_to(np.arange(pts.size - 1), pts[1:])])
    prefix = np.concatenate([[0.0], np.cumsum(whole)])
    out = np.empty_like(x)
    head, tail = x <= pts[0], x >= pts[-1]
    body = ~(head | tail)
    out[head] = surface * (0.0 + head_to(x[head]))
    out[tail] = surface * (prefix[-1] + tail_to(x[tail]))
    idx = np.minimum(np.searchsorted(pts, x[body], side="right") - 1, pts.size - 2)
    out[body] = surface * (prefix[idx + 1] + cells_to(idx, x[body]))
    return out


@pytest.mark.parametrize("n", [3, 5])
def test_located_masses_match_the_branch_form_bit_for_bit(n):
    # cumulative_mass reads the offsets of locate(x); below, across and
    # beyond the grid it gives the branch form's masses bit for bit.  r_min
    # and r_max go alone: the located form counts them in the first and
    # last cell, the branch form in the head and the tail.  At r_max the
    # branch form took the whole prefix and the located form adds the last
    # cell to the prefix before it, which may differ in the last bits
    for f in _call_profiles():
        pts = f.grid.points
        x = np.concatenate([[0.0], np.geomspace(1e-6, 1e7, 2001), pts[1:-1], np.sqrt(pts[:-1] * pts[1:])])
        assert np.array_equal(f.cumulative_mass(n, x), _mass_by_region(f, n, x))
        at_min = np.array([pts[0]])
        assert np.array_equal(f.cumulative_mass(n, at_min), _mass_by_region(f, n, at_min))
        at_max = np.array([pts[-1]])
        got, want = f.cumulative_mass(n, at_max), _mass_by_region(f, n, at_max)
        assert np.allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("n", [3, 5])
def test_batched_masses_equal_single_radius_masses_bit_for_bit(n):
    # a radius's Gauss-Legendre sums, on a linear cell or on a log tail, are
    # its own: a call with many radii gives each the mass a call with that
    # radius alone gives, bit for bit, so callers may batch radii
    profiles = _call_profiles()
    for f in (profiles[5], profiles[2]):  # a linear last cell; a log tail
        pts = f.grid.points
        x = np.concatenate([[0.0], np.geomspace(1e-6, 1e7, 2001), pts, np.sqrt(pts[:-1] * pts[1:])])
        assert x.size == 2131 and x.max() > pts[-1]
        alone = np.array([f.cumulative_mass(n, [r])[0] for r in x])
        assert np.array_equal(f.cumulative_mass(n, x), alone)


def _tails_at_infinity():
    """The _call_profiles, and a borderline power tail T = n = 3, L = 0 at two
    amplitudes."""
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    borderline = [RadialFunction(g, c * (1.0 + g.points**2) ** -1.5, tail_exponent=3.0) for c in (1e-6, 1.0)]
    return _call_profiles() + borderline


@pytest.mark.parametrize("n", [3, 5])
def test_mass_at_infinity_is_the_p1_norm_on_every_tail(n):
    # cumulative_mass and lp_norm are one engine: the mass to x = inf is
    # lp_norm(f, 1, 0, n) bit for bit where the tail is integrable and inf
    # where it is not, without a warning.  Two engines read 23.117 against
    # the norm's 23.975 on the log tail at n = 3, overflowed in exp on it at
    # n = 5, and gave the borderline tail a finite 2.26e303 (an overflow at
    # amplitude 1)
    for f in _tails_at_infinity():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mass = f.cumulative_mass(n, [0.0, 1.0, math.inf])
            norm = lp_norm(f, 1.0, 0.0, n)
        if norm is INFINITE:
            assert mass[2] == math.inf
        else:
            assert mass[2] == norm
        assert mass[0] == 0.0 < mass[1] < mass[2]


def test_integral_tables_do_not_keep_a_profile_alive():
    # the per-(k, p) integral tables live on the profile, so no cache keeps
    # a profile after its last reference goes
    f = power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 6.0)
    f.cumulative_mass(3, [1.0])
    lp_norm(f, 2.0, 0.0, 3)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
    # nor does the slot of the last map's masses, which holds arrays
    g = power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 6.0)
    wolff_eval(g, 3, 1.0, 2.0)
    assert potential._last_map is not None
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_call_far_off_the_grid_raises_no_numeric_warning():
    # far off the grid the exponent ln v_a - m s under- or overflows to its
    # limit; at r = 0 (s clipped to the float range) a flat head keeps its
    # value, exp(ln v_0)
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    rising = RadialFunction(g, g.points**2, tail_exponent=3.0)
    steep = RadialFunction(g, np.exp(-g.points) * g.points**-40.0, head_exponent=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = np.array([1e3, 1e150, 1e300])
        far = rising(r)
        near = steep(np.array([0.0, 1e-300, 1e-200]))
    powers, size = _edges_as_powers(rising, r)
    assert np.array_equal(far[1:], [0.0, 0.0]) and np.array_equal(powers[1:], [0.0, 0.0])
    assert abs(far[0] - powers[0]) <= 32 * np.finfo(float).eps * (1.0 + size[0]) * powers[0]
    assert np.array_equal(near, np.full(3, np.exp(np.log(steep.values[0]))))
    assert near[0] == pytest.approx(steep.values[0], rel=1e-13)
    # far above a grid at 1e-30 the tail model reads r / r_max = 1e306
    tiny = RadialGrid.per_decade(1e-30, 1e-26, 16)
    slow = RadialFunction(tiny, np.ones(tiny.count), tail_exponent=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert slow(1e280) == pytest.approx((1e280 / tiny.r_max) ** -0.5, rel=1e-13)


def test_origin_reads_the_head_model_in_its_limit():
    # f(0) is v_0 on a flat head, inf on a singular one (h > 0), 0 where
    # h < 0 or v_0 = 0, and the mass inside 0 is 0, all without a warning
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    r = g.points
    zero_head = np.append(0.0, (1.0 + r[1:] ** 2) ** -3)
    flat = RadialFunction(g, (1.0 + r**2) ** -3, tail_exponent=6.0)
    cases = [
        (flat, pytest.approx(flat.values[0], rel=1e-15)),
        (RadialFunction(g, r**-1.5 / (1.0 + r) ** 3, head_exponent=1.5, tail_exponent=4.5), math.inf),
        (RadialFunction(g, r**-0.5 / (1.0 + r) ** 3, head_exponent=0.5, tail_exponent=3.5), math.inf),
        (RadialFunction(g, r**2 / (1.0 + r) ** 8, head_exponent=-2.0, tail_exponent=6.0), 0.0),
        (RadialFunction(g, zero_head, head_exponent=2.5, tail_exponent=6.0), 0.0),
        (RadialFunction(g, zero_head, head_exponent=0.0, tail_exponent=6.0), 0.0),
    ]
    for f, want in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(np.array([0.0]))[0]
            masses = [f.cumulative_mass(n, [0.0])[0] for n in (3, 5)]
        assert got == want
        assert masses == [0.0, 0.0]
        assert f(0.0) == got


def test_lp_norm_indicator_is_ball_volume(unit_indicator):
    for n in (3, 4, 5):
        got = lp_norm(unit_indicator, 1.0, 0.0, n=n)
        assert got == pytest.approx(unit_ball_volume(n), rel=1e-12)


def test_lp_norm_borderline_divergence():
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    f = power_tail_profile(g, 1.0, 3.0)
    # 3 * 5/3 = 5 = n exactly: borderline divergent
    assert lp_norm(f, 5 / 3, 0.0, n=5) is INFINITE
    # strictly convergent nearby
    assert not is_infinite(lp_norm(f, 2.0, 0.0, n=5))


def test_lp_norm_against_adaptive_quadrature_oracle():
    g = RadialGrid.per_decade(1e-3, 1e4, 32)
    f = power_tail_profile(g, 1.0, 3.0)  # (1 + r^2)^{-3/2}
    got = lp_norm(f, 2.0, 0.0, n=5)
    oracle, _ = integrate.quad(lambda r: (1 + r * r) ** -3 * r**4, 0, np.inf, limit=200)
    oracle = math.sqrt(sphere_surface(5) * oracle)
    assert got == pytest.approx(oracle, rel=1e-3)
    # closed form: s_4 * 3*pi/16 = pi^3/2
    assert got == pytest.approx(math.sqrt(math.pi**3 / 2.0), rel=1e-3)


def test_lp_norm_head_weight_error():
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    f = RadialFunction(g, np.ones(g.count), tail_exponent=math.inf)
    with pytest.raises(ParameterError, match="non-integrable"):
        lp_norm(f, 1.0, -5.0, n=5)


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=40, deadline=None)
def test_lp_norm_absolute_homogeneity(lam):
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    f = power_tail_profile(g, 0.7, 8.0)
    base = lp_norm(f, 2.0, -1.0, n=4)
    scaled = lp_norm(f.scaled(lam), 2.0, -1.0, n=4)
    assert scaled == pytest.approx(lam * base, rel=1e-12)


@given(
    st.floats(min_value=0.5, max_value=12.0),
    st.floats(min_value=1.0, max_value=4.0),
    st.integers(min_value=3, max_value=6),
)
@settings(max_examples=80, deadline=None)
def test_lp_norm_finiteness_decided_by_exponents(tail, p, n):
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    f = power_tail_profile(g, 1.0, tail)
    value = lp_norm(f, p, 0.0, n=n)
    margin = tail * p - n
    if margin > 1e-6:
        assert not is_infinite(value)
    elif margin < -1e-6:
        assert value is INFINITE


def test_total_mass():
    g = RadialGrid.per_decade(1e-2, 1.0, 24)
    ind = RadialFunction(g, np.ones(g.count), tail_exponent=math.inf)
    assert float(lp_norm(ind, 1.0, 0.0, 3)) == pytest.approx(unit_ball_volume(3), rel=1e-12)
    slow = power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 2.0)
    assert lp_norm(slow, 1.0, 0.0, 5) is INFINITE


@pytest.mark.parametrize("n, p", [(3, 1.0), (5, 2.0)])
def test_borderline_tail_integrable_exactly_below_log_power_minus_one(n, p):
    # T p = k: the tail converges iff L p < -1
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    k = float(n)
    T = k / p
    for L, finite in ((-2.0 / p, True), (-1.5 / p, True), (-1.0 / p, False), (0.0, False), (1.0 / p, False)):
        f = RadialFunction(g, (1.0 + g.points**2) ** (-T / 2.0), tail_exponent=T, tail_log_power=L)
        assert f.tail_integrable(k, p) is finite
        assert (lp_norm(f, p, 0.0, n) is INFINITE) is not finite
    # off the borderline the log power does not matter
    f = RadialFunction(g, (1.0 + g.points**2) ** (-T / 2.0), tail_exponent=T + 0.1, tail_log_power=5.0)
    assert f.tail_integrable(k, p)
    f = RadialFunction(g, (1.0 + g.points**2) ** (-T / 2.0), tail_exponent=T - 0.1, tail_log_power=-5.0)
    assert not f.tail_integrable(k, p)


def test_head_integrable_decides_lp_norm_at_the_origin():
    # k - h p <= 0 diverges at the origin; a vanishing head never does
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    r = g.points
    f = RadialFunction(g, r**-1.5 * (1.0 + r**2) ** -3.0, head_exponent=1.5, tail_exponent=7.5)
    n = 3
    assert f.head_integrable(n, 1.0) and not is_infinite(lp_norm(f, 1.0, 0.0, n))
    assert not f.head_integrable(n, 2.0) and lp_norm(f, 2.0, 0.0, n) is INFINITE  # k = h p
    assert not f.head_integrable(n, 3.0) and lp_norm(f, 3.0, 0.0, n) is INFINITE  # k < h p
    assert not f.head_integrable(n - 1.0, 2.0) and lp_norm(f, 2.0, -1.0, n) is INFINITE
    vals = f.values.copy()
    vals[0] = 0.0
    zero_head = f.with_values(vals)
    assert zero_head.head_integrable(n, 3.0)
    assert not is_infinite(lp_norm(zero_head, 3.0, 0.0, n))


def test_cut_off_tails():
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    bump = power_tail_profile(g, 1.0, 2.0)
    assert not bump.cut_off and not bump.tail_integrable(3.0)
    vals = bump.values.copy()
    vals[-1] = 0.0
    for f in (bump.with_values(vals), bump.with_values(bump.values, tail_exponent=math.inf)):
        assert f.cut_off and f.tail_integrable(3.0, 1.0)
        assert float(f(1e3)) == 0.0
        assert f._integrals(3.0, 1.0, *f.locate([math.inf]))[0] == 0.0  # the tail slot to inf


@pytest.mark.parametrize("n, p, L", [(3, 1.0, -2.0), (5, 1.0, -3.5), (4, 2.0, -1.5), (3, 1.4, -1.0)])
def test_pure_log_tail_integral_against_quad(n, p, L):
    # T p = k with L p < -1: the closed form v_N^p r_max^k ln(r_max) / (-L p - 1);
    # at n = 3, p = 1.4 the float k - T p is 4.4e-16, within BORDERLINE_TOL
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    T = n / p
    f = RadialFunction(g, (1.0 + g.points**2) ** (-T / 2.0), tail_exponent=T, tail_log_power=L)
    lam0, vN = math.log(g.r_max), f.values[-1]

    def integrand(lam):  # r^{k-1} f(r)^p dr = r^n f(r)^p d(ln r) on the tail model
        return vN**p * g.r_max**n * (lam / lam0) ** (L * p)

    oracle = integrate.quad(integrand, lam0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    got = f._integrals(float(n), p, *f.locate([math.inf]))[0]  # the tail slot to inf
    assert got == pytest.approx(oracle, rel=1e-10)


def test_cumulative_mass_matches_quadrature():
    # oracle: adaptive quadrature piecewise (the interpolant has cell kinks)
    g = RadialGrid.per_decade(1e-2, 1e2, 24)
    f = power_tail_profile(g, 1.0, 7.0)
    for x in (0.005, 0.3, 2.0, 50.0, 500.0):
        got = float(f.cumulative_mass(4, np.array([x]))[0])
        pieces = np.geomspace(1e-6, x, 60)
        oracle = integrate.quad(lambda r: float(f(r)) * r**3, 0, pieces[0], limit=60)[0]
        for a, b in zip(pieces[:-1], pieces[1:]):
            oracle += integrate.quad(lambda r: float(f(r)) * r**3, a, b, limit=60)[0]
        assert got == pytest.approx(sphere_surface(4) * oracle, rel=5e-7)


@pytest.mark.parametrize("T, L, p, n", [(9.0, 0.5, 1.2, 5), (6.0, 1.0, 1.0, 5)])
def test_log_tail_integral_to_infinity_matches_mpmath(T, L, p, n):
    # a log-corrected tail integrated to infinity with k - T p != 0 takes the
    # Gauss-Laguerre rule; the reference integrates the declared tail
    # r^{k-1} (v_N (r/r_N)^{-T} (ln r/ln r_N)^L)^p in lam = ln r at 30 digits
    mpmath = pytest.importorskip("mpmath")
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    vals = (1.0 + grid.points**2) ** (-T / 2.0) * (1.0 + np.log1p(grid.points)) ** L
    f = RadialFunction(grid, vals, tail_exponent=T, tail_log_power=L)
    got = f._integrals(n, p, *f.locate([math.inf]))[0]  # the tail slot to inf
    with mpmath.workdps(30):
        v_end, lam0 = mpmath.mpf(vals[-1]), mpmath.log(mpmath.mpf(grid.r_max))
        tail = lambda lam: mpmath.exp(n * lam) * (
            v_end * mpmath.exp(-T * (lam - lam0)) * (lam / lam0) ** L) ** p
        want = float(mpmath.quad(tail, [lam0, lam0 + 1, lam0 + 10, mpmath.inf]))
    assert got == pytest.approx(want, rel=1e-12)


def test_fit_decay_rate_exact_power_law():
    g = RadialGrid.per_decade(1e-2, 1e4, 16)
    f = RadialFunction(g, g.points**-3.0, head_exponent=3.0, tail_exponent=3.0)
    fit = fit_decay_rate(f, (1e2, 1e4))
    assert fit.exponent == pytest.approx(3.0, abs=1e-10)
    assert fit.log_power == 0.0
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_decay_rate_log_corrected_synthetic():
    g = RadialGrid.per_decade(10.0, 1e6, 16)
    vals = g.points**-3.0 * np.log(g.points)
    f = RadialFunction(g, vals, head_exponent=3.0, tail_exponent=3.0, tail_log_power=1.0)
    fit = fit_decay_rate(f, (1e2, 1e6), allow_log=True)
    assert fit.exponent == pytest.approx(3.0, abs=0.05)
    assert fit.log_power == pytest.approx(1.0, abs=0.15)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=40, deadline=None)
def test_fit_decay_rate_scale_invariant(c):
    g = RadialGrid.per_decade(1e-2, 1e4, 16)
    f = RadialFunction(g, c * g.points**-3.0, head_exponent=3.0, tail_exponent=3.0)
    fit = fit_decay_rate(f, (1e1, 1e4))
    assert fit.exponent == pytest.approx(3.0, abs=1e-9)


def test_fit_decay_rate_window_errors():
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    f = RadialFunction(g, np.ones(g.count), tail_exponent=math.inf)
    with pytest.raises(ParameterError, match="window"):
        fit_decay_rate(f, (1e-3, 1e2))
    vals = np.ones(g.count)
    vals[-5] = 0.0
    fz = RadialFunction(g, vals, tail_exponent=math.inf)
    with pytest.raises(ParameterError, match="vanishes"):
        fit_decay_rate(fz, (1.0, 1e2))


def test_profile_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    g = RadialGrid.per_decade(1e-2, 1e3, 16)
    vals = np.exp(rng.normal(size=g.count))  # awkward decimals
    f = RadialFunction(g, vals, head_exponent=0.3, tail_exponent=4.25, tail_log_power=0.5)
    path = tmp_path / "profile.csv"
    write_profile(f, path)
    back = read_profile(path)
    assert np.array_equal(back.grid.points, f.grid.points)
    assert np.array_equal(back.values, f.values)
    assert back.head_exponent == f.head_exponent
    assert back.tail_exponent == f.tail_exponent
    assert back.tail_log_power == f.tail_log_power
    # a second write produces identical bytes
    path2 = tmp_path / "profile2.csv"
    write_profile(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_profile_round_trip_preserves_infinite_tail(tmp_path, unit_indicator):
    path = tmp_path / "ind.csv"
    write_profile(unit_indicator, path)
    back = read_profile(path)
    assert math.isinf(back.tail_exponent)


def test_read_profile_errors(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("r,value\n1.0,1.0\n2.0,1.0\n")
    with pytest.raises(ProfileFormatError, match="sidecar"):
        read_profile(path)
    side = tmp_path / "f.json"
    side.write_text('{"head_exponent": 0.0, "tail_exponent": 3.0, "tail_log_power": 0.0}')
    with pytest.raises(ProfileFormatError):
        read_profile(path)  # too few points for a valid grid
    path.write_text(
        "r,value\n" + "\n".join(f"{r},1.0" for r in np.geomspace(1, 100, 20)[::-1])
    )
    with pytest.raises(ProfileFormatError, match="increasing"):
        read_profile(path)
    path.write_text(
        "r,value\n" + "\n".join(f"{r},-1.0" for r in np.geomspace(0.01, 100, 20))
    )
    with pytest.raises(ProfileFormatError, match="negative"):
        read_profile(path)


def _slopes_at_k_over_p(r):
    """Slope 3 on [1, 10] and 3/2 on [10, 100]: at n = 3 the masses and the
    p = 1 norm meet k = m p on the first stretch, the p = 2 norm on the second."""
    if r <= 1.0:
        return 1.0
    if r <= 10.0:
        return r**-3.0
    if r <= 100.0:
        return 1e-3 * (r / 10.0) ** -1.5
    return 1e-3 * 10.0**-1.5 * (r / 100.0) ** -5.0


def _compact_support(pts):
    """Zero, a linear rise over one cell, 1/r, a linear fall to zero over one
    cell, zero: exactly the interpolant of its grid values."""
    a, b, c, d = pts[20], pts[21], pts[40], pts[41]

    def f(r):
        if r <= a or r >= d:
            return 0.0
        if r < b:
            return (r - a) / (b - a) / b
        if r <= c:
            return 1.0 / r
        return (d - r) / (d - c) / c

    return f, [a, b, c, d]


def _quad_integral(func, n, p, upper, breaks):
    """s_{n-1} int_0^upper r^{n-1} func(r)^p dr, adaptive quadrature between breaks."""
    edges = [0.0] + [b for b in breaks if b < upper] + [upper]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += integrate.quad(lambda r: r ** (n - 1) * func(r) ** p, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return sphere_surface(n) * total


def _cell_rule_case(kind):
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    if kind == "log cells":
        func, breaks = _slopes_at_k_over_p, [1.0, 10.0, 100.0]
        f = RadialFunction(g, [func(r) for r in g.points], tail_exponent=5.0)
        xs = [0.005, 0.5, 3.7, 37.0, 500.0]
    else:
        func, breaks = _compact_support(g.points)
        f = RadialFunction(g, [func(r) for r in g.points], tail_exponent=math.inf)
        xs = [math.sqrt(breaks[0] * breaks[1]), 1.0, math.sqrt(breaks[2] * breaks[3]), 50.0, 200.0]
    return f, func, breaks, xs


@pytest.mark.parametrize("kind", ["log cells", "vanishing cells"])
@pytest.mark.parametrize("quantity", ["mass", "norm p=1", "norm p=2"])
def test_cell_rule_branches_against_quad(kind, quantity):
    # the log form (k = m p) and the Gauss-Legendre rule of cells with a
    # vanishing endpoint, each against quadrature of the exact profile
    f, func, breaks, xs = _cell_rule_case(kind)
    n = 3
    if quantity == "mass":
        got = f.cumulative_mass(n, np.array(xs))
        oracle = [_quad_integral(func, n, 1.0, x, breaks) for x in xs]
        assert np.allclose(got, oracle, rtol=1e-10, atol=0.0)
    else:
        p = float(quantity[-1])
        oracle = _quad_integral(func, n, p, np.inf, breaks) ** (1.0 / p)
        assert lp_norm(f, p, 0.0, n) == pytest.approx(oracle, rel=1e-10)


def test_log_tail_rule_is_kept_per_tail_model_and_radii():
    # the log tail's quadrature rule is kept per (ln r_max, a = n - T, L,
    # ln(x / r_max));
    # each variant differs in one of them from the first source, whose rule
    # is kept, and must give what a cleared cache gives
    rules = radial._log_tail_rule
    rules.cache_clear()
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    x = np.geomspace(2e2, 1e6, 7)

    def log_tail(grid, T=6.0, L=1.0, scale=1.0):
        r = grid.points
        values = scale * (1.0 + r**2) ** (-T / 2.0) * (1.0 + np.log1p(r)) ** L
        return RadialFunction(grid, values, tail_exponent=T, tail_log_power=L)

    first = log_tail(grid).cumulative_mass(5, x)
    assert rules.cache_info()[:2] == (0, 1)
    # new values, same tail model and radii: served from the cache
    doubled = log_tail(grid, scale=2.0).cumulative_mass(5, x)
    assert rules.cache_info()[:2] == (1, 1)
    assert np.allclose(doubled, 2.0 * first, rtol=1e-14, atol=0.0)
    variants = {
        "ln r_max": (log_tail(RadialGrid.per_decade(1e-2, 1.5e2, 16)), x),
        "a": (log_tail(grid, T=7.0), x),
        "L": (log_tail(grid, L=2.0), x),
        "x": (log_tail(grid), 1.5 * x),
    }
    for name, (f, at) in variants.items():
        misses = rules.cache_info().misses
        warm = f.cumulative_mass(5, at)
        assert rules.cache_info().misses == misses + 1, name
        rules.cache_clear()
        assert np.array_equal(f.cumulative_mass(5, at), warm), name
        log_tail(grid).cumulative_mass(5, x)  # the first source's rule again
    rules.cache_clear()


def test_power_cell_integrals_near_k_equal_mp_match_mpmath():
    # the Logarithmic ansatz's u, raised to p = 5/3, has k - m p ~ 6e-6 in its
    # last cells at k = n = 5: the rule v_a^p r_a^k expm1(z)/(k - m p), z =
    # (k - m p) L, is free of the cancellation that
    # (f(x)^p x^k - v_a^p r_a^k)/(k - m p) suffered there; measured
    # 5.7e-16 - 1.1e-15, against 2.3e-10 - 5.5e-10 with that form (f(x) the
    # grid values) and 1.6e-11 - 1.8e-9 (f(x) from the cell's power law)
    mpmath = pytest.importorskip("mpmath")
    from wolffkit.params import Parameters
    from wolffkit.solver import default_solver_grid, make_ansatz

    params = Parameters(5, 1.0, 2.0, 5 / 3, 31 / 9, 0.0, 0.0)
    u, _ = make_ansatz(params, default_solver_grid())
    r, vals, k, p = u.grid.points, u.values, 5.0, params.p
    idx = np.arange(r.size - 6, r.size - 1)
    got = u._integrals(k, p, idx + 1, np.log(r[idx + 1] / r[idx]))  # slots and located offsets
    assert np.all(np.abs(k - u._slots["m"][idx + 1] * p) < 1e-4)
    with mpmath.workdps(40):
        for i, g in zip(idx, got):
            ra, rb = mpmath.mpf(r[i]), mpmath.mpf(r[i + 1])
            va, vb = mpmath.mpf(vals[i]), mpmath.mpf(vals[i + 1])
            span = mpmath.log(rb / ra)
            z = (k + p * mpmath.log(vb / va) / span) * span  # (k - m p) L, exact m
            want = va**p * ra**k * span * mpmath.expm1(z) / z
            assert abs(g / want - 1) <= 1e-14


def test_rising_cell_far_out_of_float_range_matches_the_earlier_telescoped_form():
    # the first cell rises from 1e-300 to 1e-20: at p = 2, k = 3 its
    # (k - m p) L is about 1.3e3, so e^z overflows and v_a^p underflows; the
    # telescoped form (f(x)^p x^k - v_a^p r_a^k)/(k - m p) gave this value
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    vals = (1.0 + g.points**2) ** -3.0
    vals[0], vals[1] = 1e-300, 1e-20
    f = RadialFunction(g, vals, tail_exponent=6.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lp_norm(f, 2, n=3)
    assert got == pytest.approx(0.7322291156656563, rel=1e-12)


def _profile_files(tmp, rows="default", sidecar="default"):
    """A profile CSV and sidecar in tmp; rows and sidecar replace the valid ones."""
    path = tmp / "f.csv"
    if rows == "default":
        rows = "r,value\n" + "\n".join(f"{float(r)!r},1.0" for r in np.geomspace(1e-2, 1e2, 20))
    if rows is not None:
        path.write_text(rows)
    if sidecar == "default":
        sidecar = {"head_exponent": 0.0, "tail_exponent": 3.0, "tail_log_power": 0.0}
    if sidecar is not None:
        (tmp / "f.json").write_text(json.dumps(sidecar))
    return path


def _read(tmp, **files):
    return read_profile(_profile_files(tmp, **files))


def test_read_profile_skips_blank_rows(tmp_path):
    rows = [f"{float(r)!r},{float(v)!r}" for r, v in zip(np.geomspace(1e-2, 1e2, 20), np.linspace(1.0, 2.0, 20))]
    plain = _read(tmp_path, rows="r,value\n" + "\n".join(rows) + "\n")
    spaced = _read(tmp_path, rows="r,value\n\n" + "\n\n".join(rows) + "\n\n")
    assert np.array_equal(spaced.grid.points, plain.grid.points)
    assert np.array_equal(spaced.values, plain.values) and spaced.grid.count == 20


_G = RadialGrid.per_decade(1e-2, 1e2, 16)
_ONES = np.ones(_G.count)
_LOG_TAILED = RadialFunction(_G, _ONES, tail_exponent=3.0, tail_log_power=1.0)
_SMALL = RadialGrid.per_decade(1e-3, 1.0, 16)

RADIAL_RAISE_SITES = [
    ("shape", lambda tmp: RadialFunction(_G, _ONES[:-1]), ParameterError, "matching shapes"),
    ("negative", lambda tmp: RadialFunction(_G, -_ONES), ParameterError, "nonnegative"),
    ("head", lambda tmp: RadialFunction(_G, _ONES, head_exponent=math.nan), ParameterError,
     "head_exponent must be finite"),
    ("tail nan", lambda tmp: RadialFunction(_G, _ONES, tail_exponent=math.nan), ParameterError,
     "tail_exponent must be a number or +inf"),
    ("tail -inf", lambda tmp: RadialFunction(_G, _ONES, tail_exponent=-math.inf), ParameterError,
     "tail_exponent must be a number or +inf"),
    ("tail log +inf", lambda tmp: RadialFunction(_G, _ONES, tail_exponent=3.0, tail_log_power=math.inf),
     ParameterError, "tail_log_power must be finite"),
    ("tail log -inf", lambda tmp: RadialFunction(_G, _ONES, tail_exponent=3.0, tail_log_power=-math.inf),
     ParameterError, "tail_log_power must be finite"),
    ("tail log nan", lambda tmp: RadialFunction(_G, _ONES, tail_log_power=math.nan), ParameterError,
     "tail_log_power must be finite"),
    ("log tail r_max <= 1", lambda tmp: RadialFunction(_SMALL, np.ones(_SMALL.count), tail_exponent=3.0,
                                                        tail_log_power=1.0), ParameterError, "r_max > 1"),
    ("scaled", lambda tmp: _LOG_TAILED.scaled(-1.0), ParameterError, "amplitude"),
    ("dilate lam", lambda tmp: RadialFunction(_G, _ONES).dilate(0.0), ParameterError, "positive"),
    ("dilate log tail", lambda tmp: _LOG_TAILED.dilate(2.0), ParameterError, "log-corrected"),
    ("cumulative_mass", lambda tmp: _LOG_TAILED.cumulative_mass(3, [-1.0]), ParameterError, "x >= 0"),
    ("cumulative_mass nan", lambda tmp: _LOG_TAILED.cumulative_mass(3, [1.0, math.nan]), ParameterError,
     "x >= 0, got nan"),
    ("lp_norm", lambda tmp: lp_norm(_LOG_TAILED, 0.5), ParameterError, "p must be >= 1"),
    ("lp_norm nan", lambda tmp: lp_norm(_LOG_TAILED, math.nan), ParameterError,
     "p must be >= 1, got nan"),
    ("lp_norm weight nan", lambda tmp: lp_norm(_LOG_TAILED, 2.0, math.nan), ParameterError,
     "weight exponent must be a number, got nan"),
    ("fit points", lambda tmp: fit_decay_rate(_LOG_TAILED, (1.0, 1.5)), ParameterError, "fewer than 8"),
    ("fit log window", lambda tmp: fit_decay_rate(_LOG_TAILED, (0.5, 50.0), allow_log=True),
     ParameterError, "r > 1"),
    ("grid inf", lambda tmp: RadialGrid(np.append(np.geomspace(1e-2, 1e2, 20), math.inf)), ParameterError,
     "finite and positive"),
    ("grid nan", lambda tmp: RadialGrid(np.append(math.nan, np.geomspace(1e-2, 1e2, 20))), ParameterError,
     "finite and positive"),
    ("grid zero", lambda tmp: RadialGrid(np.append(0.0, np.geomspace(1e-2, 1e2, 20))), ParameterError,
     "finite and positive"),
    ("per_decade", lambda tmp: RadialGrid.per_decade(-1.0, 1e2), ParameterError, "r_min = -1.0"),
    ("read csv", lambda tmp: _read(tmp, rows=None), ProfileFormatError, "CSV not found"),
    ("read sidecar", lambda tmp: _read(tmp, sidecar=None), ProfileFormatError, "missing JSON sidecar"),
    ("read keys", lambda tmp: _read(tmp, sidecar={"head_exponent": 0.0}), ProfileFormatError,
     "missing keys: ['tail_exponent', 'tail_log_power']"),
    ("read header", lambda tmp: _read(tmp, rows="radius,f\n1.0,1.0\n"), ProfileFormatError,
     "expected header"),
    ("read row", lambda tmp: _read(tmp, rows="r,value\n1.0\n"), ProfileFormatError, "malformed row"),
    ("read number", lambda tmp: _read(tmp, rows="r,value\n1.0,x\n"), ProfileFormatError,
     "non-numeric row"),
    ("read order", lambda tmp: _read(tmp, rows="r,value\n2.0,1.0\n1.0,1.0\n"), ProfileFormatError,
     "not strictly increasing"),
    ("read sign", lambda tmp: _read(tmp, rows="r,value\n1.0,-1.0\n2.0,1.0\n"), ProfileFormatError,
     "negative profile values"),
    ("read grid", lambda tmp: _read(tmp, rows="r,value\n1.0,1.0\n2.0,1.0\n"), ProfileFormatError,
     "grid needs at least 16 points"),
    ("read nan", lambda tmp: _read(tmp, sidecar={"head_exponent": 0.0, "tail_exponent": math.nan,
                                                  "tail_log_power": 0.0}),
     ProfileFormatError, "tail_exponent must be a number or +inf"),
]


@pytest.mark.parametrize(
    "site, call, error, fragment", RADIAL_RAISE_SITES, ids=[s[0] for s in RADIAL_RAISE_SITES]
)
def test_radial_raise_sites(tmp_path, site, call, error, fragment):
    with pytest.raises(error) as err:
        call(tmp_path)
    assert fragment in str(err.value)


def test_quad_boundaries_piece_count_is_dilation_invariant():
    # an eighth-decade piece is two cells at 16 points a decade; summing the
    # cell widths rounded either side of the limit, which split a grid and
    # its dilations into 26 and 25 pieces
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    counts = set()
    for lam in (1.0, 3.0, 1.0 / 3.0, 0.1):
        f = RadialFunction(RadialGrid(grid.points * lam), np.ones(grid.count), tail_exponent=5.0)
        counts.add(f.quad_boundaries.size - 1)
    assert counts == {32}
