import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from wolffkit.errors import ParameterError, ProfileFormatError
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
    into power and linear cells and ln of each point's left value.  Returns
    the values and the mask of points evaluated on power cells."""
    out = np.empty_like(r)
    pts, v = f.grid.points, f.values
    head, tail = r < pts[0], r > pts[-1]
    body = ~(head | tail)
    out[head] = v[0] * (r[head] / pts[0]) ** (-f.head_exponent) if v[0] > 0 else 0.0
    if math.isinf(f.tail_exponent) or v[-1] == 0.0:
        out[tail] = 0.0
    else:
        factor = (r[tail] / pts[-1]) ** (-f.tail_exponent)
        if f.tail_log_power != 0.0:
            factor = factor * (np.log(r[tail]) / np.log(pts[-1])) ** f.tail_log_power
        out[tail] = v[-1] * factor
    rb = r[body]
    idx = np.clip(np.searchsorted(pts, rb, side="right") - 1, 0, pts.size - 2)
    power, m = f._cells["power"][idx], f._cells["m"][idx]
    ra, rb_hi, va, vb = pts[idx], pts[idx + 1], v[idx], v[idx + 1]
    res = np.empty_like(rb)
    res[power] = np.exp(np.log(va[power]) - m[power] * np.log(rb[power] / ra[power]))
    lin = ~power
    res[lin] = va[lin] + (vb[lin] - va[lin]) * (rb[lin] - ra[lin]) / (rb_hi[lin] - ra[lin])
    out[body] = res
    on_power = np.zeros(r.size, dtype=bool)
    on_power[np.flatnonzero(body)[power]] = True
    return out, on_power


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


def test_call_far_off_the_grid_raises_no_numeric_warning():
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    rising = RadialFunction(g, g.points**2, tail_exponent=3.0)
    steep = RadialFunction(g, np.exp(-g.points) * g.points**-40.0, head_exponent=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = np.array([1e3, 1e150, 1e300])
        far = rising(r)
        near = steep(np.array([0.0, 1e-300, 1e-200]))
    assert np.array_equal(far, rising.values[-1] * (r / g.r_max) ** -3.0)
    assert np.array_equal(near, np.full(3, steep.values[0]))


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
    assert float(ind.total_mass(3)) == pytest.approx(unit_ball_volume(3), rel=1e-12)
    slow = power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 2.0)
    assert slow.total_mass(5) is INFINITE


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
