import math

import numpy as np
import pytest

from wolffkit import geometry, potential
from wolffkit.errors import DivergentIntegralError, ParameterError
from wolffkit.potential import (
    PotentialConfig,
    riesz_eval,
    riesz_eval_at,
    weighted_source,
    wolff_eval,
    wolff_eval_at,
)
from wolffkit.radial import (
    RadialFunction,
    RadialGrid,
    fit_decay_rate,
    sphere_surface,
    unit_ball_volume,
)

from conftest import clear_stores, indicator_of_ball, power_tail_profile
from lens_oracle import wolff_unit_ball


def wolff_indicator_at_origin(n, beta, gamma):
    # the inner mass is omega_n * min(t,1)^n, making both t-pieces elementary
    g = gamma - 1.0
    bg = beta * gamma
    return unit_ball_volume(n) ** (1.0 / g) * (g / bg + g / (n - bg))


@pytest.mark.parametrize(
    "n, beta, gamma",
    [(5, 1.0, 2.0), (3, 0.5, 1.5), (6, 2.0, 1.8), (4, 1.2, 2.0), (5, 2.2, 1.3)],
)
def test_wolff_indicator_closed_form_at_origin(unit_indicator, n, beta, gamma):
    got = wolff_eval_at(unit_indicator, n, beta, gamma, [0.0])[0]
    assert got == pytest.approx(wolff_indicator_at_origin(n, beta, gamma), rel=1e-6)


def _origin_identity_error(n, gamma, sigma, per_decade):
    """s_{n-1}^{-1/(gamma-1)} W_{1,gamma}[mu](0) / U(0) - 1 on the Talenti
    (sigma = 0) or Ghoussoub-Yuan profile U = (1 + r^a)^{-(n-gamma)/(gamma+sigma)},
    a = (gamma+sigma)/(gamma-1), whose source -Delta_gamma U is
    mu = c r^sigma U^{p*}, p* = (n+sigma)gamma/(n-gamma) - 1 and
    c = (n+sigma)((n-gamma)/(gamma-1))^{gamma-1}.  The flux identity
    |U'|^{gamma-1} = mu(B_r) / (s_{n-1} r^{n-1}) makes U(0) = 1 exactly that
    multiple of W(0)."""
    grid = RadialGrid.per_decade(1e-2, 1e3, per_decade)
    r = grid.points
    g = gamma - 1.0
    u = (1.0 + r ** ((gamma + sigma) / g)) ** (-(n - gamma) / (gamma + sigma))
    p_star = (n + sigma) * gamma / (n - gamma) - 1.0
    c = (n + sigma) * ((n - gamma) / g) ** g
    mu = RadialFunction(
        grid, c * r**sigma * u**p_star, head_exponent=-sigma, tail_exponent=p_star * (n - gamma) / g - sigma
    )
    return sphere_surface(n) ** (-1.0 / g) * wolff_eval_at(mu, n, 1.0, gamma, [0.0])[0] - 1.0


@pytest.mark.parametrize("sigma", [0.0, -0.5])
@pytest.mark.parametrize("n, gamma", [(3, 2.0), (3, 1.6), (3, 1.3), (5, 1.5)])
def test_wolff_origin_identity_on_exact_profiles(n, gamma, sigma):
    # the error is second order in the grid spacing: at 16/dec it reads
    # -1.8e-3 to -2.0e-2, the observed order 1.98-2.00, and the (16, 32)
    # Richardson value 2.2e-6 to 8.4e-5
    e16, e32 = (_origin_identity_error(n, gamma, sigma, per) for per in (16, 32))
    assert abs(e16) <= 3e-2
    assert 1.8 <= math.log2(e16 / e32) <= 2.2
    assert abs((4.0 * e32 - e16) / 3.0) <= 2e-4


def test_wolff_homogeneity(unit_indicator):
    lam = 3.7
    gamma = 1.6
    base = wolff_eval_at(unit_indicator, 5, 1.0, gamma, [0.0, 0.5, 2.0])
    scaled = wolff_eval_at(unit_indicator.scaled(lam), 5, 1.0, gamma, [0.0, 0.5, 2.0])
    assert np.allclose(scaled, lam ** (1.0 / (gamma - 1.0)) * base, rtol=1e-12)


def test_riesz_indicator_closed_form_at_origin(unit_indicator):
    for n, alpha in [(5, 2.0), (3, 1.5), (4, 2.5)]:
        got = riesz_eval_at(unit_indicator, n, alpha, [0.0])[0]
        assert got == pytest.approx(sphere_surface(n) / alpha, rel=1e-8)


def test_riesz_far_field_is_point_mass_kernel(unit_indicator):
    # far from a compactly supported source, I_alpha(f)(x) ~ mass * |x|^{alpha-n}
    n, alpha = 5, 2.0
    rho = 250.0
    got = riesz_eval_at(unit_indicator, n, alpha, [rho])[0]
    assert got == pytest.approx(unit_ball_volume(n) * rho ** (alpha - n), rel=1e-3)


def test_wolff_of_zero_source_or_no_centres_is_empty_work(unit_indicator):
    zero = unit_indicator.with_values(np.zeros(unit_indicator.grid.count))
    for gamma in (2.0, 1.6):
        got = wolff_eval_at(zero, 5, 1.0, gamma, [0.0, 0.5, 2.0])
        assert np.array_equal(got, np.zeros(3))
    none = wolff_eval_at(unit_indicator, 5, 1.0, 2.0, [])
    assert none.shape == (0,)


def test_radial_evaluation_is_deterministic(unit_indicator):
    a = wolff_eval_at(unit_indicator, 5, 1.0, 2.0, [0.3, 1.0, 2.0])
    b = wolff_eval_at(unit_indicator, 5, 1.0, 2.0, [0.3, 1.0, 2.0])
    assert np.array_equal(a, b)


def test_weighted_source_algebra():
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    f = power_tail_profile(g, 1.0, 3.0)
    out = weighted_source(-1.0, 2.0, f)
    assert out.tail_exponent == pytest.approx(7.0)  # 2*3 + 1
    assert out.head_exponent == pytest.approx(1.0)  # 2*0 - (-1)
    assert np.allclose(out.values, g.points**-1.0 * f.values**2)
    ident = weighted_source(0.0, 1.0, f)
    assert np.array_equal(ident.values, f.values)
    assert ident.tail_exponent == f.tail_exponent


def test_weighted_source_log_power_scales():
    g = RadialGrid.per_decade(10.0, 1e4, 16)
    f = RadialFunction(g, g.points**-3.0, head_exponent=3.0, tail_exponent=3.0, tail_log_power=1.0)
    out = weighted_source(0.0, 2.5, f)
    assert out.tail_log_power == pytest.approx(2.5)


def test_second_order_identity_on_battery():
    grids = RadialGrid.per_decade(1e-2, 1e2, 16)
    battery = [
        indicator_of_ball(1.0),
        power_tail_profile(grids, 0.5, 9.0),  # sharply localized bump
        power_tail_profile(grids, 1.0, 7.0),  # power-law tail
    ]
    n, alpha = 5, 2.0
    for f in battery:
        w = wolff_eval(f, n, alpha / 2.0, 2.0)
        r = riesz_eval(f, n, alpha)
        assert np.max(np.abs(w.values / (r.values / (n - alpha)) - 1.0)) <= 1e-3


def test_wolff_monotone_in_source():
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    f = power_tail_profile(g, 1.0, 7.0)
    bigger = f.with_values(f.values * (1.0 + 0.4 * np.cos(np.log(g.points)) ** 2))
    wf = wolff_eval(f, 5, 1.0, 1.7)
    wg = wolff_eval(bigger, 5, 1.0, 1.7)
    assert np.all(wf.values <= wg.values * (1.0 + 1e-10))


def test_wolff_output_fast_tail_and_lower_bound():
    # any compactly-supported-mass source decays no faster than the fast rate
    n, beta, gamma = 5, 1.0, 2.0
    fast = (n - beta * gamma) / (gamma - 1.0)
    f = indicator_of_ball(1.0)
    grid = RadialGrid.per_decade(1e-1, 1e3, 16)
    w = wolff_eval(f, n, beta, gamma, eval_grid=grid)
    assert w.tail_exponent == pytest.approx(fast)
    fit = fit_decay_rate(w, (10.0, 1e3))
    assert fit.exponent <= fast + 0.02


def test_wolff_output_tail_trichotomy():
    n, beta, gamma = 5, 1.0, 2.0
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    finite = wolff_eval(power_tail_profile(g, 1.0, 7.0), n, beta, gamma)
    assert finite.tail_exponent == pytest.approx(3.0)
    assert finite.tail_log_power == 0.0
    borderline = wolff_eval(power_tail_profile(g, 1.0, 5.0), n, beta, gamma)
    assert borderline.tail_exponent == pytest.approx(3.0)
    assert borderline.tail_log_power == pytest.approx(1.0)
    slow = wolff_eval(power_tail_profile(g, 1.0, 4.0), n, beta, gamma)
    assert slow.tail_exponent == pytest.approx(2.0)  # (4 - 2)/(2 - 1)


def test_wolff_borderline_source_grows_log_factor():
    # mass ~ log t makes the potential carry (ln r)^{1/(gamma-1)}
    n, beta, gamma = 5, 1.0, 2.0
    g = RadialGrid.per_decade(1e-2, 1e3, 16)
    src = power_tail_profile(g, 1.0, 5.0)
    grid = RadialGrid.per_decade(1.5, 1e3, 16)
    w = wolff_eval(src, n, beta, gamma, eval_grid=grid)
    fit = fit_decay_rate(w, (10.0, 1e3), allow_log=True)
    assert fit.exponent == pytest.approx(3.0, abs=0.1)
    assert fit.log_power == pytest.approx(1.0, abs=0.35)


def test_wolff_divergence_errors():
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    too_slow = power_tail_profile(g, 1.0, 1.5)  # tail below beta*gamma = 2
    with pytest.raises(DivergentIntegralError):
        wolff_eval(too_slow, 5, 1.0, 2.0)
    singular = RadialFunction(g, g.points**-5.0, head_exponent=5.0, tail_exponent=7.0)
    with pytest.raises(DivergentIntegralError):
        wolff_eval(singular, 5, 1.0, 2.0)
    with pytest.raises(DivergentIntegralError):
        riesz_eval(too_slow, 5, 2.0)


def test_head_closure_diverges_at_the_origin():
    # the head is integrable (h = 3 < n = 5), but at rho = 0 the t-integrand
    # grows like t^{(n - h) - (n - beta*gamma)} = t^{-1} below t_min
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    r = g.points
    f = RadialFunction(g, r**-3.0 * (1.0 + r**2) ** -3.0, head_exponent=3.0, tail_exponent=9.0)
    assert f.head_integrable(5)
    with pytest.raises(DivergentIntegralError, match="potential diverges at the origin"):
        wolff_eval_at(f, 5, 1.0, 2.0, [0.0])
    assert wolff_eval_at(f, 5, 1.0, 2.0, [1.0])[0] > 0.0


def test_vanishing_decay_rate_beyond_t_max_raises():
    # beta*gamma = n - 2e-11: the integrand decays at 2e-11 per e-fold of t
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    with pytest.raises(DivergentIntegralError, match="effective decay rate 2.000e-11"):
        wolff_eval_at(power_tail_profile(g, 1.0, 9.0), 3, 1.5 - 1e-11, 2.0, [1.0])


def test_config_invariants():
    with pytest.raises(ParameterError):
        PotentialConfig(t_nodes_per_decade=4)


def test_parameter_validation(unit_indicator):
    with pytest.raises(ParameterError, match="gamma"):
        wolff_eval(unit_indicator, 5, 1.0, 2.5)
    with pytest.raises(ParameterError):
        wolff_eval(unit_indicator, 5, 3.0, 2.0)  # beta*gamma >= n
    with pytest.raises(ParameterError, match="alpha"):
        riesz_eval(unit_indicator, 5, 6.0)
    with pytest.raises(ParameterError, match="n >= 3 violated"):
        riesz_eval(unit_indicator.scaled(0.0), 2, 1.0)  # even where no quadrature would run


def test_config_round_trip():
    cfg = PotentialConfig(t_nodes_per_decade=24)
    assert PotentialConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("n, beta, gamma", [(5, 0.3, 2.0), (3, 0.3, 2.0)])
@pytest.mark.parametrize("source", ["bump", "ball"])
def test_head_closure_matches_a_lower_t_min(unit_indicator, source, n, beta, gamma, monkeypatch):
    # below t_min = rho 10^-3 the outer integral is closed analytically; at
    # small beta*gamma that piece is percents of the potential, and at r_max
    # of the ball the density jumps, so the ball there holds half of
    # f(rho) omega_n t^n.  Against t_min = rho 10^-7 it reads <= 7.2e-6
    if source == "bump":
        f = power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 9.0)
    else:
        f = unit_indicator
    rhos = np.append(f.grid.points[::4], f.grid.r_max)
    got = wolff_eval_at(f, n, beta, gamma, rhos)
    monkeypatch.setattr(potential, "_RELATIVE_DECADES", 7.0)
    ref = wolff_eval_at(f, n, beta, gamma, rhos)
    assert np.max(np.abs(got / ref - 1.0)) < 1e-4


@pytest.mark.parametrize("n, beta, gamma", [(3, 0.8, 2.0), (5, 1.0, 2.0)])
def test_default_t_min_follows_a_centre_below_r_min(n, beta, gamma, monkeypatch):
    # the t < t_min closure assumes t << rho; at rho = r_min/10 a t_min of
    # r_min/10 = rho is off by 2.8e-3 and 6.0e-4 on this head-singular
    # profile, and t_min = rho 10^-3 against rho 10^-7 by 3.3e-6
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    r = grid.points
    f = RadialFunction(grid, r**-1.5 * (1.0 + r**2) ** -3.0, head_exponent=1.5, tail_exponent=7.5)
    got = wolff_eval_at(f, n, beta, gamma, [1e-3])
    monkeypatch.setattr(potential, "_RELATIVE_DECADES", 7.0)
    ref = wolff_eval_at(f, n, beta, gamma, [1e-3])
    assert abs(got[0] / ref[0] - 1.0) < 1e-5


def test_repeat_wolff_eval_on_one_grid_reuses_kernel_weights(cap_calls):
    # the solver's grid: 81 centres, two sources as in one system-map application
    grid = RadialGrid.per_decade(1e-2, 1e3, 16)
    u = power_tail_profile(grid, 1.0, 3.0)
    v = weighted_source(0.0, 2.0, power_tail_profile(grid, 0.7, 3.5))
    wu = wolff_eval(u, 5, 1.0, 2.0)
    wolff_eval(v, 5, 1.0, 2.0)
    # one reference plan serves every centre of both maps
    assert grid.count == 81 and len(cap_calls) == 1
    clear_stores()
    assert np.array_equal(wolff_eval(u, 5, 1.0, 2.0).values, wu.values)


def test_store_holds_every_plan_of_the_121_point_grid(cap_calls):
    # RadialGrid.per_decade(1e-2, 1e3, 24): the 121 centres read one
    # reference plan, which is kept, so a repeat map builds none
    grid = RadialGrid.per_decade(1e-2, 1e3, 24)
    u = power_tail_profile(grid, 1.0, 3.0)
    wolff_eval(u, 5, 1.0, 2.0)
    assert grid.count == 121 and len(cap_calls) == 1
    wolff_eval(u.with_values(3.0 * u.values), 5, 1.0, 2.0)
    assert len(cap_calls) == 1


@pytest.mark.parametrize("n, beta, gamma", [(3, 1.0, 1.6), (5, 1.0, 2.0), (5, 0.3, 2.0)])
def test_dilation_homogeneity_shares_plans_at_powers_of_two(n, beta, gamma):
    # W f_lam(x) = lam^{-beta gamma/(gamma-1)} W f(lam x), f_lam(r) = f(lam r).
    # A grid dilated by 4 has the base grid's points over 4 exactly, so the
    # homogeneity holds to rounding; a grid dilated by 3 takes another node
    # layout (quad_boundaries merges its cells otherwise)
    f = power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 7.0)
    rhos = np.geomspace(0.05, 50.0, 7)
    base = wolff_eval_at(f, n, beta, gamma, rhos)
    power = beta * gamma / (gamma - 1.0)
    for lam, rtol in ((4.0, 1e-12), (3.0, 1e-5)):
        got = wolff_eval_at(f.dilate(lam), n, beta, gamma, rhos / lam)
        assert np.max(np.abs(got / (lam**-power * base) - 1.0)) <= rtol


def test_changed_t_resolution_misses_the_store(cap_calls):
    f = power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 7.0)
    rhos = [0.5, 2.0]
    wolff_eval_at(f, 5, 1.0, 2.0, rhos)
    before = len(cap_calls)
    fine = wolff_eval_at(f, 5, 1.0, 2.0, rhos, PotentialConfig(t_nodes_per_decade=24))
    assert len(cap_calls) == before + 1  # the finer panels' reference plan
    clear_stores()
    cold = wolff_eval_at(f, 5, 1.0, 2.0, rhos, PotentialConfig(t_nodes_per_decade=24))
    assert np.array_equal(fine, cold)


def test_window_beyond_t_max_matches_panels_up_to_ten_times_t_max(monkeypatch):
    # the window's share is largest for slow (T < n) and log (T = n) tails;
    # the panels of a 10x larger t_max, rho 10^4 and 1000 r_max at the
    # origin, integrate the same range directly (5.4e-12 measured)
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    r = g.points
    n = 5
    log_tail = RadialFunction(
        g, (1.0 + r**2) ** (-n / 2) * (1.0 + np.log1p(r)), tail_exponent=n, tail_log_power=1.0
    )
    slow = power_tail_profile(g, 1.0, 4.0)  # T = 4 < n
    rhos = [0.0, 1.0, 70.0]
    for f in (slow, log_tail):
        got = wolff_eval_at(f, n, 1.0, 2.0, rhos)
        with monkeypatch.context() as patch:
            patch.setattr(potential, "_RELATIVE_DECADES", 4.0)
            patch.setattr(potential, "_ORIGIN_RANGE", (0.1, 1000.0))
            want = wolff_eval_at(f, n, 1.0, 2.0, rhos)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-8


def test_window_masses_take_one_cumulative_mass_call(cap_calls, monkeypatch):
    # the window's t nodes are every centre's, so one cumulative_mass call
    # covers all centres, and every centre's covered radii t - rho ride in
    # the same call; on a log tail and on a linear cell (a vanishing value)
    # each radius's mass is its own, so the centres of one map give what
    # maps of one centre each give, bit for bit, on the shared path (the
    # log tail) and on the per-call path (the vanishing value)
    calls = []
    cumulative_mass = RadialFunction.cumulative_mass

    def counting(self, n, x):
        calls.append(np.size(x))
        return cumulative_mass(self, n, x)

    monkeypatch.setattr(RadialFunction, "cumulative_mass", counting)
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    r = g.points
    log_tailed = RadialFunction(
        g, (1.0 + r**2) ** -3 * (1.0 + np.log1p(r)), tail_exponent=6.0, tail_log_power=1.0
    )
    holed = log_tailed.values.copy()
    holed[30] = 0.0  # two linear cells around r = 0.75
    linear = log_tailed.with_values(holed)
    rhos = [0.05, 1.0, 7.0, 100.0]
    for f in (log_tailed, linear):
        clear_stores()
        calls.clear()
        together = wolff_eval_at(f, 5, 1.0, 1.6, rhos)
        assert len(calls) == 1
        wolff_eval_at(f, 5, 1.0, 1.6, rhos)
        assert len(calls) == 2
        # bit for bit what one call per centre gives
        clear_stores()
        apart = np.concatenate([wolff_eval_at(f, 5, 1.0, 1.6, [rho]) for rho in rhos])
        assert np.array_equal(together, apart)


def _log_tail_sources():
    """The Logarithmic tuple's ansatz on the solver's 81-point grid and its
    two sources: v's (log-corrected tail) and u's."""
    from wolffkit.params import Parameters
    from wolffkit.solver import default_solver_grid, make_ansatz

    params = Parameters(5, 1.0, 2.0, 5 / 3, 31 / 9, 0.0, 0.0)
    u, v = make_ansatz(params, default_solver_grid())
    return params, weighted_source(params.sigma1, params.q, v), weighted_source(params.sigma2, params.p, u)


def _map_costs(monkeypatch, f, n, beta, gamma):
    """The cumulative_mass calls, plans built and plan nodes evaluated of
    one wolff_eval of f, and the image."""
    mass_calls = []
    cumulative_mass = RadialFunction.cumulative_mass

    def counting(self, n, x):
        mass_calls.append(np.size(x))
        return cumulative_mass(self, n, x)

    plans, nodes = geometry.plans_built(), geometry.nodes_evaluated()
    with monkeypatch.context() as patch:
        patch.setattr(RadialFunction, "cumulative_mass", counting)
        image = wolff_eval(f, n, beta, gamma)
    return len(mass_calls), geometry.plans_built() - plans, geometry.nodes_evaluated() - nodes, image


def _one_plan_and_the_last_maps_masses():
    """The plan cache holds one reference plan, and the slot an array of
    masses, the last map's."""
    return geometry._built_plan.cache_info().currsize == 1 and isinstance(potential._last_map[1], np.ndarray)


def test_warm_wolff_map_does_only_value_dependent_work(cap_calls, plans_read, monkeypatch):
    # on the solver's 81-point grid, after a cold map of the log-tailed
    # source, a map of a source with another tail model (T, L) builds no
    # plan, makes one cumulative_mass call and samples the source 16 times
    # in each of the plan's 105 + 81 - 1 virtual cells, 2,960 samples for
    # every centre together: the reference plan and its stencil are free of
    # the model, and nothing is kept per model but the last map's masses
    params, log_tailed, other = _log_tail_sources()
    n, beta, gamma = params.n, params.beta, params.gamma
    count = log_tailed.grid.count
    model = lambda f: (f.tail_exponent, f.tail_log_power)
    assert model(other) != model(log_tailed)
    assert _map_costs(monkeypatch, log_tailed, n, beta, gamma)[:2] == (1, 1)
    calls, built, nodes, warm = _map_costs(monkeypatch, other, n, beta, gamma)
    plan = plans_read[0]
    assert plan.span == 105 and (calls, built, nodes) == (1, 0, 16 * (plan.span + count - 1)) == (1, 0, 2_960)
    assert len(cap_calls) == 1 and plans_read[1] is plan and _one_plan_and_the_last_maps_masses()
    clear_stores()
    assert np.array_equal(warm.values, wolff_eval(other, n, beta, gamma).values)


def test_battery_bumps_with_other_tails_share_their_grid_plans(cap_calls, monkeypatch):
    # two bumps of the inequality battery sit on one grid with different
    # tail exponents: the second map builds no plan
    from wolffkit.verify import standard_battery

    n, beta, gamma = 3, 1.0, 1.6
    first, second = standard_battery(n, seed=0, count=2)
    assert first.grid == second.grid and first.tail_exponent != second.tail_exponent
    calls, built, nodes, _ = _map_costs(monkeypatch, first, n, beta, gamma)
    assert calls == 1 and built == 1
    calls, built, warm_nodes, warm = _map_costs(monkeypatch, second, n, beta, gamma)
    assert (calls, built, warm_nodes) == (1, 0, nodes)
    assert len(cap_calls) == 1 and _one_plan_and_the_last_maps_masses()
    clear_stores()
    assert np.array_equal(warm.values, wolff_eval(second, n, beta, gamma).values)


def test_warm_masses_match_a_cleared_store_bit_for_bit(cap_calls):
    # ball masses from a kept reference plan against a cold computation, on
    # the log-tailed source, at grid points and between them
    params, f, _ = _log_tail_sources()
    kernel = geometry.CapKernel(params.n)
    g = f.with_values(f.values * (1.0 + 0.25 * np.sin(np.log(f.grid.points)) ** 2))
    tau = np.geomspace(1e-4, 1e6, 150)
    rhos = np.concatenate([f.grid.points[::8], f.grid.points[4::8] * 1.01]).tolist()

    def masses(source, rho):
        plan = geometry.reference_plan(kernel, source.grid.log_step, tau)
        return geometry.map_masses(kernel, source, np.array([rho]), (rho * tau)[None], plan)[0]

    for rho in rhos:
        masses(f, rho)
    warm = [masses(g, rho) for rho in rhos]
    assert len(cap_calls) == 1  # the plan served g
    for rho, kept in zip(rhos, warm):
        clear_stores()
        assert np.array_equal(kept, masses(g, rho))


def test_warm_map_pays_its_fixed_costs_once_per_map(cap_calls, plans_read, monkeypatch):
    # a warm map on the solver's 81-point grid: one cumulative_mass call for
    # every centre's window (2 x 81 x 64 radii) and covered radii (81 x 96),
    # so no further mass call, each centre's masses taken once per map (one
    # _plan_shells pass over all 81 centres and no ball_mass_batch call), one plan
    # lookup that builds nothing, and one new key and masses in the slot
    params, f, _ = _log_tail_sources()
    n, beta, gamma = params.n, params.beta, params.gamma
    count = f.grid.count
    wolff_eval(f, n, beta, gamma)  # cold: the plans
    mass_calls, batch_calls, passes = [], [], []
    cumulative_mass = RadialFunction.cumulative_mass
    plan_shells = geometry._plan_shells

    def counting_mass(self, n, x):
        mass_calls.append(np.size(x))
        return cumulative_mass(self, n, x)

    def counting_pass(kernel, source, rhos, plan):
        passes.append(rhos.tolist())
        return plan_shells(kernel, source, rhos, plan)

    monkeypatch.setattr(RadialFunction, "cumulative_mass", counting_mass)
    monkeypatch.setattr(geometry, "_plan_shells", counting_pass)
    monkeypatch.setattr(potential, "ball_mass_batch", lambda *a, **k: batch_calls.append(a))
    cold_key, built = potential._last_map[0], geometry.plans_built()
    warm = wolff_eval(f.with_values(2.0 * f.values), n, beta, gamma)
    assert count == 81 and len(cap_calls) == 1
    assert mass_calls == [2 * count * 64 + count * 96]
    assert passes == [f.grid.points.tolist()] and not batch_calls
    assert len(plans_read) == 2 and plans_read[1] is plans_read[0] and geometry.plans_built() == built
    key, masses = potential._last_map
    assert key != cold_key and masses.shape == (count, 192)
    monkeypatch.undo()
    clear_stores()
    assert np.array_equal(warm.values, wolff_eval(f.with_values(2.0 * f.values), n, beta, gamma).values)


def test_the_slot_serves_riesz_wolff_pairs_and_picard_copies(monkeypatch):
    # what the slot of the last map's masses is for: the inequality battery
    # maps each bump by the Riesz and then the Wolff operator on the same t
    # nodes (n = 3, gamma = 1.6), so its 5 maps make 3 stencil passes; a
    # diagonal Picard solve (Hardy FastFast) maps a v-source that is a
    # bit-equal copy of the u-source, so it makes one pass per iteration
    from wolffkit.params import Parameters
    from wolffkit.solver import solve_system
    from wolffkit.verify import check_inequalities

    passes, maps = [], []
    stencil_shells, wolff_eval_at_ = geometry._stencil_shells, potential.wolff_eval_at
    monkeypatch.setattr(geometry, "_stencil_shells", lambda f, plan: passes.append(1) or stencil_shells(f, plan))
    monkeypatch.setattr(potential, "wolff_eval_at", lambda *a, **k: maps.append(1) or wolff_eval_at_(*a, **k))
    clear_stores()
    check_inequalities(0, Parameters(3, 1.0, 1.6, 2.0, 2.75, 0.0, 0.0), p=1.5, count=2)
    assert (len(passes), len(maps)) == (3, 5)
    passes.clear()
    maps.clear()
    result = solve_system(Parameters(5, 1.0, 2.0, 2.0, 2.0, -0.5, -0.5))
    assert result.converged and len(passes) == result.iterations and len(maps) == 2 * result.iterations
    clear_stores()


def test_warm_map_evaluates_each_plan_node_slot_once_per_centre(cap_calls):
    # a warm 81-centre map of a T = 7 bump (n = 5, 16 points a decade) at
    # the grid points samples the source 16 times in each of the plan's
    # 105 + 81 - 1 virtual cells: 2,960 samples, where f at every node slot
    # of the plan per centre would give 15,590 x 81 = 1,262,790.  At the
    # 81 centres between the grid points it evaluates the source once per
    # node slot per centre
    u = power_tail_profile(RadialGrid.per_decade(1e-2, 1e3, 16), 1.0, 7.0)
    wolff_eval(u, 5, 1.0, 2.0)
    nodes = geometry.nodes_evaluated()
    wolff_eval(u.scaled(2.0), 5, 1.0, 2.0)
    assert u.grid.count == 81 and geometry.nodes_evaluated() - nodes == 16 * (105 + 81 - 1) == 2_960
    between = u.grid.points * 10 ** (1 / 32)
    wolff_eval_at(u, 5, 1.0, 2.0, between)
    nodes = geometry.nodes_evaluated()
    wolff_eval_at(u.scaled(2.0), 5, 1.0, 2.0, between)
    assert geometry.nodes_evaluated() - nodes == 15_590 * 81 == 1_262_790


# max relative error of riesz_eval_at at the 80 centres r_i 10^{1/32}
# between the solver grid's points against the benchmark's oracles (the
# shell theorem at alpha = 2, the 2F1 spherical mean otherwise), as
# measured.  Off the grid points the map sums f at rho times every plan
# node slot; the oracles share no code with it
_OFF_GRID_ERRORS = {
    ("bump", 5, 2.0): 2.632e-5,
    ("bump", 5, 1.2): 2.117e-5,
    ("bump", 3, 1.6): 1.409e-5,
    ("logv", 5, 2.0): 2.672e-6,
    ("logv", 5, 1.2): 4.694e-6,
    ("logv", 3, 1.6): 2.865e-6,
}


def _case_id(case):
    return "{}-{}-{}".format(*case)


def _off_grid_error(oracles, case, scale=1.0):
    """The case's error, with the map's values times scale: the T = 7 bump
    or the Logarithmic tuple's v (log tail) on the solver's 81-point grid."""
    from wolffkit.params import Parameters
    from wolffkit.solver import default_solver_grid, make_ansatz

    name, n, alpha = case
    _, v = make_ansatz(Parameters(5, 1.0, 2.0, 5 / 3, 31 / 9, 0.0, 0.0), default_solver_grid())
    f = v if name == "logv" else power_tail_profile(v.grid, 1.0, 7.0)
    rho = f.grid.points[:-1] * 10 ** (1 / 32)
    assert not np.isin(rho, f.grid.points).any()
    got = scale * riesz_eval_at(f, n, alpha, rho)
    profile = oracles.Profile.of(f)
    if alpha == 2.0:
        want = oracles.shell_potential(profile, n, rho)
    else:
        want = oracles.spherical_mean_riesz(profile, n, alpha, rho)
    return oracles.max_relative_error(got, want)


@pytest.mark.parametrize("case", sorted(_OFF_GRID_ERRORS), ids=_case_id)
def test_off_grid_maps_match_the_oracles(oracles, case):
    assert _off_grid_error(oracles, case) <= 1.1 * _OFF_GRID_ERRORS[case]


@pytest.mark.parametrize("case", sorted(_OFF_GRID_ERRORS), ids=_case_id)
def test_off_grid_check_fails_one_percent_high(oracles, case):
    assert not _off_grid_error(oracles, case, scale=1.01) <= 1.1 * _OFF_GRID_ERRORS[case]


def _covered_sources():
    """The log-tailed source of _log_tail_sources and a ball indicator, with
    their dimension and a second source on the same grid."""
    params, log_tailed, _ = _log_tail_sources()
    wobble = 1.0 + 0.25 * np.sin(np.log(log_tailed.grid.points)) ** 2
    ball = indicator_of_ball(1.5)
    return [
        (params.n, log_tailed, log_tailed.with_values(log_tailed.values * wobble)),
        (3, ball, ball.scaled(3.0)),
    ]


@pytest.mark.parametrize("case", [0, 1], ids=["log tail", "ball"])
def test_given_covered_masses_match_ball_mass_batch_alone(cap_calls, case):
    # covered masses a caller took from its own cumulative_mass call give
    # ball_mass_batch's masses bit for bit: cold, warm (a kept plan serving
    # another source) and after the stores are cleared.  The log tail takes
    # the reference plan off the origin, the ball nodes built per call
    n, f, g = _covered_sources()[case]
    kernel = geometry.CapKernel(n)
    tau = np.geomspace(1e-4, 1e6, 150)

    def call(source, rho, covered=None):
        t = rho * tau if rho > 0.0 else tau
        if covered is not None:
            covered = source.cumulative_mass(n, t[t > rho] - rho)
        if rho > 0.0 and not source.has_jump:
            plan = geometry.reference_plan(kernel, source.grid.log_step, tau)
            return geometry.map_masses(kernel, source, np.array([rho]), t[None], plan, covered)[0]
        return geometry.ball_mass_batch(kernel, source, rho, t, covered=covered)

    mass = lambda source, rho: call(source, rho)
    given = lambda source, rho: call(source, rho, covered=True)
    for rho in [0.0, *f.grid.points[::8].tolist(), 3.0 * f.grid.r_max]:
        clear_stores()
        alone_cold = mass(f, rho)
        clear_stores()
        assert np.array_equal(given(f, rho), alone_cold)
        alone_warm = mass(g, rho)  # f's plan serves g
        mass(f, rho)
        assert np.array_equal(given(g, rho), alone_warm)
        clear_stores()
        assert np.array_equal(given(g, rho), alone_warm)


@pytest.mark.parametrize("case", [0, 1], ids=["log tail", "ball"])
def test_maps_give_what_covered_masses_taken_per_centre_give(cap_calls, monkeypatch, case):
    # a map's covered masses from its one cumulative_mass call against a map
    # whose centres take their own, cold and warm: map_masses at one centre
    # at a time (the log tail), or ball_mass_batch with nodes built per call
    # (the ball)
    n, f, g = _covered_sources()[case]
    maps = [wolff_eval_at(source, n, 1.0, 1.6, f.grid.points) for source in (f, g)]
    ball_mass_batch, map_masses = geometry.ball_mass_batch, geometry.map_masses

    def taking_its_own(kernel, source, rho, t, covered=None):
        return ball_mass_batch(kernel, source, rho, t)

    def centre_by_centre(kernel, source, rhos, t, plan, covered):
        return np.vstack([map_masses(kernel, source, rhos[i : i + 1], t[i : i + 1], plan) for i in range(rhos.size)])

    monkeypatch.setattr(potential, "ball_mass_batch", taking_its_own)
    monkeypatch.setattr(potential, "map_masses", centre_by_centre)
    clear_stores()
    alone = [wolff_eval_at(source, n, 1.0, 1.6, f.grid.points) for source in (f, g)]
    for a, b in zip(maps, alone):
        assert np.array_equal(a, b)


@pytest.fixture
def layout_builds(monkeypatch):
    """Record the arguments of every layout build: the centres and each
    centre's panel boundaries."""
    calls = []
    build = potential._build_layout

    def counting(rhos, bounds):
        calls.append((rhos.tobytes(), b"".join(np.asarray(b).tobytes() for b in bounds)))
        return build(rhos, bounds)

    monkeypatch.setattr(potential, "_build_layout", counting)
    return calls


LAYOUT_GRID = RadialGrid.per_decade(1e-2, 1e2, 16)
# the origin among the centres puts a map on the per-call path
LAYOUT_RHOS = [0.0, 0.05, 1.0, 7.0, 100.0]


def test_warm_layout_serves_a_new_source_bit_for_bit(layout_builds):
    # a layout is free of the source's values: a second source on the grid
    # builds the layout the first built, one per map
    f = power_tail_profile(LAYOUT_GRID, 1.0, 7.0)
    g = power_tail_profile(LAYOUT_GRID, 0.5, 9.0)
    wolff_eval_at(f, 5, 1.0, 2.0, LAYOUT_RHOS)
    warm = wolff_eval_at(g, 5, 1.0, 2.0, LAYOUT_RHOS)
    assert len(layout_builds) == 2 and layout_builds[0] == layout_builds[1]
    clear_stores()
    assert np.array_equal(wolff_eval_at(g, 5, 1.0, 2.0, LAYOUT_RHOS), warm)
    assert len(layout_builds) == 3


# each case changes one component of the layout key and nothing else that
# the layout reads; slope_cap and a_eff are (n, beta, gamma) and source tails
# with equal a_eff (3) and equal slope_cap (5) respectively
LAYOUT_KEY_CHANGES = {
    "c rho": dict(rhos=[0.0, 0.05, 1.5, 7.0, 100.0]),
    "c r_min": dict(grid=RadialGrid.per_decade(1.2e-2, 1e2, 16)),
    "c r_max": dict(grid=RadialGrid.per_decade(1e-2, 2e2, 16)),
    "t_nodes_per_decade": dict(cfg=PotentialConfig(t_nodes_per_decade=24)),
    "slope_cap": dict(op=(6, 1.5, 2.0)),
    "a_eff": dict(tail=4.5),
}


@pytest.mark.parametrize("component", sorted(LAYOUT_KEY_CHANGES))
def test_changing_one_layout_key_component_rebuilds(layout_builds, component):
    def run(grid=LAYOUT_GRID, rhos=LAYOUT_RHOS, cfg=None, op=(5, 1.0, 2.0), tail=7.0):
        return wolff_eval_at(power_tail_profile(grid, 1.0, tail), *op, rhos, cfg)

    run()
    changed = run(**LAYOUT_KEY_CHANGES[component])
    assert len(layout_builds) == 2
    assert layout_builds[0] != layout_builds[1]
    clear_stores()
    assert np.array_equal(run(**LAYOUT_KEY_CHANGES[component]), changed)


# (n, beta, gamma): gamma from 1.2 to 2, n from 3 to 6
LENS_CASES = [
    (3, 1.0, 1.6),
    (5, 1.0, 1.6),
    (5, 1.25, 1.6),
    (3, 0.5, 1.5),
    (5, 1.0, 2.0),
    (4, 1.0, 1.3),
    (6, 0.8, 1.2),
    (6, 2.5, 1.2),
]


@pytest.mark.parametrize("n, beta, gamma", LENS_CASES)
def test_wolff_unit_ball_matches_lens_oracle(unit_indicator, n, beta, gamma):
    # the oracle shares no code with wolffkit: cap volumes by betainc, the
    # t-integral by adaptive quad; centres from 0 to 100, r_max = 1 included
    rhos = np.array([0.0, 0.05, 0.5, 0.9, unit_indicator.grid.r_max, 1.1, 2.0, 10.0, 100.0])
    got = wolff_eval_at(unit_indicator, n, beta, gamma, rhos)
    want = np.array([wolff_unit_ball(n, beta, gamma, rho) for rho in rhos])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-6


# max relative error of riesz_eval_at on the indicator of the ball of radius
# R, on RadialGrid.per_decade(R/100, R, 16), at every grid point and at
# r_i 10^{1/32}, against the 2F1 spherical mean, as measured (the same at
# R = 1 and R = 1.7).  A ball's mass kinks where its boundary crosses the
# jump at R, at t = |rho - R| and rho + R; without panel splits there the
# maps are off by 4e-3 to 1.1e-2
_TRANSIT_ERRORS = {
    (3, 1.6): 2.581e-9,
    (5, 2.0): 1.671e-10,
    (5, 1.2): 7.487e-7,
    (3, 1.2): 4.488e-7,
}
_TRANSIT_CASES = [(R, *op) for R in (1.0, 1.7) for op in _TRANSIT_ERRORS]


def _transit_error(oracles, R, n, alpha, scale=1.0):
    grid = RadialGrid.per_decade(math.nextafter(R / 100.0, 0.0), R, 16)
    ball = RadialFunction(grid, np.ones(grid.count), head_exponent=0.0, tail_exponent=math.inf)
    rho = np.concatenate([grid.points, grid.points[:-1] * 10 ** (1 / 32)])
    got = scale * riesz_eval_at(ball, n, alpha, rho)
    return oracles.max_relative_error(got, oracles.spherical_mean_riesz(oracles.Profile.of(ball), n, alpha, rho))


@pytest.mark.parametrize("R, n, alpha", _TRANSIT_CASES)
def test_ball_indicator_maps_split_at_the_edge_transits(oracles, R, n, alpha):
    assert _transit_error(oracles, R, n, alpha) <= 1.1 * _TRANSIT_ERRORS[n, alpha]


@pytest.mark.parametrize("R, n, alpha", _TRANSIT_CASES)
def test_transit_check_fails_one_percent_high(oracles, R, n, alpha):
    assert not _transit_error(oracles, R, n, alpha, scale=1.01) <= 1.1 * _TRANSIT_ERRORS[n, alpha]


# the bump (1 + r^2)^{-5/2} with two vanishing values, r_20 and r_21: at
# the centres r_19 ... r_22 and r_30, the head closure below rho 10^-3
# against one below rho 10^-8, as measured.  Next to the zero cells the
# ball's mass grows faster than the closure's t^n, so these are the
# closure's largest errors
_ZERO_CELL_CENTRES = [19, 20, 21, 22, 30]
_ZERO_CELL_ERRORS = np.array([4.676e-6, 7.433e-6, 6.406e-6, 6.636e-6, 4.148e-7])


def _zero_cell_errors(monkeypatch, scale=1.0):
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    values = (1.0 + grid.points**2) ** -2.5
    values[20] = values[21] = 0.0
    f = RadialFunction(grid, values, tail_exponent=5.0)
    rhos = grid.points[_ZERO_CELL_CENTRES]
    got = scale * wolff_eval_at(f, 5, 0.3, 2.0, rhos)
    with monkeypatch.context() as patch:
        patch.setattr(potential, "_RELATIVE_DECADES", 8.0)
        ref = wolff_eval_at(f, 5, 0.3, 2.0, rhos)
    return np.abs(got / ref - 1.0)


def test_head_closure_next_to_zero_cells(monkeypatch):
    assert np.all(_zero_cell_errors(monkeypatch) <= 1.1 * _ZERO_CELL_ERRORS)


def test_zero_cell_check_fails_one_percent_high(monkeypatch):
    assert not np.all(_zero_cell_errors(monkeypatch, scale=1.01) <= 1.1 * _ZERO_CELL_ERRORS)


_SOURCE =power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 8.0)
POTENTIAL_RAISE_SITES = [
    ("weighted_source", lambda: weighted_source(0.0, 0.0, _SOURCE), ParameterError,
     "source exponent must be positive"),
    ("t_nodes type", lambda: PotentialConfig(t_nodes_per_decade="x"), ParameterError,
     "t_nodes_per_decade"),
    ("slow tail", lambda: wolff_eval(power_tail_profile(_SOURCE.grid, 1.0, 1.5), 3, 1.0, 1.6),
     DivergentIntegralError, "outer integral beyond t_max diverges"),
    ("head", lambda: wolff_eval_at(_SOURCE.with_values(_SOURCE.values, head_exponent=5.0), 5, 1.0, 2.0,
                                   [1.0]), DivergentIntegralError, "near the origin diverges"),
    ("nan centre", lambda: wolff_eval_at(_SOURCE, 3, 1.0, 1.6, [1.0, math.nan]), ParameterError,
     "center distance rho must be nonnegative, got nan"),
    ("negative centre", lambda: riesz_eval_at(_SOURCE, 3, 1.6, [-2.0, 1.0]), ParameterError,
     "center distance rho must be nonnegative, got -2.0"),
]


@pytest.mark.parametrize(
    "site, call, error, fragment", POTENTIAL_RAISE_SITES, ids=[s[0] for s in POTENTIAL_RAISE_SITES]
)
def test_potential_raise_sites(site, call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert fragment in str(err.value)


def test_bad_centres_are_refused_before_any_work(layout_builds, cap_calls, monkeypatch):
    calls = []
    cumulative_mass = RadialFunction.cumulative_mass

    def counting(self, n, x):
        calls.append(np.size(x))
        return cumulative_mass(self, n, x)

    monkeypatch.setattr(RadialFunction, "cumulative_mass", counting)
    evaluations = potential.evaluations()
    for rhos in ([math.nan], [0.5, -1.0]):
        with pytest.raises(ParameterError, match="center distance rho"):
            wolff_eval_at(_SOURCE, 3, 1.0, 1.6, rhos)
    for rho, t in ((math.nan, [1.0]), (1.0, [1.0, math.nan])):
        with pytest.raises(ParameterError, match="got nan"):
            geometry.ball_mass_batch(geometry.CapKernel(3), _SOURCE, rho, t)
    assert potential.evaluations() == evaluations
    assert not (layout_builds or cap_calls or calls)
    assert potential._last_map is None and geometry._built_plan.cache_info().currsize == 0


# the shared path: every centre's quadrature is the reference plan's, shifted
# to the centre, so the maps commute with dilations and grid shifts
_EQUIVARIANCE_GRID = RadialGrid.per_decade(1e-2, 1e3, 16)


@pytest.mark.parametrize("gamma", [2.0, 1.6])
@pytest.mark.parametrize("lam", [10 ** (1 / 64), 10 ** (1 / 16), 10.0], ids=["1/64 dec", "1/16 dec", "1 dec"])
def test_dilation_commutes_with_the_map_at_every_centre(lam, gamma):
    # W f_lam(x) = lam^{-beta gamma/(gamma-1)} W f(lam x), f_lam(r) = f(lam r),
    # on a grid dilated by any lam: 1.1e-15 - 4.0e-15 measured, where
    # quadrature tied to the grid's own range and cells was off by
    # 1.8e-5 - 8.3e-5
    r = _EQUIVARIANCE_GRID.points
    bump = RadialFunction(_EQUIVARIANCE_GRID, (1.0 + r**2) ** -3.5, tail_exponent=7.0)
    base = wolff_eval_at(bump, 5, 1.0, gamma, r)
    got = wolff_eval_at(bump.dilate(lam), 5, 1.0, gamma, r / lam)
    power = gamma / (gamma - 1.0)
    assert np.max(np.abs(got / (lam**-power * base) - 1.0)) <= 1e-13


@pytest.mark.parametrize("gamma", [2.0, 1.6])
def test_one_cell_shift_of_the_source_shifts_the_map_exactly(gamma):
    # f is flat below r_32 = 1 and r^-7 beyond, so its interpolant is exact
    # and g(r) = f(r / q), the grid values moved one cell out, is f's
    # dilation: W g(r_{i+1}) = q^{gamma/(gamma-1)} W f(r_i) at every centre
    # (2.0e-15 and 4.4e-15 measured, 1.3e-3 and 2.4e-3 with quadrature tied
    # to the grid's range)
    r = _EQUIVARIANCE_GRID.points
    f = RadialFunction(_EQUIVARIANCE_GRID, np.minimum(1.0, r**-7.0), tail_exponent=7.0)
    g = f.with_values(np.concatenate([[1.0], f.values[:-1]]))
    q = r[1] / r[0]
    wf = wolff_eval_at(f, 5, 1.0, gamma, r)
    wg = wolff_eval_at(g, 5, 1.0, gamma, r)
    assert np.max(np.abs(wg[1:] / (q ** (gamma / (gamma - 1.0)) * wf[:-1]) - 1.0)) <= 1e-13


@pytest.mark.parametrize("gamma", [2.0, 1.6])
def test_centres_off_the_grid_read_the_same_quadrature(cap_calls, gamma):
    # centres moved off the grid points by a relative 2^-40 locate the
    # reference plan's nodes themselves instead of reading it shifted: the
    # map moves by 5e-12 - 1.1e-11, where another quadrature would move it
    # by ~1e-5
    r = _EQUIVARIANCE_GRID.points
    bump = RadialFunction(_EQUIVARIANCE_GRID, (1.0 + r**2) ** -3.5, tail_exponent=7.0)
    on = wolff_eval_at(bump, 5, 1.0, gamma, r)
    off = wolff_eval_at(bump, 5, 1.0, gamma, r * (1.0 + 2.0**-40))
    assert len(cap_calls) == 1  # one plan for both
    assert np.max(np.abs(off / on - 1.0)) <= 1e-10
