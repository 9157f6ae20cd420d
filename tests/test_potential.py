import math
import threading

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


def test_config_invariants(unit_indicator):
    with pytest.raises(ParameterError):
        wolff_eval(unit_indicator, 5, 1.0, 2.0, PotentialConfig(t_min=0.5))
    with pytest.raises(ParameterError):
        wolff_eval(unit_indicator, 5, 1.0, 2.0, PotentialConfig(t_max=2.0))
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
    cfg = PotentialConfig(t_min=1e-4, t_max=1e5, t_nodes_per_decade=24)
    assert PotentialConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("n, beta, gamma", [(5, 0.3, 2.0), (3, 0.3, 2.0)])
@pytest.mark.parametrize("source", ["bump", "ball"])
def test_head_closure_matches_a_lower_t_min(unit_indicator, source, n, beta, gamma):
    # below t_min the outer integral is closed analytically; at small beta*gamma
    # that piece is percents of the potential, and at r_max of the ball the
    # density jumps, so the ball there holds half of f(rho) omega_n t^n
    if source == "bump":
        f = power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 9.0)
    else:
        f = unit_indicator
    rhos = np.append(f.grid.points[::4], f.grid.r_max)
    got = wolff_eval_at(f, n, beta, gamma, rhos)
    ref = wolff_eval_at(f, n, beta, gamma, rhos, PotentialConfig(t_min=f.grid.r_min / 1e4))
    assert np.max(np.abs(got / ref - 1.0)) < 1e-4


@pytest.mark.parametrize("n, beta, gamma", [(3, 0.8, 2.0), (5, 1.0, 2.0)])
def test_default_t_min_follows_a_centre_below_r_min(n, beta, gamma):
    # the t < t_min closure assumes t << rho; at rho = r_min/10 a t_min of
    # r_min/10 = rho is off by 2.8e-3 and 6.0e-4 on this head-singular profile
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    r = grid.points
    f = RadialFunction(grid, r**-1.5 * (1.0 + r**2) ** -3.0, head_exponent=1.5, tail_exponent=7.5)
    got = wolff_eval_at(f, n, beta, gamma, [1e-3])
    ref = wolff_eval_at(f, n, beta, gamma, [1e-3], PotentialConfig(t_min=1e-8))
    assert abs(got[0] / ref[0] - 1.0) < 1e-5
    # a set t_min is still checked against the source's r_min only
    wolff_eval_at(f, n, beta, gamma, [1e-3], PotentialConfig(t_min=5e-3))
    with pytest.raises(ParameterError, match="source r_min"):
        wolff_eval_at(f, n, beta, gamma, [1e-3], PotentialConfig(t_min=1e-2))


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


def test_window_beyond_t_max_matches_panels_up_to_ten_times_t_max():
    # the window's share is largest for slow (T < n) and log (T = n) tails;
    # the panels of a 10x larger t_max integrate the same range directly
    g = RadialGrid.per_decade(1e-2, 1e2, 16)
    r = g.points
    n = 5
    log_tail = RadialFunction(
        g, (1.0 + r**2) ** (-n / 2) * (1.0 + np.log1p(r)), tail_exponent=n, tail_log_power=1.0
    )
    slow = power_tail_profile(g, 1.0, 4.0)  # T = 4 < n
    rhos = [0.0, 1.0, 70.0]
    longer = PotentialConfig(t_max=10.0 * 100.0 * g.r_max)
    for f in (slow, log_tail):
        got = wolff_eval_at(f, n, 1.0, 2.0, rhos)
        want = wolff_eval_at(f, n, 1.0, 2.0, rhos, longer)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-8


def test_window_masses_take_one_cumulative_mass_call(cap_calls, monkeypatch):
    # the window's t nodes are every centre's, so one cumulative_mass call
    # covers all centres, and every centre's covered radii t - rho ride in
    # the same call; on a log tail and on a linear cell (a vanishing value)
    # each radius's mass is its own, so the centres of one map give what
    # maps of one centre each give, bit for bit
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
    cfg = PotentialConfig(t_min=1e-4, t_max=1e5)
    for f in (log_tailed, linear):
        clear_stores()
        calls.clear()
        together = wolff_eval_at(f, 5, 1.0, 1.6, rhos, cfg)
        assert len(calls) == 1
        wolff_eval_at(f, 5, 1.0, 1.6, rhos, cfg)
        assert len(calls) == 2
        # bit for bit what one call per centre gives
        clear_stores()
        apart = np.concatenate([wolff_eval_at(f, 5, 1.0, 1.6, [rho], cfg) for rho in rhos])
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


def _store_holds_plans_and_masses_only():
    """The stores hold reference plans and (source key, masses) pairs, and
    count their bytes exactly."""
    plans = [plan for plan, _ in geometry._plans._items.values()]
    kept = [value for value, _ in geometry._masses._items.values()]
    return all(isinstance(p, geometry.ReferencePlan) for p in plans) and all(
        isinstance(m, np.ndarray) for _, m in kept
    ) and all(store.nbytes == sum(b for _, b in store._items.values()) for store in (geometry._plans, geometry._masses))


def test_warm_wolff_map_does_only_value_dependent_work(cap_calls, monkeypatch):
    # on the solver's 81-point grid, after a cold map of the log-tailed
    # source, a map of a source with another tail model (T, L) builds no
    # plan, makes one cumulative_mass call and evaluates the plan's nodes at
    # every centre: the reference plan is free of the model, and the stores
    # keep nothing per model but the masses
    params, log_tailed, other = _log_tail_sources()
    n, beta, gamma = params.n, params.beta, params.gamma
    count = log_tailed.grid.count
    model = lambda f: (f.tail_exponent, f.tail_log_power)
    assert model(other) != model(log_tailed)
    assert _map_costs(monkeypatch, log_tailed, n, beta, gamma)[:2] == (1, 1)
    calls, built, nodes, warm = _map_costs(monkeypatch, other, n, beta, gamma)
    assert (calls, built, nodes) == (1, 0, count * 15_590)
    assert len(cap_calls) == 1 and _store_holds_plans_and_masses_only()
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
    assert len(cap_calls) == 1 and _store_holds_plans_and_masses_only()
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
        return geometry.ball_mass_batch(kernel, source, rho, rho * tau, plan=plan)

    for rho in rhos:
        masses(f, rho)
    warm = [masses(g, rho) for rho in rhos]
    assert len(cap_calls) == 1  # the plan served g
    for rho, kept in zip(rhos, warm):
        clear_stores()
        assert np.array_equal(kept, masses(g, rho))


class _CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self):
        self._lock = threading.Lock()
        self.taken = 0

    def __enter__(self):
        self._lock.acquire()
        self.taken += 1
        return self

    def __exit__(self, *exc):
        self._lock.release()


def test_warm_map_pays_its_fixed_costs_once_per_map(cap_calls, monkeypatch):
    # a warm map on the solver's 81-point grid: one cumulative_mass call for
    # every centre's window (2 x 81 x 64 radii) and covered radii (81 x 96),
    # so no further mass call from ball_mass_batch, one ball_mass_batch call
    # per centre, at most two takings of the masses store's lock per centre
    # (one lookup and one put) and one of the plan store's per map
    params, f, _ = _log_tail_sources()
    n, beta, gamma = params.n, params.beta, params.gamma
    count = f.grid.count
    wolff_eval(f, n, beta, gamma)  # cold: the plans
    mass_calls, batch_calls = [], []
    cumulative_mass = RadialFunction.cumulative_mass
    ball_mass_batch = potential.ball_mass_batch

    def counting_mass(self, n, x):
        mass_calls.append(np.size(x))
        return cumulative_mass(self, n, x)

    def counting_batch(*args, **kwargs):
        batch_calls.append(np.size(args[3]))
        return ball_mass_batch(*args, **kwargs)

    lock, plan_lock = _CountingLock(), _CountingLock()
    monkeypatch.setattr(RadialFunction, "cumulative_mass", counting_mass)
    monkeypatch.setattr(potential, "ball_mass_batch", counting_batch)
    monkeypatch.setattr(geometry._masses, "_lock", lock)
    monkeypatch.setattr(geometry._plans, "_lock", plan_lock)
    warm = wolff_eval(f.with_values(2.0 * f.values), n, beta, gamma)
    assert count == 81 and len(cap_calls) == 1
    assert mass_calls == [2 * count * 64 + count * 96]
    assert len(batch_calls) == count
    assert 0 < lock.taken <= 2 * count and plan_lock.taken == 1
    monkeypatch.undo()
    clear_stores()
    assert np.array_equal(warm.values, wolff_eval(f.with_values(2.0 * f.values), n, beta, gamma).values)


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
        plan = None
        if rho > 0.0 and not source.has_jump:
            plan = geometry.reference_plan(kernel, source.grid.log_step, tau)
        return geometry.ball_mass_batch(kernel, source, rho, t, covered=covered, plan=plan)

    mass = lambda source, rho: call(source, rho)
    given = lambda source, rho: call(source, rho, covered=True)
    for rho in [0.0, *f.grid.points[::8].tolist(), 3.0 * f.grid.r_max]:
        clear_stores()
        alone_cold = mass(f, rho)
        clear_stores()
        assert np.array_equal(given(f, rho), alone_cold)
        alone_warm = mass(g, rho)  # f's plan serves g
        geometry._masses.clear()
        mass(f, rho)
        assert np.array_equal(given(g, rho), alone_warm)
        clear_stores()
        assert np.array_equal(given(g, rho), alone_warm)


@pytest.mark.parametrize("case", [0, 1], ids=["log tail", "ball"])
def test_maps_give_what_covered_masses_taken_per_centre_give(cap_calls, monkeypatch, case):
    # a map's covered masses from its one cumulative_mass call against a map
    # whose ball_mass_batch calls take their own, cold and warm
    n, f, g = _covered_sources()[case]
    maps = [wolff_eval_at(source, n, 1.0, 1.6, f.grid.points) for source in (f, g)]
    ball_mass_batch = geometry.ball_mass_batch

    def taking_its_own(kernel, source, rho, t, covered=None, plan=None):
        return ball_mass_batch(kernel, source, rho, t, plan=plan)

    monkeypatch.setattr(potential, "ball_mass_batch", taking_its_own)
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
LAYOUT_RHOS = [0.0, 0.05, 1.0, 7.0, 100.0]
LAYOUT_CFG = PotentialConfig(t_min=1e-3, t_max=1e5)


def test_warm_layout_serves_a_new_source_bit_for_bit(layout_builds):
    # a layout is free of the source's values: a second source on the grid
    # builds the layout the first built, one per map
    f = power_tail_profile(LAYOUT_GRID, 1.0, 7.0)
    g = power_tail_profile(LAYOUT_GRID, 0.5, 9.0)
    wolff_eval_at(f, 5, 1.0, 2.0, LAYOUT_RHOS, LAYOUT_CFG)
    warm = wolff_eval_at(g, 5, 1.0, 2.0, LAYOUT_RHOS, LAYOUT_CFG)
    assert len(layout_builds) == 2 and layout_builds[0] == layout_builds[1]
    clear_stores()
    assert np.array_equal(wolff_eval_at(g, 5, 1.0, 2.0, LAYOUT_RHOS, LAYOUT_CFG), warm)
    assert len(layout_builds) == 3


# each case changes one component of the layout key and nothing else that
# the layout reads; slope_cap and a_eff are (n, beta, gamma) and source tails
# with equal a_eff (3) and equal slope_cap (5) respectively
LAYOUT_KEY_CHANGES = {
    "c rho": dict(rhos=[0.0, 0.05, 1.5, 7.0, 100.0]),
    "c t_min": dict(cfg=PotentialConfig(t_min=2e-3, t_max=1e5)),
    "c t_max": dict(cfg=PotentialConfig(t_min=1e-3, t_max=2e5)),
    "c r_min": dict(grid=RadialGrid.per_decade(1.2e-2, 1e2, 16)),
    "c r_max": dict(grid=RadialGrid.per_decade(1e-2, 2e2, 16)),
    "t_nodes_per_decade": dict(cfg=PotentialConfig(t_min=1e-3, t_max=1e5, t_nodes_per_decade=24)),
    "slope_cap": dict(op=(6, 1.5, 2.0)),
    "a_eff": dict(tail=4.5),
}


@pytest.mark.parametrize("component", sorted(LAYOUT_KEY_CHANGES))
def test_changing_one_layout_key_component_rebuilds(layout_builds, component):
    def run(grid=LAYOUT_GRID, rhos=LAYOUT_RHOS, cfg=LAYOUT_CFG, op=(5, 1.0, 2.0), tail=7.0):
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


_SOURCE = power_tail_profile(RadialGrid.per_decade(1e-2, 1e2, 16), 1.0, 8.0)
POTENTIAL_RAISE_SITES = [
    ("weighted_source", lambda: weighted_source(0.0, 0.0, _SOURCE), ParameterError,
     "source exponent must be positive"),
    ("t_min negative", lambda: PotentialConfig(t_min=-1.0), ParameterError, "t_min"),
    ("t_min zero", lambda: PotentialConfig(t_min=0), ParameterError, "t_min"),
    ("t_max inf", lambda: PotentialConfig(t_max=math.inf), ParameterError, "t_max"),
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
    assert geometry._masses.nbytes == geometry._plans.nbytes == 0


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
