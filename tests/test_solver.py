import importlib.util
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import clear_stores
from wolffkit import geometry, solver
from wolffkit.cli import main
from wolffkit.errors import (
    DegenerateIterationError,
    NotConvergedError,
    ParameterError,
)
from wolffkit.params import Parameters, classify_regime
from wolffkit.potential import weighted_source, wolff_eval
from wolffkit.radial import RadialFunction, RadialGrid
from wolffkit.solver import (
    SolveConfig,
    bubble_profile,
    default_solver_grid,
    exact_bubble,
    make_ansatz,
    potential_images,
    solve_system,
    system_residual,
)

CRITICAL_SCALAR = Parameters(5, 1.0, 2.0, 7 / 3, 7 / 3, 0.0, 0.0)


def test_fast_ansatz_tails_match_predictions():
    params = Parameters(5, 1.0, 2.0, 1.5, 3.0, 0.0, 0.0)
    report = classify_regime(params)
    u, v = make_ansatz(params, default_solver_grid())
    assert u.tail_exponent == pytest.approx(report.predicted_u_exponent)
    assert v.tail_exponent == pytest.approx(report.predicted_v_exponent)
    assert v.tail_log_power == pytest.approx(report.v_log_power)
    assert np.all(u.values > 0) and np.all(v.values > 0)


def test_log_regime_ansatz_carries_log_factor():
    params = Parameters(5, 1.0, 2.0, 5 / 3, 31 / 9, 0.0, 0.0)
    _, v = make_ansatz(params, default_solver_grid())
    assert v.tail_log_power == pytest.approx(1.0)


def test_bubble_profile_is_a_near_fixed_point():
    grid = default_solver_grid()
    u = bubble_profile(5, grid)
    res_u, res_v = system_residual(
        CRITICAL_SCALAR, u, u, window=(grid.r_min, grid.r_max / 10.0)
    )
    assert res_u <= 1e-2
    assert res_v <= 1e-2


# max |W_{1,2}(r^sigma U^p) / U - 1| of exact_bubble on per_decade(1e-2, 1e3, .)
# at 16 and 32 points a decade, as the block-pass map read it (the stencil
# moved no figure in its first four digits).  The residual is the log-linear
# interpolant's second-order error, largest at r = 1, except at n = 3,
# sigma = -1, where it is the head model's at r_min
_HARDY_RESIDUALS = {
    (3, -1.0): (1.0825e-3, 3.1578e-4),
    (3, -0.5): (2.0617e-3, 5.1976e-4),
    (3, 0.0): (3.3292e-3, 8.4108e-4),
    (3, 0.5): (4.8806e-3, 1.2359e-3),
    (5, -1.0): (2.0234e-3, 5.1438e-4),
    (5, -0.5): (3.5084e-3, 8.9428e-4),
    (5, 0.0): (5.2866e-3, 1.3514e-3),
    (5, 0.5): (7.3507e-3, 1.8846e-3),
}


def _hardy_failures(n, sigma, scale=1.0):
    """The checks that the map of exact_bubble's U, times scale, fails: each
    residual within 10 % of the measured one, and halving the step divides
    it by at least 3.3 (second order; 3.43 at n = 3, sigma = -1, where the
    head model sets it, 3.90-3.97 elsewhere)."""
    residuals = []
    for npd in (16, 32):
        u, p = exact_bubble(n, sigma, RadialGrid.per_decade(1e-2, 1e3, npd))
        u = u.scaled(scale)
        image = wolff_eval(weighted_source(sigma, p, u), n, 1.0, 2.0)
        residuals.append(float(np.max(np.abs(image.values / u.values - 1.0))))
    failures = [
        f"{npd}/dec residual {got:.4e} > 1.1 x {want:.4e}"
        for npd, got, want in zip((16, 32), residuals, _HARDY_RESIDUALS[(n, sigma)])
        if not got <= 1.1 * want
    ]
    if not residuals[0] >= 3.3 * residuals[1]:
        failures.append(f"order: {residuals[0]:.4e} / {residuals[1]:.4e} < 3.3")
    return failures


@pytest.mark.parametrize("n, sigma", sorted(_HARDY_RESIDUALS))
def test_exact_bubble_is_a_fixed_point_of_the_map_to_second_order(n, sigma):
    # an oracle that shares no code with the map: U = W(r^sigma U^p) holds
    # exactly, so the map's residual is its discretization error alone
    assert _hardy_failures(n, sigma) == []


@pytest.mark.parametrize("n, sigma", sorted(_HARDY_RESIDUALS))
def test_exact_bubble_check_fails_one_percent_off_the_constant(n, sigma):
    # lam x 1.01 is no fixed point: W(r^sigma (1.01 U)^p) = 1.01^p W(...),
    # a relative residual of about (p - 1) %, which no resolution removes;
    # all three checks fail
    assert len(_hardy_failures(n, sigma, scale=1.01)) == 3


def test_bubble_profile_is_exact_bubble_at_sigma_zero():
    grid = default_solver_grid()
    u, p = exact_bubble(5, 0.0, grid)
    assert p == 7 / 3 and np.array_equal(bubble_profile(5, grid).values, u.values)
    with pytest.raises(ParameterError, match="sigma > -2"):
        exact_bubble(5, -2.0, grid)


def test_solves_and_the_inequality_battery_import_no_scipy():
    # a Logarithmic Picard solve and the gamma = 1.6 inequality battery run
    # on numpy alone
    code = (
        "import sys\n"
        "from wolffkit.params import Parameters\n"
        "from wolffkit.solver import solve_system\n"
        "from wolffkit.verify import check_inequalities\n"
        "solve_system(Parameters(5, 1.0, 2.0, 5 / 3, 31 / 9, 0.0, 0.0))\n"
        "check_inequalities(0, Parameters(3, 1.0, 1.6, 2.0, 2.75, 0.0, 0.0), p=1.5, count=2)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_undamped_step_is_plain_image():
    # undamped, the step is the image rescaled to the iterate's value at r = 1;
    # the bubble's residual (5.3e-3) exceeds the tight rel_tol, so the one
    # iteration steps, and unconverged the result is that step
    grid = default_solver_grid()
    u = bubble_profile(5, grid)
    cfg = SolveConfig(max_iters=1, damping=1.0, rel_tol=1e-12, custom_initial=(u, u))
    img_u, img_v = potential_images(CRITICAL_SCALAR, u, u, cfg)
    res = solve_system(CRITICAL_SCALAR, cfg)
    assert not res.converged and res.trace[0]["mixed"] == 0
    anchor = float(u(solver.ANCHOR_RADIUS))
    for step, img in ((res.u, img_u), (res.v, img_v)):
        want = img.scaled(anchor / float(img(solver.ANCHOR_RADIUS)))
        assert np.allclose(step.values, want.values, rtol=1e-13, atol=0.0)
        assert (step.head_exponent, step.tail_exponent, step.tail_log_power) == (
            img.head_exponent, img.tail_exponent, img.tail_log_power)
        assert step(solver.ANCHOR_RADIUS) == pytest.approx(anchor, rel=1e-14)


def test_solver_rejects_vanishing_iterate():
    grid = default_solver_grid()
    zero = RadialFunction(grid, np.zeros(grid.count), tail_exponent=math.inf)
    cfg = SolveConfig(max_iters=1, damping=1.0, rel_tol=1e-12, custom_initial=(zero, zero))
    with pytest.raises(DegenerateIterationError):
        solve_system(CRITICAL_SCALAR, cfg)


def test_custom_initial_on_two_grids_is_refused():
    u = bubble_profile(5, default_solver_grid())
    v = bubble_profile(5, RadialGrid.per_decade(1e-2, 1e2, 16))
    assert (u.grid.count, v.grid.count) == (81, 65)
    with pytest.raises(ParameterError, match="one grid"):
        SolveConfig(custom_initial=(u, v))


def test_solver_refuses_subcritical_by_default():
    sub = Parameters(5, 1.0, 2.0, 2.0, 2.0, 0.0, 0.0)
    with pytest.raises(ParameterError, match="subcritical"):
        solve_system(sub, SolveConfig(max_iters=1))


def test_solver_strict_mode_raises_not_converged():
    cfg = SolveConfig(max_iters=1, rel_tol=1e-14, strict=True)
    with pytest.raises(NotConvergedError) as err:
        solve_system(CRITICAL_SCALAR, cfg)
    assert err.value.trace


def test_solver_converges_from_bubble_and_matches_it():
    grid = RadialGrid.per_decade(1e-2, 1e3, 16)
    u0 = bubble_profile(5, grid)
    cfg = SolveConfig(
        max_iters=6,
        rel_tol=5e-3,
        damping=1.0,
        grid=grid,
        custom_initial=(u0, u0),
    )
    res = solve_system(CRITICAL_SCALAR, cfg)
    assert res.converged
    assert res.residual_u <= cfg.rel_tol
    rel = np.abs(res.u.values / u0.values - 1.0)
    assert rel.max() <= 2e-2
    assert res.rate_u.exponent == pytest.approx(3.0, rel=0.02)


def test_custom_initial_is_the_starting_pair():
    # (1 + r^2)^{-2} is far from a fixed point: its first residual reads
    # about 37, where the FAST ansatz reads about 1.5e-3; the start's grid,
    # not the default one, also sets the rate-fit window
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    u0 = RadialFunction(grid, (1.0 + grid.points**2) ** -2.0, head_exponent=0.0, tail_exponent=4.0)
    cfg = SolveConfig(max_iters=1, custom_initial=(u0, u0))
    res = solve_system(CRITICAL_SCALAR, cfg)
    assert res.trace[0]["residual_u"] > 0.1
    assert res.rate_u.window == (1.0, 100.0)


def test_converged_result_solves_unit_coefficient_system():
    res = solve_system(CRITICAL_SCALAR, SolveConfig(max_iters=8, rel_tol=5e-3))
    assert res.converged
    ru, rv = system_residual(CRITICAL_SCALAR, res.u, res.v)
    assert ru <= 2 * res.residual_u + 1e-9
    assert rv <= 2 * res.residual_v + 1e-9
    assert np.all(res.u.values > 0) and np.all(res.v.values > 0)


def test_double_bounded_coefficients_do_not_change_declared_rates():
    grid = default_solver_grid()
    u, v = make_ansatz(CRITICAL_SCALAR, grid)
    wobble = 1.0 + 0.5 * np.sin(np.log(grid.points))  # within [1/2, 2]
    c1 = RadialFunction(grid, wobble, tail_exponent=0.0)
    c2 = RadialFunction(grid, 2.0 - wobble + 1.0, tail_exponent=0.0)
    plain = SolveConfig()
    coef = SolveConfig(coefficients=(c1, c2))
    img_u, img_v = potential_images(CRITICAL_SCALAR, u, v, plain)
    img_uc, img_vc = potential_images(CRITICAL_SCALAR, u, v, coef)
    # coefficient application is pointwise and bounded, so the declared tail
    # models and two-sided bounds survive
    assert img_uc.tail_exponent == img_u.tail_exponent
    ratio = img_uc.values / img_u.values
    assert 0.5 - 1e-12 <= ratio.min() and ratio.max() <= 2.0 + 1e-12


def test_annulus_boundedness_and_weighted_mass_of_fast_solution():
    # for a fast-decay pair: v * r^{(n+sigma1)/q} stays bounded over dyadic
    # annuli (and decays under strict non-subcriticality), and the weighted
    # source r^{sigma1} v^q has finite total mass
    from wolffkit.potential import weighted_source
    from wolffkit.quasilinear import GroundStateConfig, ShootConfig, find_fast_ground_state
    from wolffkit.radial import is_infinite, lp_norm

    params = Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0)
    res = find_fast_ground_state(params, GroundStateConfig(shoot=ShootConfig(r_stop=1e5)))
    assert res.converged
    v = res.v
    expo = (params.n + params.sigma1) / params.q
    r_lo, r_hi = v.grid.r_max / 100.0, v.grid.r_max
    sups = []
    k = 0
    while r_lo * 2 ** (k + 1) <= r_hi:
        lo, hi = r_lo * 2**k, r_lo * 2 ** (k + 1)
        r = np.geomspace(lo, hi, 16)
        sups.append(float(np.max(v(r) * r**expo)))
        k += 1
    assert len(sups) >= 4
    assert max(sups) <= 2.0 * sups[0]  # bounded uniformly in the annulus index
    assert sups[-1] <= sups[0]  # decaying at these (critical) parameters
    src = weighted_source(params.sigma1, params.q, v)
    assert not is_infinite(lp_norm(src, 1.0, 0.0, n=params.n))


def test_solve_config_from_dict():
    cfg = SolveConfig.from_dict(
        {
            "damping": 0.5,
            "max_iters": 7,
            "rel_tol": 1e-2,
            "grid": {"r_min": 1e-2, "r_max": 1e2, "nodes_per_decade": 16},
        }
    )
    assert cfg.damping == 0.5
    assert cfg.grid.r_max == pytest.approx(1e2)
    with pytest.raises(ParameterError):
        SolveConfig(damping=1.5)


@pytest.mark.parametrize("coefficients", [False, True])
def test_potential_images_of_one_profile_take_one_wolff_eval(monkeypatch, coefficients):
    grid = default_solver_grid()
    u = bubble_profile(5, grid)
    cfg = SolveConfig()
    if coefficients:
        wobble = 1.0 + 0.5 * np.sin(np.log(grid.points))
        c1 = RadialFunction(grid, wobble, tail_exponent=0.0)
        c2 = RadialFunction(grid, 3.0 - wobble, tail_exponent=0.0)
        cfg = SolveConfig(coefficients=(c1, c2))
    calls = []
    wolff_eval = solver.wolff_eval

    def counting(*args):
        calls.append(args[0])
        return wolff_eval(*args)

    monkeypatch.setattr(solver, "wolff_eval", counting)
    once = potential_images(CRITICAL_SCALAR, u, u, cfg)
    assert len(calls) == 1
    twice = potential_images(CRITICAL_SCALAR, u, u.with_values(u.values), cfg)
    assert len(calls) == 3
    for a, b in zip(once, twice):
        assert np.array_equal(a.values, b.values)
        assert (a.tail_exponent, a.tail_log_power) == (b.tail_exponent, b.tail_log_power)
    # the same profile under unequal exponents still needs both images
    other = Parameters(5, 1.0, 2.0, 7 / 3, 2.5, 0.0, 0.0)
    img_u, img_v = potential_images(other, u, u, cfg)
    assert len(calls) == 5
    assert not np.array_equal(img_u.values, img_v.values)


def test_trace_records_time_constants_and_damping(tmp_path):
    fast_fast = Parameters(5, 1.0, 2.0, 2.0, 2.75, 0.0, 0.0)
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    cfg = SolveConfig(max_iters=12, rel_tol=5e-3, damping=0.8, grid=grid)
    clear_stores()
    start = time.perf_counter()
    res = solve_system(fast_fast, cfg)
    elapsed = time.perf_counter() - start
    assert res.converged and len(res.trace) == res.iterations >= 3
    keys = {
        "iteration", "residual_u", "residual_v", "c1_eff", "c2_eff", "damping", "mixed", "wall_s",
        "plans_built", "potential_evals", "nodes",
    }
    assert all(set(entry) == keys for entry in res.trace)
    # the first map builds the grid's one reference plan, which serves the rest
    assert [e["plans_built"] for e in res.trace] == [1] + [0] * (res.iterations - 1)
    # each iteration's two potentials sample their sources 16 times in each
    # of the plan's span + N - 1 virtual cells, for every centre together
    ((plan, _),) = geometry._plans._items.values()
    samples = 16 * (plan.span + grid.count - 1)
    assert plan.span == 105 and samples == 2_704
    assert all(e["potential_evals"] == 2 and e["nodes"] == 2 * samples for e in res.trace)
    assert [e["damping"] for e in res.trace] == [0.8] * (res.iterations - 1) + [None]
    # the residual falls at every step here, so each step combines every
    # earlier iterate up to the depth
    mixed = [min(k, solver.ANDERSON_DEPTH) for k in range(res.iterations - 1)]
    assert [e["mixed"] for e in res.trace] == mixed + [None]
    assert res.config["anderson_depth"] == solver.ANDERSON_DEPTH
    assert all(e["wall_s"] > 0.0 for e in res.trace)
    assert sum(e["wall_s"] for e in res.trace) <= elapsed
    # the first entry's constants are the start's over its image at ANCHOR_RADIUS
    u, v = make_ansatz(fast_fast, grid)
    u_img, v_img = potential_images(fast_fast, u, v, cfg)
    assert res.trace[0]["c1_eff"] == u(solver.ANCHOR_RADIUS) / u_img(solver.ANCHOR_RADIUS)
    assert res.trace[0]["c2_eff"] == v(solver.ANCHOR_RADIUS) / v_img(solver.ANCHOR_RADIUS)
    assert "trace" not in res.to_report_dict()
    # the timings stay out of the report: --no-timestamp reports repeat byte for byte
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text('{"max_iters": 2, "grid": {"r_min": 0.01, "r_max": 100.0}}')
    params = ["--n", "5", "--beta", "1", "--gamma", "2", "--p", str(7 / 3), "--q", str(7 / 3),
              "--sigma1", "0", "--sigma2", "0"]
    for name in ("a", "b"):
        assert main(["solve", *params, "--config", str(cfg_path),
                     "--out", str(tmp_path / name), "--no-timestamp"]) == 0
    reports = [(tmp_path / name / "report.json").read_bytes() for name in ("a", "b")]
    assert reports[0] == reports[1]


def test_residual_rise_restarts_the_mixing():
    # the gamma < 2 tuple that no Picard variant converges on: its residual
    # rises within 8 iterations, and every step taken right after a rise is
    # the plain damped one
    params = Parameters(5, 1.25, 1.6, 1.2, 1.65, 0.0, 0.0)
    res = solve_system(params, SolveConfig(max_iters=8))
    assert not res.converged and res.iterations == 8
    sup = [max(e["residual_u"], e["residual_v"]) for e in res.trace]
    rises = [k for k in range(1, len(sup)) if sup[k] > sup[k - 1]]
    assert rises
    assert all(res.trace[k]["mixed"] == 0 for k in rises)
    assert max(e["mixed"] for e in res.trace) > 0


def test_mixed_step_matches_anderson_with_consecutive_differences():
    # the update combines x - x_j over the history; the textbook form
    # (Walker & Ni 2011) takes consecutive differences x_{j+1} - x_j, which
    # span the same columns and so give the same step
    grid = RadialGrid.per_decade(1e-2, 1e2, 16)
    rng = np.random.default_rng(0)
    base = -1.5 * np.log1p(grid.points**2)
    xs = [np.concatenate([base, base]) + 0.1 * rng.standard_normal(2 * grid.count) for _ in range(4)]
    rs = [0.05 * rng.standard_normal(2 * grid.count) for _ in range(4)]
    theta = 0.8

    history = list(zip(xs[:3], rs[:3]))
    got, mixed = solver._step(xs[3], rs[3], theta, history)
    assert mixed == 3 and len(history) == 3  # the step leaves the history as it is

    dx = np.stack([xs[j + 1] - xs[j] for j in range(3)], axis=1)
    dr = np.stack([rs[j + 1] - rs[j] for j in range(3)], axis=1)
    coef = np.linalg.lstsq(dr, rs[3], rcond=None)[0]
    want = xs[3] + theta * rs[3] - (dx + theta * dr) @ coef
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)
    # with no history it is the damped step
    plain, mixed = solver._step(xs[3], rs[3], theta, [])
    assert mixed == 0 and np.array_equal(plain, xs[3] + theta * rs[3])


def _huge_start():
    grid = default_solver_grid()
    u, v = make_ansatz(CRITICAL_SCALAR, grid)
    return SolveConfig(custom_initial=(u.scaled(1e160), v))


SOLVER_RAISE_SITES = [
    ("rel_tol", lambda: SolveConfig(rel_tol=0.0), ParameterError, "rel_tol"),
    ("rel_tol nan", lambda: SolveConfig(rel_tol=math.nan), ParameterError, "rel_tol"),
    ("max_iters", lambda: SolveConfig(max_iters=0), ParameterError, "max_iters"),
    ("max_iters float", lambda: SolveConfig.from_dict({"max_iters": 2.5}), ParameterError, "max_iters"),
    ("strict", lambda: SolveConfig.from_dict({"strict": "no"}), ParameterError, "strict"),
    ("damping type", lambda: SolveConfig.from_dict({"damping": "x"}), ParameterError, "damping"),
    ("grid r_min", lambda: SolveConfig.from_dict({"grid": {"r_min": -1, "r_max": 1e3}}), ParameterError,
     "r_min = -1"),
    ("overflow guard", lambda: solve_system(CRITICAL_SCALAR, _huge_start()), DegenerateIterationError,
     "iterate u left the overflow guard window"),
    ("bubble n", lambda: bubble_profile(2, default_solver_grid()), ParameterError, "n >= 3"),
]


@pytest.mark.parametrize(
    "site, call, error, fragment", SOLVER_RAISE_SITES, ids=[s[0] for s in SOLVER_RAISE_SITES]
)
def test_solver_raise_sites(site, call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert fragment in str(err.value)


def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gamma_continuation_from_a_converged_pair_takes_the_new_tails(monkeypatch):
    # n = 5, p = 1.2, beta gamma = 2, q on the critical curve: the converged
    # gamma = 2 pair passed at gamma = 1.6 declared the gamma = 2 tails, whose
    # source tail made the potential diverge; its first iterate now declares
    # the gamma = 1.6 tuple's predicted tails
    critical_q = _load_script("classify_sweep").critical_q
    at_2 = Parameters(5, 1.0, 2.0, 1.2, critical_q(5, 1.0, 2.0, 1.2), 0.0, 0.0)
    at_16 = Parameters(5, 1.25, 1.6, 1.2, critical_q(5, 1.25, 1.6, 1.2), 0.0, 0.0)
    start = solve_system(at_2)
    assert start.converged
    first = []
    images = solver.potential_images

    def recording(params, u, v, cfg):
        first.append((u, v))
        return images(params, u, v, cfg)

    monkeypatch.setattr(solver, "potential_images", recording)
    res = solve_system(at_16, SolveConfig(max_iters=1, custom_initial=(start.u, start.v)))
    assert res.iterations == 1
    report = classify_regime(at_16)
    u, v = first[0]
    assert (u.tail_exponent, u.tail_log_power) == (report.predicted_u_exponent, 0.0)
    assert (v.tail_exponent, v.tail_log_power) == (report.predicted_v_exponent, report.v_log_power)
    assert np.array_equal(u.values, start.u.values) and np.array_equal(v.values, start.v.values)
