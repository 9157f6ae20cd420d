"""Anderson-mixed Picard solver for the coupled weighted potential system.

The iteration maps a positive pair (u, v) to the potential images

    u~ = c1 * W(r^{sigma1} v^q),    v~ = c2 * W(r^{sigma2} u^p),

and its state is the log-values x = (ln u, ln v), which keeps the iterates
positive.  Each iteration forms x and the residual r = ln(c_eff * image) - x
once, where the effective constants c_eff make the image agree with the
iterate at r = ANCHOR_RADIUS; each component's fixed-point residual is
sup |expm1(r)|, the relative sup-distance between the iterate and its
anchored image, and convergence is declared on it.  The step is
x + theta*r - (dX + theta*dR) gamma: with no history it is the damped step
x + theta*r, geometric damping u' = u^{1-theta} u~^theta up to a constant,
which preserves power-law tails exactly; with the residuals of up to
ANDERSON_DEPTH earlier iterates it is Anderson mixing (Walker & Ni, SIAM J.
Numer. Anal. 49(4), 2011).  A rise of the sup residual clears the history.
After each step the amplitudes are re-anchored so that u and v keep their
starting values at ANCHOR_RADIUS, which projects out the amplitude mode.
Nothing fixes the other zero mode of critical parameters, the dilation
family u -> lam^{q0} u(lam r), v -> lam^{p0} v(lam r).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .errors import DegenerateIterationError, NotConvergedError, ParameterError
from .geometry import nodes_evaluated, plans_built
from .params import Parameters, RegimeReport, Subcriticality, classify_regime
from .potential import PotentialConfig, evaluations, weighted_source, wolff_eval
from .radial import RadialFunction, RadialGrid, RateFit, fit_decay_rate, sphere_surface

OVERFLOW_GUARD = 1e150
ANCHOR_RADIUS = 1.0
ANDERSON_DEPTH = 3  # earlier iterates an Anderson step combines at most


@dataclass(frozen=True)
class SolveConfig:
    damping: float = 0.8
    max_iters: int = 60
    rel_tol: float = 5e-3
    custom_initial: Optional[tuple[RadialFunction, RadialFunction]] = None  # the start and its grid, when set
    coefficients: Optional[tuple[RadialFunction, RadialFunction]] = None
    grid: Optional[RadialGrid] = None
    potential: PotentialConfig = field(default_factory=PotentialConfig)
    strict: bool = False  # raise NotConvergedError instead of returning converged=False

    def __post_init__(self):
        if not (isinstance(self.damping, Real) and 0.0 < self.damping <= 1.0):
            raise ParameterError(f"damping out of (0,1] (damping = {self.damping!r})")
        if not (isinstance(self.rel_tol, Real) and 0.0 < self.rel_tol < math.inf):
            raise ParameterError(f"rel_tol must be finite and positive (rel_tol = {self.rel_tol!r})")
        if not (isinstance(self.max_iters, Integral) and self.max_iters >= 1):
            raise ParameterError(f"max_iters must be an integer >= 1 (max_iters = {self.max_iters!r})")
        if not isinstance(self.strict, bool):
            raise ParameterError(f"strict must be true or false (strict = {self.strict!r})")
        if self.custom_initial is not None and self.custom_initial[0].grid != self.custom_initial[1].grid:
            raise ParameterError("custom_initial u and v must share one grid")

    @classmethod
    def from_dict(cls, data: dict) -> "SolveConfig":
        # the profile-valued fields cannot come from a config file
        settable = {f.name for f in fields(cls)} - {"custom_initial", "coefficients"}
        unknown = sorted(set(data) - settable)
        if unknown:
            raise ParameterError(f"unknown solve config keys: {unknown}")
        kwargs = dict(data)
        if "grid" in kwargs:
            gspec = kwargs["grid"]
            if not isinstance(gspec, dict) or not {"r_min", "r_max"} <= gspec.keys():
                raise ParameterError(f"solve config grid needs r_min and r_max, got {gspec!r}")
            unknown = sorted(set(gspec) - {"r_min", "r_max", "nodes_per_decade"})
            if unknown:
                raise ParameterError(f"unknown solve config grid keys: {unknown}")
            kwargs["grid"] = RadialGrid.per_decade(
                gspec["r_min"], gspec["r_max"], gspec.get("nodes_per_decade", 16)
            )
        if "potential" in kwargs:
            kwargs["potential"] = PotentialConfig.from_dict(kwargs["potential"])
        return cls(**kwargs)


@dataclass(frozen=True)
class SolveResult:
    """A solve's profiles, residuals, fitted rates and trace.

    A Picard trace holds one entry per iteration: its residuals, the
    effective constants c1_eff and c2_eff (the iterate over its image at
    ANCHOR_RADIUS), the damping of the update it made and the number of
    earlier iterates that update combined, mixed (0 on a plain or restarted
    step; both None on the accepted iterate), its wall time wall_s, the
    reference plans its potentials built, plans_built (geometry.plans_built:
    1 in the first iteration, which builds the grid's plan, 0 after), the
    potential evaluations it made, potential_evals (potential.evaluations),
    and the source evaluations its partial shells made, nodes
    (geometry.nodes_evaluated: the stencil's samples, 16 in each of the
    plan's span + N - 1 virtual cells per map, 2,960 per map on the default
    grid at n = 5, where every distinct plan node of every centre took
    7,960 x 81; 0 for masses served from the memo).
    to_report_dict leaves the trace out, so reports written with
    --no-timestamp stay byte-identical.
    """

    u: RadialFunction
    v: RadialFunction
    residual_u: float
    residual_v: float
    iterations: int
    converged: bool
    rate_u: RateFit
    rate_v: RateFit
    report: RegimeReport
    trace: list = field(default_factory=list)
    solver: str = "picard"  # or "shooting"
    config: dict = field(default_factory=dict)  # the settings as the solver resolved them

    def to_report_dict(self):
        return {
            "solver": self.solver,
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_u": self.residual_u,
            "residual_v": self.residual_v,
            "rate_u": self.rate_u.to_dict(),
            "rate_v": self.rate_v.to_dict(),
            "predicted": self.report.to_dict(),
        }


def default_solver_grid() -> RadialGrid:
    return RadialGrid.per_decade(1e-2, 1e3, 16)


def make_ansatz(params: Parameters, grid: RadialGrid):
    """Initial profile pair with the predicted fast-decay tails built in.

    The tails are the classified fast-decay exponents, with the log factor
    in the borderline regime.
    """
    r = grid.points
    report = classify_regime(params)
    a = report.predicted_u_exponent
    b = report.predicted_v_exponent
    ell = report.v_log_power
    v_vals = (1.0 + r**2) ** (-b / 2.0)
    if ell != 0.0:
        v_vals = v_vals * (1.0 + 0.5 * np.log1p(r**2)) ** ell
    return _with_predicted_tails(report, RadialFunction(grid, (1.0 + r**2) ** (-a / 2.0)), RadialFunction(grid, v_vals))


def _with_predicted_tails(report: RegimeReport, u: RadialFunction, v: RadialFunction):
    """u and v declaring the fast-decay tails the report predicts, the log
    factor on v's in the borderline regime: the one home of a starting
    pair's tails, so that a pair carried over from other parameters (a
    gamma-continuation) starts from this tuple's tails."""
    return (
        u.with_values(u.values, tail_exponent=report.predicted_u_exponent, tail_log_power=0.0),
        v.with_values(v.values, tail_exponent=report.predicted_v_exponent, tail_log_power=report.v_log_power),
    )


def potential_images(params: Parameters, u: RadialFunction, v: RadialFunction, cfg: SolveConfig):
    """One application of the system's right-hand side to (u, v)."""
    n, beta, gamma = params.n, params.beta, params.gamma
    src_u = weighted_source(params.sigma1, params.q, v)
    u_img = wolff_eval(src_u, n, beta, gamma, cfg.potential, u.grid)
    if v is u and params.sigma1 == params.sigma2 and params.p == params.q:
        v_img = u_img  # both components have the same source and grid
    else:
        src_v = weighted_source(params.sigma2, params.p, u)
        v_img = wolff_eval(src_v, n, beta, gamma, cfg.potential, v.grid)
    if cfg.coefficients is not None:
        c1, c2 = cfg.coefficients
        u_img = u_img.with_values(u_img.values * c1(u.grid.points))
        v_img = v_img.with_values(v_img.values * c2(v.grid.points))
    return u_img, v_img


def system_residual(
    params: Parameters,
    u: RadialFunction,
    v: RadialFunction,
    cfg: Optional[SolveConfig] = None,
    window: Optional[tuple[float, float]] = None,
):
    """Pointwise relative sup-residuals of the pair against its potential image."""
    cfg = cfg or SolveConfig()
    u_img, v_img = potential_images(params, u, v, cfg)
    pts = u.grid.points
    mask = slice(None) if window is None else (pts >= window[0]) & (pts <= window[1])
    return _log_residual(u, v, u_img, v_img, (1.0, 1.0), mask)[2]


def _log_residual(u, v, u_img, v_img, c_eff, mask=slice(None)):
    """The log-values x = ln(u, v), the residual r = ln(c_eff * image) - x and
    each component's relative sup-residual |c_eff * image / f - 1| =
    |expm1(r)| over the grid points in mask; x and r are split at u.values.size."""
    x = np.log(np.concatenate([u.values, v.values]))
    r = np.log(np.concatenate([u_img.values * c_eff[0], v_img.values * c_eff[1]])) - x
    err_u, err_v = np.split(np.abs(np.expm1(r)), [u.values.size])
    return x, r, (float(np.max(err_u[mask])), float(np.max(err_v[mask])))


def _step(x, r, theta: float, history):
    """The Anderson step x + theta*r - (dX + theta*dR) gamma, gamma = lstsq(dR, r).

    The columns of dX and dR are x - x_j and r - r_j over the (x_j, r_j)
    pairs in history, the earlier iterates, oldest first; with an empty
    history the step is the damped x + theta*r.  Returns the step and the
    number of earlier iterates it combined.
    """
    x_new = x + theta * r
    if history:
        dx = np.stack([x - xj for xj, _ in history], axis=1)
        dr = np.stack([r - rj for _, rj in history], axis=1)
        gamma = np.linalg.lstsq(dr, r, rcond=None)[0]
        x_new -= (dx + theta * dr) @ gamma
    return x_new, len(history)


def _profiles(x, pair, images, theta: float, refs):
    """The profiles with log-values x, re-anchored to refs at ANCHOR_RADIUS.

    Their head and tail models are theta-mixed between pair and images.  The
    amplitude mode never contracts: the log-amplitude linearization of the
    damped iteration has spectral radius
    1 - theta + theta*sqrt(p*q)/(gamma-1) > 1 for any damping.  Rescaling
    both components to refs projects it out, which makes the iteration
    target the system with constant coefficients c_eff; solve_system undoes
    those constants exactly on exit.
    """
    # undamped, the image's models, also past a cut-off iterate tail (0 * inf)
    mix = lambda a, b: b if theta == 1.0 else (1.0 - theta) * a + theta * b
    out = []
    for vals, f, img, ref in zip(np.split(x, [pair[0].values.size]), pair, images, refs):
        g = RadialFunction(
            f.grid,
            np.exp(vals),
            head_exponent=mix(f.head_exponent, img.head_exponent),
            tail_exponent=mix(f.tail_exponent, img.tail_exponent),
            tail_log_power=mix(f.tail_log_power, img.tail_log_power),
        )
        out.append(g.scaled(ref / float(g(ANCHOR_RADIUS))))
    return out


def _undo_effective_constants(params, u, v, c1: float, c2: float):
    """Exact rescale (A u, B v) mapping the constant-coefficient fixed point
    u = c1 W(src(v)), v = c2 W(src(u)) to the unit-coefficient system."""
    g = params.gamma - 1.0
    M = np.array([[-1.0, params.q / g], [params.p / g, -1.0]])
    log_ab = np.linalg.solve(M, np.array([math.log(c1), math.log(c2)]))
    A, B = math.exp(log_ab[0]), math.exp(log_ab[1])
    return u.scaled(A), v.scaled(B)


def _anchor_values(u: RadialFunction, v: RadialFunction):
    return float(u(ANCHOR_RADIUS)), float(v(ANCHOR_RADIUS))


def _check_positive(u: RadialFunction, v: RadialFunction):
    for name, f in (("u", u), ("v", v)):
        if np.any(f.values <= 0.0):
            raise DegenerateIterationError(f"iterate {name} vanishes on the grid")
        if float(np.max(f.values)) > OVERFLOW_GUARD or float(np.min(f.values)) < 1.0 / OVERFLOW_GUARD:
            raise DegenerateIterationError(f"iterate {name} left the overflow guard window")


def solve_system(params: Parameters, cfg: Optional[SolveConfig] = None) -> SolveResult:
    """Iterate the Anderson-mixed system map from the fast ansatz or cfg.custom_initial.

    A custom_initial pair keeps its values and takes the tails the params
    predict, the ansatz's.

    Refuses subcritical parameter tuples, where no ground states are
    expected.  Non-convergence is reported via converged=False (or
    NotConvergedError when cfg.strict).
    """
    cfg = cfg or SolveConfig()
    report = classify_regime(params)
    if report.subcriticality is Subcriticality.SUBCRITICAL:
        raise ParameterError("subcritical parameters refused: no ground state is expected there")
    if cfg.custom_initial is not None:
        u, v = _with_predicted_tails(report, *cfg.custom_initial)
        grid = u.grid
    else:
        grid = cfg.grid if cfg.grid is not None else default_solver_grid()
        u, v = make_ansatz(params, grid)

    refs = _anchor_values(u, v)
    history = []
    trace = []
    res_u = res_v = last_res = math.inf
    converged = False
    iterations = 0
    for k in range(1, cfg.max_iters + 1):
        start, built = time.perf_counter(), plans_built()
        evals, nodes = evaluations(), nodes_evaluated()
        _check_positive(u, v)
        u_img, v_img = potential_images(params, u, v, cfg)
        # residual against the image of the effective constant-coefficient
        # system; the constants are undone exactly on exit
        (u_at, v_at), (u_img_at, v_img_at) = _anchor_values(u, v), _anchor_values(u_img, v_img)
        c1_eff, c2_eff = u_at / u_img_at, v_at / v_img_at
        x, r, (res_u, res_v) = _log_residual(u, v, u_img, v_img, (c1_eff, c2_eff))
        iterations = k
        res = max(res_u, res_v)
        converged = res <= cfg.rel_tol
        mixed = None
        if not converged:
            if res > last_res:
                history.clear()  # restart: this step is the plain damped one
            x_new, mixed = _step(x, r, cfg.damping, history)
            history.append((x, r))
            del history[:-ANDERSON_DEPTH]
            u, v = _profiles(x_new, (u, v), (u_img, v_img), cfg.damping, refs)
            last_res = res
        trace.append(
            {
                "iteration": k,
                "residual_u": res_u,
                "residual_v": res_v,
                "c1_eff": c1_eff,
                "c2_eff": c2_eff,
                "damping": None if converged else cfg.damping,
                "mixed": mixed,
                "wall_s": time.perf_counter() - start,
                "plans_built": plans_built() - built,
                "potential_evals": evaluations() - evals,
                "nodes": nodes_evaluated() - nodes,
            }
        )
        if converged:
            break

    if converged:
        u, v = _undo_effective_constants(params, u, v, c1_eff, c2_eff)
    if not converged and cfg.strict:
        raise NotConvergedError(
            f"no convergence after {iterations} iterations "
            f"(residuals {res_u:.3e}, {res_v:.3e})",
            trace=trace,
        )
    window = (grid.r_max / 100.0, grid.r_max)
    allow_log = report.v_log_power != 0.0
    rate_u = fit_decay_rate(u, window)
    rate_v = fit_decay_rate(v, window, allow_log=allow_log)
    return SolveResult(
        u=u,
        v=v,
        residual_u=res_u,
        residual_v=res_v,
        iterations=iterations,
        converged=converged,
        rate_u=rate_u,
        rate_v=rate_v,
        report=report,
        trace=trace,
        config={
            "damping": cfg.damping,
            "anderson_depth": ANDERSON_DEPTH,
            "max_iters": cfg.max_iters,
            "rel_tol": cfg.rel_tol,
            "strict": cfg.strict,
            "grid": {"r_min": grid.r_min, "r_max": grid.r_max, "count": grid.count},
            "initial": "ansatz" if cfg.custom_initial is None else "custom",
            "coefficients": cfg.coefficients is not None,
            "potential": cfg.potential.to_dict(),
        },
    )


def exact_bubble(n: int, sigma: float, grid: RadialGrid) -> tuple[RadialFunction, float]:
    """The exact fixed point of the Hardy-weighted scalar map and its exponent.

    U(r) = lam (1 + r^{2+sigma})^{-(n-2)/(2+sigma)} with
    p = (n + 2 + 2 sigma)/(n - 2) and lam^{p-1} = (n-2)(n+sigma)/s_{n-1}
    satisfies U = W_{1,2}(r^sigma U^p) exactly, for sigma > -2: the
    Hardy-Sobolev extremal solves -Delta U = s_{n-1} r^sigma U^p, and
    W_{1,2} f is s_{n-1} times the Newtonian potential of f.  Returns
    (U, p); U's tail exponent is n - 2.
    """
    if n < 3:
        raise ParameterError("bubble profile requires n >= 3")
    if not sigma > -2.0:
        raise ParameterError(f"exact bubble requires sigma > -2, got {sigma}")
    p = (n + 2 + 2 * sigma) / (n - 2)
    lam = ((n - 2) * (n + sigma) / sphere_surface(n)) ** ((n - 2) / (4 + 2 * sigma))
    r = grid.points
    vals = lam * (1.0 + r ** (2 + sigma)) ** (-(n - 2) / (2 + sigma))
    return RadialFunction(grid, vals, head_exponent=0.0, tail_exponent=float(n - 2)), p


def bubble_profile(n: int, grid: RadialGrid) -> RadialFunction:
    """The critical bubble u(r) = lam (1 + r^2)^{-(n-2)/2}, exact_bubble's
    sigma = 0 case: u = W_{1,2}(u^{(n+2)/(n-2)}) with
    lam = (n(n-2)/s_{n-1})^{(n-2)/4}."""
    return exact_bubble(n, 0, grid)[0]
