"""Picard fixed-point solver for the coupled weighted potential system.

The iteration maps a positive pair (u, v) to the potential images

    u~ = c1 * W(r^{sigma1} v^q),    v~ = c2 * W(r^{sigma2} u^p),

applies geometric damping u' = u^{1-theta} u~^theta (which preserves
positivity and power-law tails exactly), and re-anchors the amplitudes so
that u and v keep their starting values at r = ANCHOR_RADIUS.  Nothing fixes
the other zero mode of critical parameters, the dilation family
u -> lam^{q0} u(lam r), v -> lam^{p0} v(lam r).  Convergence is declared on
the fixed-point residual, the relative sup-distance between the iterate and
its potential image.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import DegenerateIterationError, NotConvergedError, ParameterError
from .params import Parameters, RegimeReport, Subcriticality, classify_regime, validate
from .potential import PotentialConfig, weighted_source, wolff_eval
from .radial import RadialFunction, RadialGrid, RateFit, fit_decay_rate, sphere_surface

OVERFLOW_GUARD = 1e150
ANCHOR_RADIUS = 1.0


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
        if not (0.0 < self.damping <= 1.0):
            raise ParameterError(f"damping out of (0,1] (damping = {self.damping})")
        if self.rel_tol <= 0.0:
            raise ParameterError(f"rel_tol must be positive (rel_tol = {self.rel_tol})")
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")

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
    ANCHOR_RADIUS), the damping of the update it made (None on the accepted
    iterate) and its wall time wall_s.  to_report_dict leaves the trace out,
    so reports written with --no-timestamp stay byte-identical.
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
    validate(params)
    r = grid.points
    report = classify_regime(params)
    a = report.predicted_u_exponent
    b = report.predicted_v_exponent
    ell = report.v_log_power
    u = RadialFunction(grid, (1.0 + r**2) ** (-a / 2.0), head_exponent=0.0, tail_exponent=a)
    v_vals = (1.0 + r**2) ** (-b / 2.0)
    if ell != 0.0:
        v_vals = v_vals * (1.0 + 0.5 * np.log1p(r**2)) ** ell
    v = RadialFunction(grid, v_vals, head_exponent=0.0, tail_exponent=b, tail_log_power=ell)
    return u, v


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
    return _residual_pair(u, v, u_img, v_img, window)


def _residual_pair(u, v, u_img, v_img, window=None):
    pts = u.grid.points
    mask = np.ones(pts.size, dtype=bool)
    if window is not None:
        mask = (pts >= window[0]) & (pts <= window[1])
    res_u = float(np.max(np.abs(u.values[mask] - u_img.values[mask]) / u.values[mask]))
    res_v = float(np.max(np.abs(v.values[mask] - v_img.values[mask]) / v.values[mask]))
    return res_u, res_v


def _geometric_mix(old: RadialFunction, new: RadialFunction, theta: float) -> RadialFunction:
    if theta >= 1.0:
        return new
    vals = old.values ** (1.0 - theta) * new.values**theta
    mix = lambda a, b: (1.0 - theta) * a + theta * b
    return RadialFunction(
        old.grid,
        vals,
        head_exponent=mix(old.head_exponent, new.head_exponent),
        tail_exponent=mix(old.tail_exponent, new.tail_exponent),
        tail_log_power=mix(old.tail_log_power, new.tail_log_power),
    )


def _damped_update(u, v, u_img, v_img, damping: float, u_ref: float, v_ref: float):
    """Mix (u, v) toward their images, then re-anchor the amplitudes to (u_ref, v_ref).

    The amplitude mode of the damped map never contracts: the log-amplitude
    linearization of the damped iteration has spectral radius
    1 - theta + theta*sqrt(p*q)/(gamma-1) > 1 for any damping, so the
    amplitude direction must be projected out.  Both components are rescaled
    to their reference values at ANCHOR_RADIUS, which makes the iteration
    target the system with constant coefficients (mu, nu); solve_system
    undoes those constants exactly on exit.
    """
    u = _geometric_mix(u, u_img, damping)
    v = _geometric_mix(v, v_img, damping)
    u_now, v_now = _anchor_values(u, v)
    return u.scaled(u_ref / u_now), v.scaled(v_ref / v_now)


def _undo_effective_constants(params, u, v, c1: float, c2: float):
    """Exact rescale (A u, B v) mapping the constant-coefficient fixed point
    u = c1 W(src(v)), v = c2 W(src(u)) to the unit-coefficient system."""
    g = params.gamma - 1.0
    M = np.array([[-1.0, params.q / g], [params.p / g, -1.0]])
    log_ab = np.linalg.solve(M, np.array([math.log(c1), math.log(c2)]))
    A, B = math.exp(log_ab[0]), math.exp(log_ab[1])
    return u.scaled(A), v.scaled(B)


def picard_step(params: Parameters, u: RadialFunction, v: RadialFunction, cfg: SolveConfig):
    """One damped iteration of the system map, re-anchored to u and v at ANCHOR_RADIUS."""
    _check_positive(u, v)
    u_img, v_img = potential_images(params, u, v, cfg)
    u_ref, v_ref = _anchor_values(u, v)
    return _damped_update(u, v, u_img, v_img, cfg.damping, u_ref, v_ref)


def _anchor_values(u: RadialFunction, v: RadialFunction):
    return float(u(ANCHOR_RADIUS)), float(v(ANCHOR_RADIUS))


def _check_positive(u: RadialFunction, v: RadialFunction):
    for name, f in (("u", u), ("v", v)):
        if np.any(f.values <= 0.0):
            raise DegenerateIterationError(f"iterate {name} vanishes on the grid")
        if float(np.max(f.values)) > OVERFLOW_GUARD or float(np.min(f.values)) < 1.0 / OVERFLOW_GUARD:
            raise DegenerateIterationError(f"iterate {name} left the overflow guard window")


def solve_system(params: Parameters, cfg: Optional[SolveConfig] = None) -> SolveResult:
    """Iterate the damped system map from the fast ansatz or cfg.custom_initial.

    Refuses subcritical parameter tuples, where no ground states are
    expected.  Non-convergence is reported via converged=False (or
    NotConvergedError when cfg.strict).
    """
    cfg = cfg or SolveConfig()
    validate(params)
    report = classify_regime(params)
    if report.subcriticality is Subcriticality.SUBCRITICAL:
        raise ParameterError("subcritical parameters refused: no ground state is expected there")
    if cfg.custom_initial is not None:
        u, v = cfg.custom_initial
        grid = u.grid
    else:
        grid = cfg.grid if cfg.grid is not None else default_solver_grid()
        u, v = make_ansatz(params, grid)

    u_ref, v_ref = _anchor_values(u, v)
    trace = []
    res_u = res_v = math.inf
    converged = False
    iterations = 0
    for k in range(1, cfg.max_iters + 1):
        start = time.perf_counter()
        _check_positive(u, v)
        u_img, v_img = potential_images(params, u, v, cfg)
        # residual against the image of the effective constant-coefficient
        # system; the constants are undone exactly on exit
        (u_at, v_at), (u_img_at, v_img_at) = _anchor_values(u, v), _anchor_values(u_img, v_img)
        c1_eff, c2_eff = u_at / u_img_at, v_at / v_img_at
        res_u, res_v = _residual_pair(u, v, u_img.scaled(c1_eff), v_img.scaled(c2_eff))
        iterations = k
        converged = max(res_u, res_v) <= cfg.rel_tol
        if not converged:
            u, v = _damped_update(u, v, u_img, v_img, cfg.damping, u_ref, v_ref)
        trace.append(
            {
                "iteration": k,
                "residual_u": res_u,
                "residual_v": res_v,
                "c1_eff": c1_eff,
                "c2_eff": c2_eff,
                "damping": None if converged else cfg.damping,
                "wall_s": time.perf_counter() - start,
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
            "max_iters": cfg.max_iters,
            "rel_tol": cfg.rel_tol,
            "strict": cfg.strict,
            "grid": {"r_min": grid.r_min, "r_max": grid.r_max, "count": grid.count},
            "initial": "ansatz" if cfg.custom_initial is None else "custom",
            "coefficients": cfg.coefficients is not None,
            "potential": cfg.potential.to_dict(),
        },
    )


def bubble_profile(n: int, grid: RadialGrid) -> RadialFunction:
    """Exact normalized scalar fixed point at the critical second-order exponent.

    u(r) = lam * (1 + r^2)^{-(n-2)/2} with lam = (n(n-2)/s_{n-1})^{(n-2)/4}
    satisfies u = W_{1,2}(u^{(n+2)/(n-2)}) exactly; the constant comes from
    -Delta (1+r^2)^{-(n-2)/2} = n(n-2)(1+r^2)^{-(n+2)/2} and the Newtonian
    potential normalization.
    """
    if n < 3:
        raise ParameterError("bubble profile requires n >= 3")
    c1 = n * (n - 2) / sphere_surface(n)
    lam = c1 ** ((n - 2) / 4.0)
    r = grid.points
    vals = lam * (1.0 + r**2) ** (-(n - 2) / 2.0)
    return RadialFunction(grid, vals, head_exponent=0.0, tail_exponent=float(n - 2))
