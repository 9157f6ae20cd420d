"""Picard fixed-point solver for the coupled weighted potential system.

The iteration maps a positive pair (u, v) to the potential images

    u~ = c1 * W(r^{sigma1} v^q),    v~ = c2 * W(r^{sigma2} u^p),

applies geometric damping u' = u^{1-theta} u~^theta (which preserves
positivity and power-law tails exactly), and optionally renormalizes along
the system's spatial scaling family u -> lam^{q0} u(lam r), v -> lam^{p0}
v(lam r), which is the zero mode that stalls convergence at critical
parameters.  Convergence is declared on the fixed-point residual, the
relative sup-distance between the iterate and its potential image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DegenerateIterationError, NotConvergedError, ParameterError
from .params import Parameters, RegimeReport, Subcriticality, classify_regime, exponents, validate
from .potential import PotentialConfig, weighted_source, wolff_eval
from .radial import RadialFunction, RadialGrid, RateFit, fit_decay_rate, is_infinite, sphere_surface

OVERFLOW_GUARD = 1e150


class Normalization(Enum):
    FIX_VALUE_AT_ONE = "FixValueAtOne"
    FIX_MASS = "FixMass"
    NONE = "None"


class Ansatz(Enum):
    FAST = "FastAnsatz"
    SLOW = "SlowAnsatz"
    CUSTOM = "Custom"


@dataclass(frozen=True)
class SolveConfig:
    damping: float = 0.8
    max_iters: int = 60
    rel_tol: float = 5e-3
    normalization: Normalization = Normalization.FIX_VALUE_AT_ONE
    initial: Ansatz = Ansatz.FAST
    custom_initial: Optional[tuple[RadialFunction, RadialFunction]] = None
    coefficients: Optional[tuple[RadialFunction, RadialFunction]] = None
    grid: Optional[RadialGrid] = None
    potential: PotentialConfig = field(default_factory=PotentialConfig)
    norm_radius: float = 1.0
    allow_subcritical: bool = False
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
        try:
            if "normalization" in kwargs:
                kwargs["normalization"] = Normalization(kwargs["normalization"])
            if "initial" in kwargs:
                kwargs["initial"] = Ansatz(kwargs["initial"])
        except ValueError as exc:  # the enum names the value it rejects
            raise ParameterError(f"solve config: {exc}") from None
        if "grid" in kwargs:
            gspec = kwargs["grid"]
            if not isinstance(gspec, dict) or not {"r_min", "r_max"} <= gspec.keys():
                raise ParameterError(f"solve config grid needs r_min and r_max, got {gspec!r}")
            kwargs["grid"] = RadialGrid.per_decade(
                gspec["r_min"], gspec["r_max"], gspec.get("nodes_per_decade", 16)
            )
        if "potential" in kwargs:
            kwargs["potential"] = PotentialConfig.from_dict(kwargs["potential"])
        return cls(**kwargs)


@dataclass(frozen=True)
class SolveResult:
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

    def to_report_dict(self):
        return {
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


def make_ansatz(kind: Ansatz, params: Parameters, grid: RadialGrid):
    """Initial profile pair with the predicted tail behavior built in.

    FAST uses the classified fast-decay exponents (with the log factor in
    the borderline regime); SLOW uses the (q0, p0) slow tails, which reduce
    to the classical slow rate (2+sigma)/(p-1) in the scalar second-order
    case.  The slow pair is a heuristic starting point only.
    """
    validate(params)
    r = grid.points
    if kind is Ansatz.FAST:
        report = classify_regime(params)
        a = report.predicted_u_exponent
        b = report.predicted_v_exponent
        ell = report.v_log_power
        u = RadialFunction(grid, (1.0 + r**2) ** (-a / 2.0), head_exponent=0.0, tail_exponent=a)
        v_vals = (1.0 + r**2) ** (-b / 2.0)
        if ell != 0.0:
            v_vals = v_vals * (1.0 + 0.5 * np.log1p(r**2)) ** ell
        v = RadialFunction(
            grid, v_vals, head_exponent=0.0, tail_exponent=b, tail_log_power=ell
        )
        return u, v
    if kind is Ansatz.SLOW:
        exps = exponents(params)
        u = RadialFunction(
            grid, (1.0 + r**2) ** (-exps.q0 / 2.0), head_exponent=0.0, tail_exponent=exps.q0
        )
        v = RadialFunction(
            grid, (1.0 + r**2) ** (-exps.p0 / 2.0), head_exponent=0.0, tail_exponent=exps.p0
        )
        return u, v
    raise ParameterError("make_ansatz requires FAST or SLOW (use custom_initial for CUSTOM)")


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
        tail_exponent=(
            math.inf
            if math.isinf(old.tail_exponent) or math.isinf(new.tail_exponent)
            else mix(old.tail_exponent, new.tail_exponent)
        ),
        tail_log_power=mix(old.tail_log_power, new.tail_log_power),
    )


def _damped_update(params, u, v, u_img, v_img, cfg: SolveConfig, u_ref: float, v_ref: float):
    """Mix (u, v) toward their images, then re-anchor the amplitudes to (u_ref, v_ref).

    The amplitude mode of the damped map never contracts: the log-amplitude
    linearization of the damped iteration has spectral radius
    1 - theta + theta*sqrt(p*q)/(gamma-1) > 1 for any damping, so the
    amplitude direction must be projected out.  FixValueAtOne rescales both
    components to their reference values at the anchor radius, which makes
    the iteration target the system with constant coefficients (mu, nu);
    solve_system undoes those constants exactly on exit.  FixMass anchors
    the total masses instead.
    """
    u = _geometric_mix(u, u_img, cfg.damping)
    v = _geometric_mix(v, v_img, cfg.damping)
    if cfg.normalization is Normalization.NONE:
        return u, v
    u_now, v_now = _references(params, u, v, cfg)
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
    """One damped, normalized iteration of the system map."""
    _check_positive(u, v)
    u_img, v_img = potential_images(params, u, v, cfg)
    u_ref, v_ref = _references(params, u, v, cfg)
    return _damped_update(params, u, v, u_img, v_img, cfg, u_ref, v_ref)


def _references(params, u, v, cfg: SolveConfig):
    """The anchored quantities of (u, v): total masses or values at norm_radius."""
    if cfg.normalization is Normalization.FIX_MASS:
        mu_mass = u.total_mass(params.n)
        nu_mass = v.total_mass(params.n)
        if is_infinite(mu_mass) or is_infinite(nu_mass):
            raise ParameterError("FixMass normalization requires finite total masses")
        return float(mu_mass), float(nu_mass)
    return float(u(cfg.norm_radius)), float(v(cfg.norm_radius))


def _check_positive(u: RadialFunction, v: RadialFunction):
    for name, f in (("u", u), ("v", v)):
        if np.any(f.values <= 0.0):
            raise DegenerateIterationError(f"iterate {name} vanishes on the grid")
        if float(np.max(f.values)) > OVERFLOW_GUARD or float(np.min(f.values)) < 1.0 / OVERFLOW_GUARD:
            raise DegenerateIterationError(f"iterate {name} left the overflow guard window")


def solve_system(params: Parameters, cfg: Optional[SolveConfig] = None) -> SolveResult:
    """Iterate the damped system map from the configured ansatz.

    Refuses subcritical parameter tuples unless allow_subcritical is set
    (no ground states are expected there).  Non-convergence is reported via
    converged=False (or NotConvergedError when cfg.strict).
    """
    cfg = cfg or SolveConfig()
    validate(params)
    report = classify_regime(params)
    if report.subcriticality is Subcriticality.SUBCRITICAL and not cfg.allow_subcritical:
        raise ParameterError(
            "subcritical parameters refused by default (set allow_subcritical to override)"
        )
    grid = cfg.grid if cfg.grid is not None else default_solver_grid()
    if cfg.initial is Ansatz.CUSTOM:
        if cfg.custom_initial is None:
            raise ParameterError("Ansatz.CUSTOM requires custom_initial")
        u, v = cfg.custom_initial
    else:
        u, v = make_ansatz(cfg.initial, params, grid)

    u_ref, v_ref = _references(params, u, v, cfg)
    anchored = cfg.normalization is not Normalization.NONE
    trace = []
    res_u = res_v = math.inf
    c1_eff = c2_eff = 1.0
    converged = False
    iterations = 0
    for k in range(1, cfg.max_iters + 1):
        _check_positive(u, v)
        u_img, v_img = potential_images(params, u, v, cfg)
        if anchored:
            # residual against the image of the effective constant-coefficient
            # system; the constants are undone exactly on exit
            c1_eff = float(u(cfg.norm_radius)) / float(u_img(cfg.norm_radius))
            c2_eff = float(v(cfg.norm_radius)) / float(v_img(cfg.norm_radius))
            res_u, res_v = _residual_pair(u, v, u_img.scaled(c1_eff), v_img.scaled(c2_eff))
        else:
            res_u, res_v = _residual_pair(u, v, u_img, v_img)
        trace.append({"iteration": k, "residual_u": res_u, "residual_v": res_v})
        iterations = k
        if max(res_u, res_v) <= cfg.rel_tol:
            converged = True
            break
        u, v = _damped_update(params, u, v, u_img, v_img, cfg, u_ref, v_ref)

    if anchored and converged:
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
