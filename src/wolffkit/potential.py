"""Numerical Wolff and Riesz potentials of weighted radial sources.

The nonlinear potential of index (beta, gamma) is

    W(f)(x) = int_0^inf ( t^{beta*gamma - n} int_{B_t(x)} f )^{1/(gamma-1)} dt/t,

and the Riesz potential of order alpha is evaluated through the layer-cake
form I_alpha(f)(x) = (n - alpha) int_0^inf mass(|x|, t) t^{alpha-n} dt/t, so
both operators ride on the same sphere-ball geometry kernel.  The outer
t-integral runs in tau = ln t with composite Gauss-Legendre panels, panel
boundaries at the structural radii |rho - r| and rho + r of the source grid
edges, analytic closure below t_min, and a truncated exponential-window rule
above t_max driven by the closed-form cumulative mass.

The declared tail of the output follows the mass trichotomy of the source
tail exponent T against the dimension n:

    T > n           output ~ t^{-(n-beta*gamma)/(gamma-1)}
    T = n           same power with an extra (ln t)^{(L+1)/(gamma-1)} factor
    beta*gamma<T<n  output ~ t^{-(T-beta*gamma)/(gamma-1)} (ln t)^{L/(gamma-1)}

where L is the source's tail log power; T <= beta*gamma makes the outer
integral diverge and raises DivergentIntegralError.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergentIntegralError, ParameterError
from .geometry import CapKernel, ball_mass_batch
from .radial import (
    BORDERLINE_TOL,
    RadialFunction,
    RadialGrid,
    _leggauss01,
    unit_ball_volume,
)

_PANEL_NODES = 8
_TAIL_PANELS = 8
_TAIL_DECAY_SPAN = 40.0


@dataclass(frozen=True)
class PotentialConfig:
    """Truncation and resolution of the outer t-integral.

    Unset truncations resolve to t_min = r_min/10 and t_max = 100*r_max of
    the working grid (source and evaluation ranges combined).
    """

    t_min: Optional[float] = None
    t_max: Optional[float] = None
    t_nodes_per_decade: int = 16
    tail_correction: bool = True

    def __post_init__(self):
        if self.t_nodes_per_decade < 16:
            raise ParameterError(
                f"t_nodes_per_decade must be >= 16, got {self.t_nodes_per_decade}"
            )

    def resolve(self, f: RadialFunction, eval_r_min: float, eval_r_max: float):
        r_lo = min(f.grid.r_min, eval_r_min)
        r_hi = max(f.grid.r_max, eval_r_max)
        t_min = self.t_min if self.t_min is not None else r_lo / 10.0
        t_max = self.t_max if self.t_max is not None else 100.0 * r_hi
        if not t_min < r_lo:
            raise ParameterError(f"t_min = {t_min} must lie below the working r_min = {r_lo}")
        if not t_max > 4.0 * r_hi:
            raise ParameterError(f"t_max = {t_max} must exceed 4 * working r_max = {4 * r_hi}")
        return t_min, t_max

    def to_dict(self):
        return {
            "t_min": self.t_min,
            "t_max": self.t_max,
            "t_nodes_per_decade": self.t_nodes_per_decade,
            "tail_correction": self.tail_correction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PotentialConfig":
        known = {k: data[k] for k in ("t_min", "t_max", "t_nodes_per_decade", "tail_correction") if k in data}
        return cls(**known)


def weighted_source(sigma: float, exponent: float, f: RadialFunction) -> RadialFunction:
    """Return r -> r^sigma * f(r)^exponent with the tail models updated algebraically."""
    if exponent <= 0.0:
        raise ParameterError(f"source exponent must be positive, got {exponent}")
    r = f.grid.points
    values = r**sigma * f.values**exponent
    tail = exponent * f.tail_exponent - sigma if not math.isinf(f.tail_exponent) else math.inf
    return RadialFunction(
        f.grid,
        values,
        head_exponent=exponent * f.head_exponent - sigma,
        tail_exponent=tail,
        tail_log_power=exponent * f.tail_log_power,
    )


def _thread_count() -> int:
    env = os.environ.get("WOLFFKIT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def _parallel_map(func, items):
    workers = _thread_count()
    if workers == 1 or len(items) < 4:
        return [func(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, items))


def _tau_panels(tau_lo: float, tau_hi: float, breakpoints, nodes_per_decade: int, slope_cap: float):
    """Panel boundaries in tau: uniform density plus structural breakpoints."""
    h_density = _PANEL_NODES * math.log(10.0) / nodes_per_decade
    h_slope = 6.0 / max(slope_cap, 1e-3)
    h = min(h_density, h_slope)
    count = max(1, int(math.ceil((tau_hi - tau_lo) / h)))
    bounds = set(np.linspace(tau_lo, tau_hi, count + 1).tolist())
    for b in breakpoints:
        if tau_lo + 1e-12 < b < tau_hi - 1e-12:
            bounds.add(float(b))
    return np.array(sorted(bounds))


def _structural_radii(rho: float, f: RadialFunction):
    """Outer-integral breakpoints: grid-edge transits plus a dyadic ladder at t = rho.

    The inner mass changes most rapidly as the ball boundary sweeps the bulk
    of the source, i.e. for t near rho; grading the panels geometrically
    toward ln(rho) resolves that transition for any source concentration.
    """
    radii = []
    for r in (f.grid.r_min, f.grid.r_max):
        radii.extend((abs(rho - r), rho + r))
    if rho > 0.0:
        radii.append(rho)
        depth = min(6, max(1, int(math.ceil(math.log2(max(rho / f.grid.r_min, 2.0)))) + 1))
        for j in range(1, depth + 1):
            radii.extend((rho * (1.0 - 2.0**-j), rho * (1.0 + 2.0**-j)))
    return [math.log(x) for x in radii if x > 0.0]


class _SourceClass:
    FINITE = "finite"
    BORDERLINE = "borderline"
    SLOW = "slow"


def _classify_source_tail(f: RadialFunction, n: int):
    T, L = f.tail_exponent, f.tail_log_power
    if f.values[-1] == 0.0 or math.isinf(T):
        return _SourceClass.FINITE, T, L
    if T > n + BORDERLINE_TOL:
        return _SourceClass.FINITE, T, L
    if abs(T - n) <= BORDERLINE_TOL:
        if L < -1.0 - BORDERLINE_TOL:
            return _SourceClass.FINITE, T, L
        return _SourceClass.BORDERLINE, T, L
    return _SourceClass.SLOW, T, L


def _check_wolff_preconditions(f: RadialFunction, n: int, beta: float, gamma: float):
    if not (isinstance(n, int) and n >= 3):
        raise ParameterError(f"n >= 3 violated (n = {n})")
    if not (1.0 < gamma <= 2.0):
        raise ParameterError(f"gamma out of (1,2] (gamma = {gamma})")
    if beta <= 0.0 or beta * gamma >= n:
        raise ParameterError(f"need 0 < beta*gamma < n, got beta*gamma = {beta * gamma}")
    if f.head_exponent >= n and f.values[0] > 0.0:
        raise DivergentIntegralError(
            f"source head exponent {f.head_exponent} >= n: non-integrable near the origin"
        )
    klass, T, _ = _classify_source_tail(f, n)
    if klass is not _SourceClass.FINITE and T <= beta * gamma + BORDERLINE_TOL:
        raise DivergentIntegralError(
            f"source tail exponent {T} <= beta*gamma = {beta * gamma}: "
            "the outer integral diverges"
        )


def _tail_piece(f, n, rho, inv_power, a_decay, tau_max, growth) -> float:
    """int_{tau_max}^inf mass^{inv_power} e^{-a_decay tau} dtau, truncated window.

    growth is the asymptotic log-slope of mass^{inv_power}; the effective
    decay rate a_decay - growth must be positive for convergence.  For
    t >> rho the ball mass is the symmetric cumulative average, which kills
    the O(rho/t) term; all panels' nodes take one cumulative_mass call.
    """
    a_eff = a_decay - growth
    if a_eff <= BORDERLINE_TOL:
        raise DivergentIntegralError(
            "outer integral beyond t_max diverges (effective decay rate "
            f"{a_eff:.3e} <= 0)"
        )
    span = _TAIL_DECAY_SPAN / a_eff
    nodes, wts = _leggauss01(_PANEL_NODES)
    edges = np.linspace(tau_max, tau_max + span, _TAIL_PANELS + 1)
    widths = np.diff(edges)
    tau = (edges[:-1, None] + widths[:, None] * nodes).ravel()
    t = np.exp(tau)
    both = f.cumulative_mass(n, np.concatenate([t - rho, t + rho]))
    mass = 0.5 * (both[: t.size] + both[t.size :])
    logg = np.full(tau.shape, -np.inf)
    pos = mass > 0.0
    logg[pos] = inv_power * np.log(mass[pos]) - a_decay * tau[pos]
    return float((np.exp(logg).reshape(_TAIL_PANELS, _PANEL_NODES) @ wts) @ widths)


def _head_piece(f, n, rho, inv_power, a_decay, t_min) -> float:
    """Analytic t < t_min closure: mass ~ f(rho) omega_n t^n near t = 0."""
    if rho > 0.0:
        f_rho = float(f(rho))
        if f_rho <= 0.0:
            return 0.0
        rate = n * inv_power - a_decay  # local integrand slope in tau
        if rate <= 0.0:
            raise DivergentIntegralError("outer integral diverges at t = 0")
        return (f_rho * unit_ball_volume(n)) ** inv_power * t_min**rate / rate
    # evaluation at the origin: mass(0, t) follows the head model exactly
    v0, h = f.values[0], f.head_exponent
    if v0 == 0.0:
        return 0.0
    coeff = f.cumulative_mass(n, np.array([t_min]))[0] / t_min ** (n - h)
    rate = (n - h) * inv_power - a_decay
    if rate <= 0.0:
        raise DivergentIntegralError(
            f"potential diverges at the origin (head exponent {h} too strong)"
        )
    return coeff**inv_power * t_min**rate / rate


def _wolff_growth(klass: str, T: float, n: int, inv_power: float) -> float:
    if klass is _SourceClass.SLOW:
        return (n - T) * inv_power
    return 0.0


def wolff_eval_at(
    f: RadialFunction,
    n: int,
    beta: float,
    gamma: float,
    rho_values,
    cfg: Optional[PotentialConfig] = None,
) -> np.ndarray:
    """Wolff potential of f sampled at the given center distances."""
    _check_wolff_preconditions(f, n, beta, gamma)
    cfg = cfg or PotentialConfig()
    rhos = np.atleast_1d(np.asarray(rho_values, dtype=float))
    r_ref = np.clip(rhos[rhos > 0], f.grid.r_min, None)
    eval_lo = float(r_ref.min()) if r_ref.size else f.grid.r_min
    eval_hi = float(rhos.max()) if rhos.size else f.grid.r_max
    t_min, t_max = cfg.resolve(f, eval_lo, max(eval_hi, f.grid.r_max))

    if not np.any(f.values > 0.0):
        return np.zeros(rhos.size)

    g = gamma - 1.0
    inv_power = 1.0 / g
    bg = beta * gamma
    a_decay = (n - bg) * inv_power
    klass, T, _ = _classify_source_tail(f, n)
    growth = _wolff_growth(klass, T, n, inv_power)
    kernel = CapKernel(n)
    tau_lo, tau_hi = math.log(t_min), math.log(t_max)
    slope_cap = max(bg, n - bg, n) * inv_power
    nodes01, wts01 = _leggauss01(_PANEL_NODES)

    def one(rho: float) -> float:
        bounds = _tau_panels(tau_lo, tau_hi, _structural_radii(rho, f), cfg.t_nodes_per_decade, slope_cap)
        widths = np.diff(bounds)
        tau = (bounds[:-1, None] + widths[:, None] * nodes01[None, :]).ravel()
        t = np.exp(tau)
        mass = ball_mass_batch(kernel, f, rho, t)
        integrand = np.where(mass > 0.0, mass**inv_power * np.exp(-a_decay * tau), 0.0)
        main = float(np.dot(integrand.reshape(-1, _PANEL_NODES) @ wts01, widths))
        total = main + _head_piece(f, n, rho, inv_power, a_decay, t_min)
        if cfg.tail_correction:
            total += _tail_piece(f, n, rho, inv_power, a_decay, tau_hi, growth)
        return total

    return np.asarray(_parallel_map(one, [float(r) for r in rhos]))


def _output_tail_model(klass: str, T: float, L: float, n: int, bg: float, g: float):
    fast = (n - bg) / g
    if klass is _SourceClass.FINITE:
        return fast, 0.0
    if klass is _SourceClass.BORDERLINE:
        return fast, (L + 1.0) / g
    return (T - bg) / g, L / g


def wolff_eval(
    f: RadialFunction,
    n: int,
    beta: float,
    gamma: float,
    cfg: Optional[PotentialConfig] = None,
    eval_grid: Optional[RadialGrid] = None,
) -> RadialFunction:
    """Wolff potential of f sampled on eval_grid (default: the source grid)."""
    grid = eval_grid if eval_grid is not None else f.grid
    values = wolff_eval_at(f, n, beta, gamma, grid.points, cfg)
    klass, T, L = _classify_source_tail(f, n)
    tail, log_power = _output_tail_model(klass, T, L, n, beta * gamma, gamma - 1.0)
    return RadialFunction(
        grid, values, head_exponent=0.0, tail_exponent=tail, tail_log_power=log_power
    )


def riesz_eval_at(
    f: RadialFunction,
    n: int,
    alpha: float,
    rho_values,
    cfg: Optional[PotentialConfig] = None,
) -> np.ndarray:
    """Riesz potential I_alpha(f) at the given center distances (layer-cake form)."""
    if not (0.0 < alpha < n):
        raise ParameterError(f"alpha out of (0, n) (alpha = {alpha})")
    if f.head_exponent >= n and f.values[0] > 0.0:
        raise DivergentIntegralError(
            f"source head exponent {f.head_exponent} >= n: non-integrable near the origin"
        )
    klass, T, _ = _classify_source_tail(f, n)
    if klass is not _SourceClass.FINITE and T <= alpha + BORDERLINE_TOL:
        raise DivergentIntegralError(
            f"source tail exponent {T} <= alpha = {alpha}: the Riesz integral diverges"
        )
    cfg = cfg or PotentialConfig()
    rhos = np.atleast_1d(np.asarray(rho_values, dtype=float))
    r_ref = np.clip(rhos[rhos > 0], f.grid.r_min, None)
    eval_lo = float(r_ref.min()) if r_ref.size else f.grid.r_min
    eval_hi = float(rhos.max()) if rhos.size else f.grid.r_max
    t_min, t_max = cfg.resolve(f, eval_lo, max(eval_hi, f.grid.r_max))

    if not np.any(f.values > 0.0):
        return np.zeros(rhos.size)

    a_decay = n - alpha
    growth = n - T if klass is _SourceClass.SLOW else 0.0
    kernel = CapKernel(n)
    tau_lo, tau_hi = math.log(t_min), math.log(t_max)
    slope_cap = max(alpha, n - alpha, n)
    nodes01, wts01 = _leggauss01(_PANEL_NODES)

    def one(rho: float) -> float:
        bounds = _tau_panels(tau_lo, tau_hi, _structural_radii(rho, f), cfg.t_nodes_per_decade, slope_cap)
        widths = np.diff(bounds)
        tau = (bounds[:-1, None] + widths[:, None] * nodes01[None, :]).ravel()
        t = np.exp(tau)
        mass = ball_mass_batch(kernel, f, rho, t)
        integrand = mass * np.exp(-a_decay * tau)
        main = float(np.dot(integrand.reshape(-1, _PANEL_NODES) @ wts01, widths))
        total = main + _head_piece(f, n, rho, 1.0, a_decay, t_min)
        if cfg.tail_correction:
            total += _tail_piece(f, n, rho, 1.0, a_decay, tau_hi, growth)
        return (n - alpha) * total

    return np.asarray(_parallel_map(one, [float(r) for r in rhos]))


def riesz_eval(
    f: RadialFunction,
    n: int,
    alpha: float,
    cfg: Optional[PotentialConfig] = None,
    eval_grid: Optional[RadialGrid] = None,
) -> RadialFunction:
    """Riesz potential of f sampled on eval_grid (default: the source grid)."""
    grid = eval_grid if eval_grid is not None else f.grid
    values = riesz_eval_at(f, n, alpha, grid.points, cfg)
    klass, T, L = _classify_source_tail(f, n)
    # gamma = 2, beta = alpha/2 specialization of the output-tail trichotomy
    tail, log_power = _output_tail_model(klass, T, L, n, alpha, 1.0)
    return RadialFunction(
        grid, values, head_exponent=0.0, tail_exponent=tail, tail_log_power=log_power
    )


def load_potential_config(path) -> PotentialConfig:
    with open(path) as fh:
        return PotentialConfig.from_dict(json.load(fh))
