"""Numerical Wolff and Riesz potentials of weighted radial sources.

The nonlinear potential of index (beta, gamma) is

    W(f)(x) = int_0^inf ( t^{beta*gamma - n} int_{B_t(x)} f )^{1/(gamma-1)} dt/t,

and the Riesz potential of order alpha is its gamma = 2 case in layer-cake
form, I_alpha(f)(x) = (n - alpha) int_0^inf mass(|x|, t) t^{alpha-n} dt/t
= (n - alpha) W_{alpha/2,2}(f)(x), so both operators run on one engine,
wolff_eval_at, over the same sphere-ball geometry kernel.  The outer
t-integral runs in tau = ln(c t), c the source grid's power-of-two frame
(RadialFunction.frame), as one sum over composite Gauss-Legendre panels,
with panel boundaries at the structural radii |rho - r| and rho + r of the
source grid edges and an analytic closure below t_min.  In the frame a grid
dilated by a power of two gets the same panels, so its ball masses are taken
on the same stored plans (see geometry).  The last 8 panels are
the window beyond t_max: 40 e-folds of the integrand's decay, where the ball
mass is the symmetric average of the closed-form cumulative mass, taken for
every centre in one call.

The declared tail of the output follows the mass trichotomy of the source
tail exponent T against the dimension n:

    T > n           output ~ t^{-(n-beta*gamma)/(gamma-1)}
    T = n           same power with an extra (ln t)^{(L+1)/(gamma-1)} factor
    beta*gamma<T<n  output ~ t^{-(T-beta*gamma)/(gamma-1)} (ln t)^{L/(gamma-1)}

where L is the source's tail log power; T <= beta*gamma makes the outer
integral diverge and raises DivergentIntegralError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergentIntegralError, ParameterError
from .geometry import CapKernel, ball_mass_batch
from .params import validate_operator
from .radial import (
    BORDERLINE_TOL,
    RadialFunction,
    RadialGrid,
    _leggauss01,
)

_PANEL_NODES = 8
_TAIL_PANELS = 8
_TAIL_DECAY_SPAN = 40.0


@dataclass(frozen=True)
class PotentialConfig:
    """Truncation and resolution of the outer t-integral.

    Unset truncations resolve to t_min = r_min/10 and t_max = 100*r_max of
    the working grid (source and evaluation ranges combined), so the default
    t_min also lies below every positive centre.  A set t_min must lie
    below the source grid's r_min.
    """

    t_min: Optional[float] = None
    t_max: Optional[float] = None
    t_nodes_per_decade: int = 16

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
        if not t_min < f.grid.r_min:
            raise ParameterError(f"t_min = {t_min} must lie below the source r_min = {f.grid.r_min}")
        if not t_max > 4.0 * r_hi:
            raise ParameterError(f"t_max = {t_max} must exceed 4 * working r_max = {4 * r_hi}")
        return t_min, t_max

    def to_dict(self):
        return {
            "t_min": self.t_min,
            "t_max": self.t_max,
            "t_nodes_per_decade": self.t_nodes_per_decade,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PotentialConfig":
        known = {k: data[k] for k in ("t_min", "t_max", "t_nodes_per_decade") if k in data}
        return cls(**known)


def weighted_source(sigma: float, exponent: float, f: RadialFunction) -> RadialFunction:
    """Return r -> r^sigma * f(r)^exponent with the tail models updated algebraically."""
    if exponent <= 0.0:
        raise ParameterError(f"source exponent must be positive, got {exponent}")
    r = f.grid.points
    values = r**sigma * f.values**exponent
    return RadialFunction(
        f.grid,
        values,
        head_exponent=exponent * f.head_exponent - sigma,
        tail_exponent=exponent * f.tail_exponent - sigma,
        tail_log_power=exponent * f.tail_log_power,
    )


def _thread_count() -> int:
    """Centres are evaluated one after another; perfbench/worker.py imports
    this to record the pool size in its results."""
    return 1


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
    """Outer-integral breakpoints: grid-edge transits plus a dyadic ladder at t = rho,
    as ln(c t) in f's frame.

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
    c = f.frame
    return [math.log(c * x) for x in radii if x > 0.0]


class _SourceClass:
    FINITE = "finite"
    BORDERLINE = "borderline"
    SLOW = "slow"


def _classify_source_tail(f: RadialFunction, n: int):
    T, L = f.tail_exponent, f.tail_log_power
    if f.tail_integrable(n):
        return _SourceClass.FINITE, T, L
    if abs(T - n) <= BORDERLINE_TOL:
        return _SourceClass.BORDERLINE, T, L
    return _SourceClass.SLOW, T, L


def _check_wolff_preconditions(f: RadialFunction, n: int, beta: float, gamma: float):
    """The source's divergence checks; the operator's own live in params."""
    if not f.head_integrable(n):
        raise DivergentIntegralError(
            f"source head exponent {f.head_exponent} >= n: non-integrable near the origin"
        )
    klass, T, _ = _classify_source_tail(f, n)
    if klass is not _SourceClass.FINITE and T <= beta * gamma + BORDERLINE_TOL:
        raise DivergentIntegralError(
            f"source tail exponent {T} <= beta*gamma = {beta * gamma}: "
            "the outer integral diverges"
        )


def _head_piece(f, n, rho, inv_power, a_decay, t_min, mass0, t0) -> float:
    """Analytic t < t_min closure: mass ~ c t^e near t = 0.

    e is n off the origin and n - h at the origin (the head model).  c is read
    from the mass the quadrature holds at its first node t0, which also sees
    a jump of f at rho: there the ball holds half of f(rho) omega_n t^n.
    """
    if mass0 <= 0.0:
        return 0.0
    e = n if rho > 0.0 else n - f.head_exponent
    rate = e * inv_power - a_decay  # local integrand slope in tau
    if rate <= 0.0:
        raise DivergentIntegralError(
            f"potential diverges at the origin (head exponent {f.head_exponent} too strong)"
        )
    return (mass0 / t0**e) ** inv_power * t_min**rate / rate


def wolff_eval_at(
    f: RadialFunction,
    n: int,
    beta: float,
    gamma: float,
    rho_values,
    cfg: Optional[PotentialConfig] = None,
) -> np.ndarray:
    """Wolff potential of f sampled at the given center distances."""
    validate_operator(n, beta, gamma)
    _check_wolff_preconditions(f, n, beta, gamma)
    cfg = cfg or PotentialConfig()
    rhos = np.atleast_1d(np.asarray(rho_values, dtype=float))
    # the t < t_min closure assumes t << rho, so t_min follows the smallest centre
    positive = rhos[rhos > 0]
    eval_lo = float(positive.min()) if positive.size else f.grid.r_min
    eval_hi = float(rhos.max()) if rhos.size else f.grid.r_max
    t_min, t_max = cfg.resolve(f, eval_lo, max(eval_hi, f.grid.r_max))

    if not np.any(f.values > 0.0):
        return np.zeros(rhos.size)

    g = gamma - 1.0
    inv_power = 1.0 / g
    bg = beta * gamma
    a_decay = (n - bg) * inv_power
    klass, T, _ = _classify_source_tail(f, n)
    # beyond t_max mass^{inv_power} grows like t^{(n - T) inv_power} for a slow
    # source tail, so the integrand decays at the rate a_eff in tau
    a_eff = a_decay - ((n - T) * inv_power if klass is _SourceClass.SLOW else 0.0)
    if a_eff <= BORDERLINE_TOL:
        raise DivergentIntegralError(
            "outer integral beyond t_max diverges (effective decay rate "
            f"{a_eff:.3e} <= 0)"
        )
    kernel = CapKernel(n)
    # the panels live in the frame, tau = ln(c t), so that grids dilated by a
    # power of two ask ball_mass_batch for the same c t and share its plans
    c = f.frame
    a_ln_c = a_decay * math.log(c)
    tau_lo, tau_hi = math.log(c * t_min), math.log(c * t_max)
    slope_cap = max(bg, n - bg, n) * inv_power
    nodes01, wts01 = _leggauss01(_PANEL_NODES)
    # the window beyond t_max: 8 panels over 40 e-folds of the integrand's decay
    window = np.linspace(tau_hi, tau_hi + _TAIL_DECAY_SPAN / a_eff, _TAIL_PANELS + 1)[1:]
    far = _TAIL_PANELS * _PANEL_NODES
    # the window's t nodes are every centre's: in the window t >> rho, and
    # the symmetric cumulative average of the ball mass kills its O(rho/t)
    # term, so one cumulative_mass call gives every centre's window masses
    window_bounds = np.concatenate([[tau_hi], window])
    t_far = np.exp((window_bounds[:-1, None] + np.diff(window_bounds)[:, None] * nodes01).ravel()) / c
    both = f.cumulative_mass(n, np.stack([t_far - rhos[:, None], t_far + rhos[:, None]]).ravel())
    minus, plus = both.reshape(2, rhos.size, far)
    window_mass = 0.5 * (minus + plus)

    out = np.empty(rhos.size)
    for i, rho in enumerate(rhos.tolist()):
        tau_panels = _tau_panels(tau_lo, tau_hi, _structural_radii(rho, f), cfg.t_nodes_per_decade, slope_cap)
        bounds = np.concatenate([tau_panels, window])
        widths = np.diff(bounds)
        tau = (bounds[:-1, None] + widths[:, None] * nodes01[None, :]).ravel()
        t = np.exp(tau)
        t /= c
        mass = np.concatenate([ball_mass_batch(kernel, f, rho, t[:-far]), window_mass[i]])
        # in logs: at the window's far end mass^{inv_power} overflows where
        # e^{-a ln t} underflows; a mass <= 0 gives exp(-inf) = 0
        with np.errstate(divide="ignore"):
            integrand = np.exp(inv_power * np.log(np.maximum(mass, 0.0)) - a_decay * tau + a_ln_c)
        panel_sum = float((integrand.reshape(-1, _PANEL_NODES) @ wts01) @ widths)
        out[i] = panel_sum + _head_piece(f, n, rho, inv_power, a_decay, t_min, mass[0], t[0])
    return out


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
    """Riesz potential I_alpha(f) = (n - alpha) W_{alpha/2,2}(f) at the given center distances."""
    if not (0.0 < alpha < n):
        raise ParameterError(f"alpha out of (0, n) (alpha = {alpha})")
    return (n - alpha) * wolff_eval_at(f, n, alpha / 2.0, 2.0, rho_values, cfg)


def riesz_eval(
    f: RadialFunction,
    n: int,
    alpha: float,
    cfg: Optional[PotentialConfig] = None,
    eval_grid: Optional[RadialGrid] = None,
) -> RadialFunction:
    """Riesz potential of f sampled on eval_grid (default: the source grid).

    The values are riesz_eval_at's; the declared output tail is the
    gamma = 2, beta = alpha/2 case of wolff_eval's.
    """
    grid = eval_grid if eval_grid is not None else f.grid
    values = riesz_eval_at(f, n, alpha, grid.points, cfg)
    klass, T, L = _classify_source_tail(f, n)
    # gamma = 2, beta = alpha/2 specialization of the output-tail trichotomy
    tail, log_power = _output_tail_model(klass, T, L, n, alpha, 1.0)
    return RadialFunction(
        grid, values, head_exponent=0.0, tail_exponent=tail, tail_log_power=log_power
    )
