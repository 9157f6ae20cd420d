"""Numerical Wolff and Riesz potentials of weighted radial sources.

The nonlinear potential of index (beta, gamma) is

    W(f)(x) = int_0^inf ( t^{beta*gamma - n} int_{B_t(x)} f )^{1/(gamma-1)} dt/t,

and the Riesz potential of order alpha is its gamma = 2 case in layer-cake
form, I_alpha(f)(x) = (n - alpha) int_0^inf mass(|x|, t) t^{alpha-n} dt/t
= (n - alpha) W_{alpha/2,2}(f)(x), so both operators run on one engine,
wolff_eval_at, over the same sphere-ball geometry kernel.  The outer
t-integral runs in tau = ln t as one sum over composite Gauss-Legendre panels
of width at most h = min(8 ln 10 / t_nodes_per_decade, 6 / slope_cap), with
an analytic closure below each centre's t_min.  The last 8 panels are the
window beyond t_max: 40 e-folds of the integrand's decay, where the ball
mass is the symmetric average of the closed-form cumulative mass.  Below
t_max a ball's mass is its covered part, the cumulative mass at t - rho for
t > rho, plus its partial shells.  One cumulative_mass call per map takes
both kinds of cumulative mass for every centre, the window's and the
covered ones, and the ball masses take the covered ones as given.

A map takes the shared path when its source grid is geometric
(RadialGrid.log_step), its source has no jump (RadialFunction.has_jump),
every centre is > 0 and PotentialConfig leaves t_min and t_max unset; every
Picard map and every map of the inequality battery's bumps does.  There each
centre's panels are one relative layout shifted by ln rho: boundaries at
ln rho + k h, a dyadic ladder rho (1 +- 2^-j), j <= 6, and the ends
rho 10^-3 = t_min and rho 10^3 = t_max, where the head closure and the
window start.  Every centre's partial shells then read one
geometry.reference_plan, built for the layout's relative radii, so the
map commutes with dilations and with shifts of the source by whole grid
cells, up to rounding.  Any other map keeps one global t-range (t_min =
r_min/10 and t_max = 100 r_max of the working grid, or the set ones), with
panel boundaries at the structural radii |rho - r| and rho + r of the
source grid edges, and ball_mass_batch builds its nodes per call.  Either
way the layout is built per map: per centre the panel widths and, at every
node, ln t, and t below t_max, and the radii of the map's cumulative_mass
call, all centres in flat arrays.  On the solver's 81-point grid a map takes
cumulative masses at 10,368 window and 7,776 covered radii.

On the shared path every centre has the plan's radii, so one
geometry.map_masses call gives every centre's masses below t_max, one row
each: the plan's stencil for the grid points (16 source samples per
virtual cell, 2,960 on that grid) and its nodes for any other centre, kept
as one memo entry per map (the Riesz and Wolff images of one source at
gamma = 2 share it).
Any other map asks ball_mass_batch for each centre's masses in turn.  Either
way they go straight into one flat array, and the integrand's exp and log,
the panel sums (one matrix-vector product with the Gauss weights) and the
sum of each centre's panels (one add.reduceat) are taken once for all
centres, with the t < t_min closure vectorised too.  evaluations() counts
the wolff_eval_at calls of the process, which each Picard trace entry
reports per iteration.

The declared tail of the output follows the mass trichotomy of the source
tail exponent T against the dimension n:

    T > n           output ~ t^{-(n-beta*gamma)/(gamma-1)}
    T = n           same power with an extra (ln t)^{(L+1)/(gamma-1)} factor
    beta*gamma<T<n  output ~ t^{-(T-beta*gamma)/(gamma-1)} (ln t)^{L/(gamma-1)}

where L is the source's tail log power.  _output_tail decides this once per
call.  Its exponent is also the decay rate in tau = ln t of the outer
integrand beyond t_max, so it carries the one divergence rule there: an
exponent <= 0 (T <= beta*gamma on a slow tail) raises DivergentIntegralError
before any work.  A head that is not integrable raises it too, from the
cumulative_mass call that every evaluation makes.  A centre distance that
is negative or NaN raises ParameterError (geometry.check_radii), also
before any work.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass, fields
from numbers import Real
from typing import Optional

import numpy as np

from .errors import DivergentIntegralError, ParameterError
from .geometry import CapKernel, ball_mass_batch, check_radii, map_masses, reference_plan
from .params import validate_operator
from .radial import BORDERLINE_TOL, RadialFunction, RadialGrid, _leggauss01

_PANEL_NODES = 8
_TAIL_PANELS = 8
_TAIL_DECAY_SPAN = 40.0
_LADDER_DEPTH = 6
# the shared path's t-panels cover [rho 10^-3, rho 10^3]
_RELATIVE_DECADES = 3.0


@dataclass(frozen=True)
class PotentialConfig:
    """Truncation and resolution of the outer t-integral.

    With both truncations unset, a map on a geometric grid of a source
    without a jump at centres > 0 takes each centre's own range,
    [rho 10^-3, rho 10^3] (the shared path, see the module docstring).
    Setting t_min or t_max keeps one global range for every centre, and the
    map takes quadrature built per call.  An unset truncation then resolves
    to t_min = r_min/10 or t_max = 100*r_max of the working grid (source and
    evaluation ranges combined), so the default t_min also lies below every
    positive centre.  A set t_min must lie below the source grid's r_min.
    """

    t_min: Optional[float] = None
    t_max: Optional[float] = None
    t_nodes_per_decade: int = 16

    def __post_init__(self):
        for name in ("t_min", "t_max"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, Real) and 0.0 < value < math.inf):
                raise ParameterError(f"{name} must be finite and positive, got {value!r}")
        npd = self.t_nodes_per_decade
        if not (isinstance(npd, Real) and npd >= 16):
            raise ParameterError(f"t_nodes_per_decade must be a number >= 16, got {npd!r}")

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
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PotentialConfig":
        if not isinstance(data, dict):
            raise ParameterError(f"potential config must be an object, got {data!r}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ParameterError(f"unknown potential config keys: {unknown}")
        return cls(**data)


def weighted_source(sigma: float, exponent: float, f: RadialFunction) -> RadialFunction:
    """Return r -> r^sigma * f(r)^exponent with the tail models updated algebraically."""
    if exponent <= 0.0:
        raise ParameterError(f"source exponent must be positive, got {exponent}")
    return RadialFunction(
        f.grid,
        f.grid.points**sigma * f.values**exponent,
        head_exponent=exponent * f.head_exponent - sigma,
        tail_exponent=exponent * f.tail_exponent - sigma,
        tail_log_power=exponent * f.tail_log_power,
    )


def _thread_count() -> int:
    """Centres are evaluated one after another; perfbench/worker.py imports
    this to record the pool size in its results."""
    return 1


def _tau_panels(tau_lo: float, tau_hi: float, breakpoints, h: float):
    """Panel boundaries in tau: uniform density plus structural breakpoints."""
    count = max(1, int(math.ceil((tau_hi - tau_lo) / h)))
    bounds = set(np.linspace(tau_lo, tau_hi, count + 1).tolist())
    for b in breakpoints:
        if tau_lo + 1e-12 < b < tau_hi - 1e-12:
            bounds.add(float(b))
    return np.array(sorted(bounds))


def _structural_radii(rho: float, r_min: float, r_max: float):
    """Outer-integral breakpoints: grid-edge transits plus a dyadic ladder at t = rho,
    as ln t, from rho and the source grid's r_min and r_max.

    The inner mass changes most rapidly as the ball boundary sweeps the bulk
    of the source, i.e. for t near rho; grading the panels geometrically
    toward ln(rho) resolves that transition for any source concentration.
    """
    radii = []
    for r in (r_min, r_max):
        radii.extend((abs(rho - r), rho + r))
    if rho > 0.0:
        radii.append(rho)
        depth = min(_LADDER_DEPTH, max(1, int(math.ceil(math.log2(max(rho / r_min, 2.0)))) + 1))
        for j in range(1, depth + 1):
            radii.extend((rho * (1.0 - 2.0**-j), rho * (1.0 + 2.0**-j)))
    return [math.log(x) for x in radii if x > 0.0]


def _relative_panels(h: float) -> np.ndarray:
    """The shared path's panel boundaries in ln(t / rho): the lattice k h,
    the dyadic ladder ln(1 +- 2^-j), j <= 6, and the ends +-3 decades."""
    end = _RELATIVE_DECADES * math.log(10.0)
    lattice = (np.arange(-math.floor(end / h), math.floor(end / h) + 1) * h).tolist()
    ladder = [math.log1p(sign * 2.0**-j) for j in range(1, _LADDER_DEPTH + 1) for sign in (-1.0, 1.0)]
    return np.array(sorted({-end, end, *(x for x in lattice + ladder if abs(x) < end - 1e-12)}))


def _output_tail(f: RadialFunction, n: int, bg: float, g: float):
    """The image's declared tail (exponent, log_power) under W_{beta,gamma},
    bg = beta*gamma and g = gamma - 1, from the mass trichotomy of f's tail
    (see the module docstring).  The exponent is also the decay rate in
    tau = ln t of the outer integrand beyond t_max."""
    T, L = f.tail_exponent, f.tail_log_power
    if f.tail_integrable(n):
        return (n - bg) / g, 0.0
    if abs(T - n) <= BORDERLINE_TOL:
        return (n - bg) / g, (L + 1.0) / g
    return (T - bg) / g, L / g


def _head_piece(f, n, rhos, inv_power, a_decay, t_min, mass0, t0) -> np.ndarray:
    """Analytic t < t_min closure of every centre: mass ~ k t^e near t = 0.

    t_min is one for every centre or each centre's own.  e is n off the
    origin and n - h at the origin (the head model).  k is read from the
    mass the quadrature holds at its first node t0, which also sees a jump
    of f at rho: there the ball holds half of f(rho) omega_n t^n.
    """
    e = np.where(rhos > 0.0, float(n), n - f.head_exponent)
    rate = e * inv_power - a_decay  # local integrand slope in tau
    live = mass0 > 0.0
    if np.any(rate[live] <= 0.0):
        raise DivergentIntegralError(
            f"potential diverges at the origin (head exponent {f.head_exponent} too strong)"
        )
    out = np.zeros(rhos.size)
    e, rate = e[live], rate[live]
    t_min = np.broadcast_to(t_min, rhos.shape)[live]
    out[live] = (mass0[live] / t0[live] ** e) ** inv_power * t_min**rate / rate
    return out


def _build_layout(rhos, bounds):
    """The t-panels of a set of centres, free of f's values, from every
    centre's panel boundaries, bounds[i]: below t_max, then the window's 8
    panels past it.

    Returns tau, ln t at every node, centre after centre; t, t at the nodes
    below t_max only (ball_mass_batch's radii); widths, the panel widths in
    tau, centre after centre; node_starts, t_starts and panel_starts, each
    centre's first entry in tau, t and widths (node and t offsets with a
    closing entry); radii, the radii of a map's one cumulative_mass call:
    t - rho, then t + rho, at every centre's window nodes (the window), then
    t - rho at the t > rho below t_max (the covered radii), centre after
    centre; and covered_starts, each centre's first covered radius, with a
    closing entry."""
    nodes01, _ = _leggauss01(_PANEL_NODES)
    flat = np.concatenate(bounds)
    last = np.cumsum([b.size for b in bounds]) - 1  # each centre's last boundary
    widths = np.delete(np.diff(flat), last[:-1])
    tau = (np.delete(flat, last)[:, None] + widths[:, None] * nodes01[None, :]).ravel()
    far = _TAIL_PANELS * _PANEL_NODES
    panel_starts = np.append(0, last[:-1] + 1) - np.arange(rhos.size)
    node_starts = np.append(panel_starts, widths.size) * _PANEL_NODES
    window_at = node_starts[1:, None] - far + np.arange(far)  # each centre's last far nodes
    below = np.ones(tau.size, dtype=bool)
    below[window_at] = False
    t = np.exp(tau[below])
    t_far = np.exp(tau[window_at])
    t_starts = node_starts - far * np.arange(rhos.size + 1)
    rho_at = np.repeat(rhos, np.diff(t_starts))
    covered = t > rho_at
    window = np.stack([t_far - rhos[:, None], t_far + rhos[:, None]]).ravel()
    radii = np.concatenate([window, t[covered] - rho_at[covered]])
    covered_starts = np.concatenate([[0], np.cumsum(covered)])[t_starts]
    return tau, t, widths, node_starts, t_starts, panel_starts, radii, covered_starts


def _window(tau_hi, a_eff) -> np.ndarray:
    """The window's boundaries past tau_hi: 8 panels over 40 e-folds of the
    integrand's decay."""
    return np.linspace(tau_hi, tau_hi + _TAIL_DECAY_SPAN / a_eff, _TAIL_PANELS + 1)[1:]


_evaluations_lock = threading.Lock()
_evaluations = 0


def evaluations() -> int:
    """wolff_eval_at calls, every Wolff and Riesz evaluation, made in this
    process so far by every thread."""
    return _evaluations


def wolff_eval_at(
    f: RadialFunction,
    n: int,
    beta: float,
    gamma: float,
    rho_values,
    cfg: Optional[PotentialConfig] = None,
) -> np.ndarray:
    """Wolff potential of f sampled at the given center distances.

    Raises ParameterError on a negative or NaN centre distance, and
    DivergentIntegralError where the outer integrand does not decay beyond
    t_max and (through f.cumulative_mass) where f's head is not
    integrable."""
    global _evaluations
    rhos = np.atleast_1d(np.asarray(rho_values, dtype=float))
    check_radii(rhos)
    validate_operator(n, beta, gamma)
    with _evaluations_lock:
        _evaluations += 1
    g, bg = gamma - 1.0, beta * gamma
    # beyond t_max the integrand decays in tau at the rate of the image's tail
    a_eff, _ = _output_tail(f, n, bg, g)
    if a_eff <= BORDERLINE_TOL:
        raise DivergentIntegralError(
            "outer integral beyond t_max diverges (effective decay rate "
            f"{a_eff:.3e} <= 0)"
        )
    cfg = cfg or PotentialConfig()
    kernel = CapKernel(n)
    inv_power = 1.0 / g
    a_decay = (n - bg) * inv_power
    slope_cap = n * inv_power  # max(beta*gamma, n - beta*gamma, n) / g, as 0 < beta*gamma < n
    # the panel width in tau: the node density's or the integrand's slope's
    h = min(_PANEL_NODES * math.log(10.0) / cfg.t_nodes_per_decade, 6.0 / slope_cap)
    step = f.grid.log_step
    shared = step is not None and not f.has_jump and rhos.size and rhos.min() > 0.0
    shared = shared and cfg.t_min is None and cfg.t_max is None
    if not shared:
        # the t < t_min closure assumes t << rho, so t_min follows the smallest centre
        positive = rhos[rhos > 0]
        eval_lo = float(positive.min()) if positive.size else f.grid.r_min
        eval_hi = float(rhos.max()) if rhos.size else f.grid.r_max
        t_min, t_max = cfg.resolve(f, eval_lo, eval_hi)

    if not (rhos.size and np.any(f.values > 0.0)):
        return np.zeros(rhos.size)

    if shared:
        # every centre's panels are the reference's, shifted by ln rho
        relative = _relative_panels(h)
        nodes01, _ = _leggauss01(_PANEL_NODES)
        widths = np.diff(relative)
        plan = reference_plan(kernel, step, np.exp((relative[:-1, None] + widths[:, None] * nodes01).ravel()))
        bounds = np.log(rhos)[:, None] + np.concatenate([relative, _window(relative[-1], a_eff)])
        t_min = rhos * np.exp(relative[0])
    else:
        tau_lo, tau_hi = math.log(t_min), math.log(t_max)
        r_min, r_max = f.grid.r_min, f.grid.r_max
        beyond = _window(tau_hi, a_eff)
        bounds = [
            np.append(_tau_panels(tau_lo, tau_hi, _structural_radii(rho, r_min, r_max), h), beyond)
            for rho in rhos.tolist()
        ]
    tau, t, widths, starts, t_starts, panel_starts, radii, covered_starts = _build_layout(rhos, bounds)
    # in the window t >> rho, and the symmetric cumulative average of the
    # ball mass kills its O(rho/t) term.  One cumulative_mass call gives
    # every centre's window masses and its covered masses, which the ball
    # masses take as given
    cumulative = f.cumulative_mass(n, radii)
    far = _TAIL_PANELS * _PANEL_NODES
    minus, plus = cumulative[: 2 * far * rhos.size].reshape(2, rhos.size, far)
    window_mass = 0.5 * (minus + plus)
    covered = cumulative[2 * far * rhos.size :]
    # every centre's masses, panels below t_max then the window, in one
    # array; on the shared path every centre has the plan's radii
    if shared:
        mass = np.hstack([map_masses(kernel, f, rhos, t.reshape(rhos.size, -1), plan, covered), window_mass]).ravel()
    else:
        mass = np.empty(tau.size)
        for i, rho in enumerate(rhos.tolist()):
            lo, hi = t_starts[i], t_starts[i + 1]
            at = starts[i] + hi - lo
            own = covered[covered_starts[i] : covered_starts[i + 1]]
            mass[starts[i] : at] = ball_mass_batch(kernel, f, rho, t[lo:hi], covered=own)
            mass[at : starts[i + 1]] = window_mass[i]
    # in logs: at the window's far end mass^{inv_power} overflows where
    # e^{-a ln t} underflows; a mass <= 0 gives exp(-inf) = 0
    with np.errstate(divide="ignore"):
        log_mass = np.log(np.maximum(mass, 0.0))
    integrand = np.exp(inv_power * log_mass - a_decay * tau)
    _, wts01 = _leggauss01(_PANEL_NODES)
    panels = (integrand.reshape(-1, _PANEL_NODES) @ wts01) * widths
    head = _head_piece(f, n, rhos, inv_power, a_decay, t_min, mass[starts[:-1]], t[t_starts[:-1]])
    return np.add.reduceat(panels, panel_starts) + head


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
    tail, log_power = _output_tail(f, n, beta * gamma, gamma - 1.0)
    return RadialFunction(grid, values, head_exponent=0.0, tail_exponent=tail, tail_log_power=log_power)


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
    tail, log_power = _output_tail(f, n, alpha, 1.0)
    return RadialFunction(grid, values, head_exponent=0.0, tail_exponent=tail, tail_log_power=log_power)
