"""Sphere-ball intersection geometry for radial integrands.

For a radial density f, the mass inside the off-center ball B_t(x) reduces
to a one-dimensional integral

    mass(|x|, t) = s_{n-1} * int_0^inf f(r) * cap_fraction(|x|, t, r) * r^{n-1} dr,

where cap_fraction is the fraction of the sphere of radius r (centered at
the origin) that lies inside B_t(x).  The fraction is the normalized measure
of a hyperspherical cap, (1/2) I_x((n-1)/2, 1/2) with x = sin^2(theta*) and
cos(theta*) = (rho^2 + r^2 - t^2)/(2 rho r), or one minus that on the far
side.  n is an integer, so the incomplete beta function has half-integer
parameters and is elementary (DLMF 8.17): for odd n = 2m+1 it is
x^m R(x) / (1 + sqrt(1-x) P(x)), a quotient of polynomials with positive
coefficients, and for even n it is (2/pi)(arcsin sqrt(x) - sqrt(x(1-x)) Q(x))
above x = 1/2 and a power series below, where the arcsine form cancels.
The coefficients are exact rationals, built once per dimension.

The r-integral has kinks at r = |t - rho| and r = t + rho, and the cap
measure behaves like (distance to the breakpoint)^{(n-1)/2} there, so the
quadrature splits at both breakpoints and uses a square-root substitution on
the two edge pieces; interior pieces use Gauss-Legendre in ln r.

ball_mass_batch takes one centre per call on nodes built for the call,
map_masses every centre of a potential map at once through a reference
plan.  The covered part of a ball, the shells
r <= t - rho inside it whole, is the closed-form cumulative mass at
t - rho: a map takes every centre's in one cumulative_mass call and passes
them on (covered=), and a call without them takes its own in one call.
Either way each radius's mass is the same double (RadialFunction sums every
radius's quadrature by itself).  The partial-shell nodes of all radii t of
one centre are built in a single array pass (_partial_shell_nodes): two
searchsorted calls find each shell's inner piece boundaries, the ragged
piece lists are laid out with repeat/cumsum, wide pieces are subdivided,
and the interior and edge nodes are written into one flat array, each
shell's block in piece order: lower edge, interior pieces, upper edge.  One
cap_fraction call and one add.reduceat then give every partial-shell mass.

The masses commute with dilations: the ball mass of f(./lam) at (lam rho,
lam t) is lam^n times f's at (rho, t).  So a source without a jump on a
geometric grid (RadialGrid.log_step: every ln(r_{k+1}/r_k) equal to ln q)
takes its quadrature relative to its centre.  Its pieces split at
rho q^{m j} for every integer j, m = ceil((ln 10 / 8) / ln q) cells (2 at 16
points a decade, 8 at 64), and its nodes at rho times those of the
reference plan (reference_plan, ReferencePlan) built once at rho = 1 per
(n, ln q, tau), tau = t / rho the relative ball radii.  Nothing in the plan
depends on f or on the grid's ends, so every grid of that step, every
centre on it and every source share it.  The plan keeps every node slot of
every shell, its radius r at rho = 1 and its kernel weight
cap_fraction * r^{n-1} * w, shell after shell (15,590 slots on the
solver's grid at n = 5).

The plan also holds a stencil.  At the grid point r_i, plan cell c lies in
f's virtual cell k = lo + c + i: slot clip(k, 0, N), at offset
s + (k - clip(k, 1, N)) ln q (RadialFunction.at_virtual), so the head and
the tail read as virtual cells whose power laws start at the grid's ends,
with plan offsets from the rounded RadialGrid.log_step.  A source without
a jump is smooth in s inside each virtual cell, exp(ln v_a - m s) (plus
L log1p(...) on a log tail), and its interpolant at 16 first-kind
Chebyshev points of the cell is within ~2e-14 of it while |m| ln q <= 3
(Trefethen, Approximation Theory and Approximation Practice, ch. 8).  Each
shell's sum over the nodes of cell c is then a fixed linear map of the
cell's Chebyshev coefficients: the moments, sum kw T_l(2 s / ln q - 1),
kept per cell for the contiguous range of shells its nodes feed (2,753
(cell, shell) pairs of the 105 x 192 of the solver's plan at n = 5, at
most 148 shells a cell).

_plan_shells takes the partial shells of a set of centres, scaled by
rho^n.  Grid points take theirs from the stencil where f's steepest
virtual cell has |m| ln q <= 3 (RadialFunction.cell_steepness): f at the
16 Chebyshev points of each of the span + N - 1 virtual cells in one
at_virtual call (2,960 samples on the solver's grid, where f at every node
slot of every centre takes 15,590 x 81), one 16 x 16 product to
coefficients, and per plan cell one small product of its moments with the
coefficients of the N cells it reads, into every grid point's sums.  Every
product's shape is fixed by the grid and the plan, so every grid point's
row is computed whichever centres are asked for.  Any other centre, and
every centre of a steeper source, evaluates f at rho times the plan's
node slots, one centre at a time, and sums them against their kernel
weights shell by shell with one add.reduceat (_shell_sums, which the
per-call nodes end in too).

Any other call, a source with a jump (a cut-off tail or a vanishing value,
whose interpolant has kinks the plan does not know), a grid that is not
geometric or a map with a centre at the origin, splits its shells at
f.quad_boundaries, builds its nodes for the call, evaluates f at them
directly and keeps nothing.  A grid so far from 1 that a kernel weight or
rho^n leaves the floating-point range raises ParameterError rather than
returning inf or zero masses.

Plans are kept by value, per (n, ln q, tau), in a least-recently-used
cache of _PLANS = 2 plans: every workload reads one, and the inequality
battery two where its Riesz and Wolff maps take other t nodes (n = 5,
gamma = 1.6).  A plan is 0.61 MB on the solver's grid at n = 5 (0.35 MB of
it the stencil's moments, 0.25 MB the node slots) and 1.6 MB at 64 points
a decade, so the cache holds at most 3.2 MB there.  ball_mass_batch and
map_masses keep nothing: a call computes its masses, and equal arguments
give equal masses bit for bit, from any thread.  The one reuse of masses,
a map whose source, centres and t nodes equal the last map's, is the
potential's (potential._shared_masses).  plans_built() counts the
reference plans built in the process and nodes_evaluated() the source
evaluations made for partial shells, stencil samples and node values;
each Picard trace entry reports both for its iteration.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ParameterError
from .radial import _PIECE_LOGWIDTH, _leggauss01, sphere_surface

if TYPE_CHECKING:  # pragma: no cover
    from .radial import RadialFunction

_EDGE_NODES = 20
_MID_NODES = 10
# the reference plans kept (_built_plan)
_PLANS = 2
# the stencil's Chebyshev samples per cell, and the steepest cell it takes:
# |d ln f / d ln r| ln q <= 3 keeps its interpolant within ~2e-14 of f
_CHEBYSHEV_NODES = 16
_STENCIL_STEEPNESS = 3.0


@dataclass(frozen=True)
class CapKernel:
    """Dimension-bound cap-measure kernel; immutable and thread-safe."""

    n: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 3):
            raise ParameterError(f"cap kernel requires integer dimension n >= 3, got {self.n}")

    @cached_property
    def surface(self) -> float:
        return sphere_surface(self.n)


# below this x the even-n closed form cancels; the series takes over
_SERIES_SWITCH = 0.5


def _half_pochhammer(k: int) -> Fraction:
    """(1/2)_k = (1/2)(3/2)...(k - 1/2)."""
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(2 * i + 1, 2)
    return out


@lru_cache(maxsize=None)
def _beta_coefficients(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients, lowest degree first, of _regularized_beta's forms:
    (R, P) for odd n and (Q, S) for even n, exact rationals rounded once.

    With m = (n-1) // 2: P is the first m terms of (1-x)^{-1/2}, and
    1 - (1-x) P^2 = x^m R, whose coefficients are all positive.  Q follows
    from the recurrence in a from I_x(1/2, 1/2) = (2/pi) arcsin sqrt(x)
    (DLMF 8.17), and x^m sqrt(x) S(x) is the series
    x^a/(a B(a, 1/2)) sum_k a/(a+k) (1/2)_k/k! x^k with a = m + 1/2,
    truncated where its terms fall below 2^-54 at the switch.
    """
    m = (n - 1) // 2
    if n % 2:
        p = [_half_pochhammer(k) / math.factorial(k) for k in range(m)]
        square = [sum(p[i] * p[k - i] for i in range(m) if 0 <= k - i < m) for k in range(2 * m)]
        first = [square[k - 1] - square[k] for k in range(m, 2 * m)]  # R
        second = p
    else:
        a = Fraction(2 * m + 1, 2)
        first = [math.factorial(j) / (2 * _half_pochhammer(j + 1)) for j in range(m)]  # Q
        norm = math.factorial(m) / (_half_pochhammer(m + 1) * math.pi)  # 1 / (a B(a, 1/2))
        second, c, k = [], Fraction(1), 0  # c = (1/2)_k / k!
        while c * Fraction(_SERIES_SWITCH) ** k >= Fraction(1, 2**54):
            second.append(norm * float(a / (a + k) * c))
            c *= Fraction(2 * k + 1, 2 * k + 2)
            k += 1
    out = np.array(first, dtype=float), np.array(second, dtype=float)
    for c in out:
        c.setflags(write=False)
    return out


def _horner(coefficients: np.ndarray, x):
    acc = coefficients[-1]
    for c in coefficients[-2::-1]:
        acc = acc * x + c
    return acc


def _regularized_beta(n: int, x: np.ndarray) -> np.ndarray:
    """I_x((n-1)/2, 1/2) for x in [0, 1], with m = (n-1) // 2.

    Odd n:  x^m R(x) / (1 + sqrt(1-x) P(x)), where nothing cancels.
    Even n: (2/pi)(arcsin sqrt(x) - sqrt(x(1-x)) Q(x)) from _SERIES_SWITCH
    up, and x^m sqrt(x) S(x) below it, where that difference cancels.
    """
    m = (n - 1) // 2
    first, second = _beta_coefficients(n)
    if n % 2:
        return x**m * _horner(first, x) / (1.0 + np.sqrt(1.0 - x) * _horner(second, x))
    root, co_root = np.sqrt(x), np.sqrt(1.0 - x)
    # arctan2 keeps arcsin sqrt(x) well conditioned as x -> 1
    closed = (2.0 / math.pi) * (np.arctan2(root, co_root) - root * co_root * _horner(first, x))
    series = x**m * root * _horner(second, x)
    return np.where(x < _SERIES_SWITCH, series, closed)


def cap_fraction(kernel: CapKernel, rho, t, r):
    """Fraction of the sphere of radius r centered at 0 lying inside B_t(x), |x| = rho.

    Equals 1 for r <= t - rho, 0 for |rho - r| >= t on the empty side, and the
    normalized cap measure in between.  Broadcasts over array arguments.
    """
    rho = np.asarray(rho, dtype=float)
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    scalar = rho.ndim == 0 and t.ndim == 0 and r.ndim == 0
    rho, t, r = np.atleast_1d(rho), np.atleast_1d(t), np.atleast_1d(r)
    check_radii(rho, t, r)

    # the cap formula runs on every element and np.where keeps it on the
    # partial shells only; at rho = 0 it divides by zero, but there every
    # shell is full or empty
    with np.errstate(divide="ignore", invalid="ignore"):
        # cancellation-free sin^2(theta*) via the factored discriminant
        t2, gap = t**2, rho - r
        num = (t2 - gap**2) * ((rho + r) ** 2 - t2)
        x = np.clip(num / (2.0 * rho * r) ** 2, 0.0, 1.0)
        half = 0.5 * _regularized_beta(kernel.n, x)
        # cos(theta*) >= 0 puts the cap on the near side of the sphere
        cap = np.where(rho**2 + r**2 >= t2, half, 1.0 - half)
    out = np.where(r <= t - rho, 1.0, np.where(np.abs(gap) >= t, 0.0, cap))
    return float(out[0]) if scalar else out


_MAX_PIECE_LOGWIDTH = 0.5 * math.log(10.0)
_MID_X, _MID_W = _leggauss01(_MID_NODES)
_EDGE_X, _EDGE_W = _leggauss01(_EDGE_NODES)


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment index and position within the segment of every element of
    consecutive segments with the given lengths."""
    seg = np.repeat(np.arange(counts.size), counts)
    start = np.cumsum(counts) - counts
    return seg, np.arange(seg.size) - start[seg]


def _partial_shell_nodes(pts: np.ndarray, rho: float, t: np.ndarray, r_cap=None):
    """Quadrature nodes/weights for int g(r) dr over each shell |t - rho| < r < t + rho.

    Each shell is split at the piece boundaries pts it crosses (pieces wider
    than half a decade, possible beyond pts, are subdivided), and ends at
    r_cap where one is given.  The two pieces touching the shell edges use a
    square-root substitution for the cap's half-power behavior there;
    interior pieces integrate in ln r with Gauss-Legendre.  All shells are
    built at once; returns flat (r_nodes, weights, owner) arrays, owner
    indexing t, with each shell's nodes contiguous and in piece order: lower
    edge, interior pieces, upper edge.
    """
    a = np.abs(t - rho)
    b = t + rho
    if r_cap is not None:
        b = np.minimum(b, r_cap)
    owner = np.flatnonzero(b > a)
    a, b = a[owner], b[owner]
    anchored = a > 0.0
    lo = np.maximum(a, 1e-14 * pts[0])
    # the cap's half-power structure at the shell edges lives on the scale of
    # the shell width, so the substituted edge pieces must cover a fixed
    # fraction of it: boundaries inside the edge zones are absorbed
    width_r = b - lo
    lo_zone = np.where(anchored, np.minimum(lo + 0.25 * width_r, 2.0 * lo), lo)
    hi_zone = np.maximum(b - 0.25 * width_r, 0.5 * b)
    first = np.searchsorted(pts, lo_zone, side="right")
    n_inner = np.maximum(np.searchsorted(pts, hi_zone, side="left") - first, 0)

    # per shell: lo, the inner boundaries (their geometric midpoint if none), b
    n_between = np.maximum(n_inner, 1)
    seg, k = _ragged(n_between + 2)
    inner = pts[np.clip(first[seg] + k - 1, 0, pts.size - 1)]
    bounds = np.where(n_inner[seg] > 0, inner, np.sqrt(lo * b)[seg])
    is_first = k == 0
    is_last = k == n_between[seg] + 1
    bounds[is_first] = lo
    bounds[is_last] = b

    piece = np.flatnonzero(~is_last)
    pseg = seg[piece]
    left = bounds[piece]
    la = np.log(left)
    logw = np.log(bounds[piece + 1]) - la
    lo_edge = is_first[piece] & anchored[pseg]
    hi_edge = is_last[piece + 1]
    # subdivide wide interior pieces geometrically; anchored edge pieces are
    # exempt (the square-root substitution absorbs their width)
    nsplit = np.maximum(1, np.ceil(logw / _MAX_PIECE_LOGWIDTH).astype(int))
    nsplit[lo_edge | hi_edge] = 1
    split = np.zeros(owner.size, dtype=bool)
    split[pseg[nsplit > 1]] = True
    # a subdivided shell takes all its lower piece ends from exp(ln r)
    sub, j = _ragged(nsplit)
    sseg = pseg[sub]
    p0 = np.where(split[sseg], np.exp(la[sub] + (logw / nsplit)[sub] * j), left[sub])
    hi_edge = hi_edge[sub]
    p1 = np.where(hi_edge, b[sseg], np.append(p0[1:], 0.0))
    lo_edge = lo_edge[sub]
    mid = ~(lo_edge | hi_edge)

    # the pieces come in order, so each shell's nodes do too
    count = np.where(mid, _MID_NODES, _EDGE_NODES)
    offset = np.cumsum(count) - count
    r = np.empty(int(count.sum()))
    w = np.empty_like(r)

    m = np.flatnonzero(mid)
    pos = offset[m, None] + np.arange(_MID_NODES)
    lam_a = np.log(p0[m])[:, None]
    width = np.log(p1[m])[:, None] - lam_a
    r_mid = np.exp(lam_a + width * _MID_X)
    r[pos] = r_mid
    w[pos] = width * _MID_W * r_mid

    e = np.flatnonzero(~mid)
    pos = offset[e, None] + np.arange(_EDGE_NODES)
    width = (p1[e] - p0[e])[:, None]
    r[pos] = np.where(
        lo_edge[e, None], p0[e, None] + width * _EDGE_X**2, p1[e, None] - width * _EDGE_X**2
    )
    w[pos] = 2.0 * width * _EDGE_X * _EDGE_W
    return r, w, np.repeat(owner[sseg], count)


def _range_error(rho: float, n: int) -> ParameterError:
    """Kernel weights at rho that leave the floating-point range (r^{n-1} or
    rho^n over- or underflows on grids far from 1) are refused rather than
    giving inf or zero masses."""
    return ParameterError(f"kernel weights at rho = {rho:g} leave the floating-point range for n = {n}")


def _cap_weights(kernel: CapKernel, rho, t, r, w) -> np.ndarray:
    """cap_fraction * r^{n-1} * w."""
    with np.errstate(over="ignore", invalid="ignore"):
        return cap_fraction(kernel, rho, t, r) * r ** (kernel.n - 1) * w


class ReferencePlan(NamedTuple):
    """The partial-shell quadrature of a centre at rho = 1, free of f: the
    log step ln q = step of the grids it serves; every node slot of every
    shell, shell after shell, its radius r and its kernel weight
    kw = cap_fraction * r^{n-1} * w, and starts each shell's first slot.
    Shell k is the ball of the relative radius tau[k] the plan was built
    for.

    The stencil: a node lies in the virtual cell j = lo + c, [q^{j-1}, q^j),
    at the offset s = ln(r / q^{j-1}), c below span.  The nodes of cell c
    feed the shells first[c] to first[c] + bounds[c + 1] - bounds[c] - 1,
    and moments[bounds[c] + i, l] is the sum of kw T_l(2 s / step - 1) over
    the nodes of cell c in shell first[c] + i, for the Chebyshev
    polynomials T_l, l < moments.shape[1]."""

    step: float
    lo: int
    span: int
    r: np.ndarray
    kw: np.ndarray
    starts: np.ndarray
    tau: np.ndarray
    first: np.ndarray
    bounds: np.ndarray
    moments: np.ndarray


_counts_lock = threading.Lock()
_counts = {"plans": 0, "nodes": 0}


def _count(name: str, amount: int):
    with _counts_lock:
        _counts[name] += amount


def plans_built() -> int:
    """Reference plans built in this process so far, by every thread."""
    return _counts["plans"]


def nodes_evaluated() -> int:
    """Source evaluations made for partial shells in this process so far, by
    every thread: a stencil's samples once per map of grid points, a plan's
    node slots once per other centre, or a call's own nodes."""
    return _counts["nodes"]


def _plan_nodes(kernel: CapKernel, step: float, tau: np.ndarray):
    """Every node of the reference plan of (n, step, tau), shell after
    shell: its radius r at rho = 1, its kernel weight and its shell.

    The shells split at q^{m j} for every integer j, m the fewest cells
    whose log-width reaches _PIECE_LOGWIDTH (2 at 16 points a decade, 8 at
    64), so a centre's pieces are its own and not the grid's.  At rho = 1
    every shell is partial, so the shells run over every tau in order."""
    piece = step * math.ceil(_PIECE_LOGWIDTH / step * (1.0 - 1e-9))
    a = np.abs(tau - 1.0)
    lowest = float(a[a > 0.0].min(initial=1.0))
    j = np.arange(math.floor(math.log(lowest) / piece), math.ceil(math.log(float(tau.max()) + 1.0) / piece) + 1)
    r, w, owner = _partial_shell_nodes(np.exp(piece * j), 1.0, tau)
    return r, _cap_weights(kernel, 1.0, tau[owner], r, w), owner


def _stencil(cell, s, step: float, kw, owner, span: int):
    """The plan's stencil (first, bounds, moments; see ReferencePlan) from
    every node of the plan: its cell, its offset s, its kernel weight and
    its shell.  Each cell's range of shells runs from the first to the last
    shell its nodes feed, and is empty for a cell without nodes (pieces
    wider than two cells can skip one)."""
    first = np.full(span, owner.max())
    np.minimum.at(first, cell, owner)
    last = np.zeros(span, dtype=owner.dtype)
    np.maximum.at(last, cell, owner)
    bounds = np.concatenate([[0], np.cumsum(np.maximum(last - first + 1, 0))])
    pair = bounds[cell] + owner - first[cell]
    # T_l(z), z = 2 s / step - 1, by T_{l+1} = 2z T_l - T_{l-1} from
    # T_{-1} = T_1 = z, one column of moments at a time
    z = 2.0 * (s / step) - 1.0
    moments = np.empty((bounds[-1], _CHEBYSHEV_NODES))
    previous, chebyshev = z, np.ones_like(z)
    for column in moments.T:
        column[:] = np.bincount(pair, kw * chebyshev, bounds[-1])
        previous, chebyshev = chebyshev, 2.0 * z * chebyshev - previous
    return first, bounds, moments


def reference_plan(kernel: CapKernel, step: float, tau: np.ndarray) -> ReferencePlan:
    """The reference plan of (n, step, tau), for distinct radii tau, kept
    by value (_built_plan)."""
    return _built_plan(kernel, step, np.asarray(tau, dtype=float).tobytes())


@lru_cache(maxsize=_PLANS)
def _built_plan(kernel: CapKernel, step: float, tau: bytes) -> ReferencePlan:
    """reference_plan's plan, built on a miss.  Every shell of the plan
    owns nodes (_plan_nodes), so its slots start where its owner first
    appears."""
    tau = np.frombuffer(tau)
    r, kw, owner = _plan_nodes(kernel, step, tau)
    s = np.log(r)
    below = np.floor(s / step)  # the node's virtual cell is below + 1
    s -= below * step
    lo = int(below.min()) + 1
    cell = (below + (1 - lo)).astype(np.intp)
    span = int(cell.max()) + 1
    stencil = _stencil(cell, s, step, kw, owner, span)
    starts = np.searchsorted(owner, np.arange(tau.size))
    plan = ReferencePlan(step, lo, span, r, kw, starts, tau, *stencil)
    for x in plan[3:]:
        x.setflags(write=False)
    _count("plans", 1)
    return plan


@lru_cache(maxsize=4)
def _chebyshev_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first-kind Chebyshev points of [0, 1], x_j = (1 + cos((2j+1) pi / 2count)) / 2,
    and the matrix that takes f at them to the coefficients of its
    interpolant in T_l(2x - 1), l < count."""
    z = np.cos((2 * np.arange(count) + 1) * math.pi / (2 * count))
    transform = np.polynomial.chebyshev.chebvander(z, count - 1).T * (2.0 / count)
    transform[0] *= 0.5
    return 0.5 * (1.0 + z), transform


def _stencil_shells(f: "RadialFunction", plan: ReferencePlan) -> np.ndarray:
    """f's partial mass on every shell of the plan at every grid point at
    rho = 1, one row per shell and one column per grid point.  The grid
    point r_i reads plan cell c in f's virtual cell lo + c + i (see
    RadialFunction.at_virtual), where f is a smooth function of the offset.
    So f is sampled at the Chebyshev points of each of the span + N - 1
    virtual cells once, the samples become coefficients by one product, and
    each plan cell adds one (its shells x count) @ (count x N) product of
    its moments and the coefficients to its shells' sums."""
    count, N = plan.moments.shape[1], f.grid.count
    x, transform = _chebyshev_rule(count)
    cells = plan.span + N - 1
    j = np.repeat(np.arange(plan.lo, plan.lo + cells), count)
    samples = f.at_virtual(j, np.tile(plan.step * x, cells), plan.step)
    _count("nodes", samples.size)
    coefficients = transform @ samples.reshape(cells, count).T
    out = np.zeros((plan.starts.size, N))
    bounds = plan.bounds.tolist()
    for c, k in enumerate(plan.first.tolist()):
        a, b = bounds[c], bounds[c + 1]
        out[k : k + b - a] += plan.moments[a:b] @ coefficients[:, c : c + N]
    return out


def _shell_sums(f: "RadialFunction", r: np.ndarray, kw: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sum of f(r) kw over each shell's nodes, the shells' nodes
    contiguous from starts on."""
    fr = f(r)
    _count("nodes", fr.size)
    fr *= kw
    return np.add.reduceat(fr, starts)


def _plan_shells(kernel: CapKernel, f: "RadialFunction", rhos: np.ndarray, plan: ReferencePlan) -> np.ndarray:
    """f's partial mass on every shell of the plan at every centre of rhos,
    one row per centre, times rho^n.  Grid points take their rows from the
    plan's stencil (_stencil_shells), which gives every grid point's row at
    once, where f's steepest virtual cell has |m| ln q <= 3.  Any other
    centre sums f at rho times the plan's node slots against their kernel
    weights (_shell_sums), one centre at a time.  Either way a centre's row
    does not depend on the other centres asked for."""
    n = kernel.n
    with np.errstate(divide="ignore"):
        bad = ~(np.abs(n * np.log(rhos)) < 700.0)  # rho^n stays a normal float
    if bad.any():
        raise _range_error(float(rhos[bad][0]), n)
    pts = f.grid.points
    shift = np.minimum(np.searchsorted(pts, rhos), pts.size - 1)
    on_grid = pts[shift] == rhos
    out = np.empty((rhos.size, plan.starts.size))
    rest = np.arange(rhos.size)
    if on_grid.any() and f.cell_steepness(plan.step) <= _STENCIL_STEEPNESS:
        rest = np.flatnonzero(~on_grid)
        at = np.flatnonzero(on_grid)
        partial = _stencil_shells(f, plan)
        partial *= pts**n  # rho^n at every grid point, rhos[at]^n at the centres
        out[at] = partial.T[shift[at]]
    for i in rest:
        rho = rhos[i]
        out[i] = _shell_sums(f, rho * plan.r, plan.kw, plan.starts) * rho**n
    return out


def _per_call_shells(kernel: CapKernel, f: "RadialFunction", rho: float, t: np.ndarray):
    """Per non-empty shell f's partial mass, from nodes split at
    f.quad_boundaries and built for this call, or None when every shell is
    empty."""
    pts = f.quad_boundaries
    # far from 1 the nodes overflow, and the kernel weights' check says so
    with np.errstate(over="ignore", invalid="ignore"):
        r, w, owner = _partial_shell_nodes(pts, rho, t, pts[-1] if f.cut_off else None)
    if not owner.size:
        return None
    kw = _cap_weights(kernel, rho, t[owner], r, w)
    if not np.isfinite(kw).all():
        raise _range_error(rho, kernel.n)
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    return owner[starts], _shell_sums(f, r, kw, starts)


def check_radii(rho, t=(), r=()) -> None:
    """Refuse centre distances rho that are not >= 0, and ball radii t and
    shell radii r that are not > 0, NaN among them, naming the first such
    value: the one home of cap_fraction's, ball_mass_batch's and
    wolff_eval_at's precondition on their radii."""
    rho = np.asarray(rho, dtype=float)
    # a NaN makes the min NaN, which fails the comparison
    if rho.size and not rho.min() >= 0.0:
        bad = float(rho[~(rho >= 0.0)].flat[0])
        raise ParameterError(f"center distance rho must be nonnegative, got {bad}")
    for name, radii in (("ball radius t", t), ("shell radius r", r)):
        radii = np.asarray(radii, dtype=float)
        if radii.size and not radii.min() > 0.0:
            raise ParameterError(f"{name} must be positive, got {float(radii[~(radii > 0.0)].flat[0])}")


def ball_mass_batch(kernel: CapKernel, f: "RadialFunction", rho: float, t_values, covered=None) -> np.ndarray:
    """Masses of f over B_t(x) for |x| = rho and a batch of radii t.

    Exact on the declared profile model up to quadrature on the partial
    shell, with full-shell content taken from closed-form cumulative masses.
    covered, where the caller has them, are those masses,
    f.cumulative_mass(n, t - rho) at the radii t > rho in order (a caller
    with many centres takes them in one call); else they are taken here.
    The partial shells take quadrature built for the call.
    """
    n = kernel.n
    t_arr = np.atleast_1d(np.asarray(t_values, dtype=float))
    check_radii(rho, t_arr)
    out = np.zeros(t_arr.size)
    inside = t_arr > rho
    if covered is not None:
        out[inside] = covered
    elif inside.any():
        out[inside] = f.cumulative_mass(n, t_arr[inside] - rho)
    shells = _per_call_shells(kernel, f, rho, t_arr)
    if shells is not None:
        t_index, partial = shells
        out[t_index] += kernel.surface * partial
    return out


def map_masses(
    kernel: CapKernel, f: "RadialFunction", rhos: np.ndarray, t: np.ndarray, plan: ReferencePlan, covered=None
) -> np.ndarray:
    """The masses of f over B_t(x) at many centres |x| = rho at once, one
    row per centre, through plan, the reference_plan of f's grid step, for
    a source without a jump: rhos the centres (> 0), t the radii
    rho * plan.tau of each centre's row, and covered, where the caller has
    them, f.cumulative_mass(n, t - rho) at the t > rho, centre after centre
    (else they are taken here).  One _plan_shells pass takes every centre's
    partial shells."""
    inside = t > rhos[:, None]
    masses = np.zeros(t.shape)
    if covered is not None:
        masses[inside] = covered
    elif inside.any():
        masses[inside] = f.cumulative_mass(kernel.n, (t - rhos[:, None])[inside])
    masses += kernel.surface * _plan_shells(kernel, f, rhos, plan)
    return masses


def ball_mass(kernel: CapKernel, f: "RadialFunction", rho: float, t: float) -> float:
    """Mass of f over the ball of radius t centered at distance rho from the origin."""
    return float(ball_mass_batch(kernel, f, rho, np.array([float(t)]))[0])
