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

ball_mass_batch takes one centre per call; potential.wolff_eval_at calls it
once per centre and writes the masses into one flat array.  The covered
part of a ball, the shells r <= t - rho inside it whole, is the closed-form
cumulative mass at t - rho: a caller with many centres takes every centre's
in one cumulative_mass call and passes each centre its own (covered=), and a
call without them takes its own in one call.  Either way each radius's mass
is the same double (RadialFunction sums every radius's quadrature by
itself).  The partial-shell nodes of all radii t of one centre are built in
a single array pass (_partial_shell_nodes): two searchsorted calls find each
shell's inner piece boundaries, the ragged piece lists are laid out with
repeat/cumsum, wide pieces are subdivided, and the interior and edge nodes
are written into one flat array, each shell's block in piece order: lower
edge, interior pieces, upper edge.  One cap_fraction call and one
add.reduceat then give every partial-shell mass.

The masses commute with dilations: the ball mass of f(./lam) at (lam rho,
lam t) is lam^n times f's at (rho, t).  So a source without a jump on a
geometric grid (RadialGrid.log_step: every ln(r_{k+1}/r_k) equal to ln q)
takes its quadrature relative to its centre.  Its pieces split at
rho q^{m j} for every integer j, m = ceil((ln 10 / 8) / ln q) cells (2 at 16
points a decade, 8 at 64), and its nodes at rho times those of the
reference plan (reference_plan, ReferencePlan) built once at rho = 1 per
(n, ln q, tau), tau = t / rho the relative ball radii.  The plan holds each
node's virtual cell k, [q^{k-1}, q^k), and offset s in it, the kernel
weights cap_fraction * r^{n-1} * w, and each shell's first node.  Nothing in
it depends on f or on the grid's ends, so every grid of that step, every
centre on it and every source share it.  The grid point r_i reads it as
RadialFunction.at_virtual: slot k + i, clipped to the head and the tail,
at offset s + (k + i - clip(k + i, 1, N)) ln q, from the source's slot
tables extended once by virtual head and tail cells and read through a view
offset by i; the partial masses then scale by r_i^n.  A centre that is not a
grid point locates the plan's nodes, scaled by rho, with f.locate.  A
potential map passes the plan (plan=) when it qualifies; see potential.

Any other call, a source with a jump (a cut-off tail or a vanishing value,
whose interpolant has kinks the plan does not know), a grid that is not
geometric or a map with a set t-range, splits its shells at
f.quad_boundaries, builds its nodes for the call, evaluates f at them
directly and keeps nothing.  A grid so far from 1 that a kernel weight or
rho^n leaves the floating-point range raises ParameterError rather than
returning inf or zero masses.

Plans are kept in one least-recently-used store of 2 MiB (0.38 MB for the
plan of the solver's grid at n = 5, 15,590 nodes), and the masses of each
centre in another of 4 MiB, keyed by (n, the grid's points, rho, t, the
path) with the key of the source they are of (RadialFunction.source_key):
its values and its head and tail models.  A call with a bit-equal source,
such as the Wolff image of a source whose Riesz image was just taken on the
same t nodes, returns a copy of the kept masses and evaluates nothing; a
call with another source computes its own, which replace them.  Cold,
repeat and kept masses come from one computation, so they agree bit for
bit.  Both stores are locked (radial.LruStore), so threads may share them.
plans_built() counts the reference plans built in the process and
nodes_evaluated() the partial-shell nodes sources were evaluated at; each
Picard trace entry reports both for its iteration.
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
from .radial import _PIECE_LOGWIDTH, LruStore, _leggauss01, sphere_surface

if TYPE_CHECKING:  # pragma: no cover
    from .radial import RadialFunction

_EDGE_NODES = 20
_MID_NODES = 10
_PLAN_BYTES = 2 * 2**20
_MASS_BYTES = 4 * 2**20


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
    log step ln q = step of the grids it serves; per node its virtual cell
    j = lo + cell, [q^{j-1}, q^j), its offset s = ln(r / q^{j-1}) and its
    kernel weight cap_fraction * r^{n-1} * w; per shell the offset of its
    first node and its index into the relative radii tau = t / rho the plan
    was built for.  cell runs below span."""

    step: float
    lo: int
    span: int
    cell: np.ndarray
    s: np.ndarray
    kw: np.ndarray
    starts: np.ndarray
    t_index: np.ndarray


_plans = LruStore(_PLAN_BYTES)
_masses = LruStore(_MASS_BYTES)
_counts_lock = threading.Lock()
_counts = {"plans": 0, "nodes": 0}


def _count(name: str, amount: int):
    with _counts_lock:
        _counts[name] += amount


def plans_built() -> int:
    """Reference plans built in this process so far, by every thread."""
    return _counts["plans"]


def nodes_evaluated() -> int:
    """Partial-shell nodes at which sources were evaluated in this process so
    far, by every thread; masses served from the memo evaluate none."""
    return _counts["nodes"]


def reference_plan(kernel: CapKernel, step: float, tau: np.ndarray) -> ReferencePlan:
    """The kept reference plan of (n, step, tau), built and kept on a miss.

    Its shells split at q^{m j} for every integer j, m the fewest cells
    whose log-width reaches _PIECE_LOGWIDTH (2 at 16 points a decade, 8 at
    64), so a centre's pieces are its own and not the grid's."""
    key = (kernel.n, step, tau.tobytes())
    plan = _plans.get(key)
    if plan is not None:
        return plan
    piece = step * math.ceil(_PIECE_LOGWIDTH / step * (1.0 - 1e-9))
    a = np.abs(tau - 1.0)
    lowest = float(a[a > 0.0].min(initial=1.0))
    j = np.arange(math.floor(math.log(lowest) / piece), math.ceil(math.log(float(tau.max()) + 1.0) / piece) + 1)
    r, w, owner = _partial_shell_nodes(np.exp(piece * j), 1.0, tau)
    log_r = np.log(r)
    below = np.floor(log_r / step)  # the node's virtual cell is below + 1
    lo = int(below.min()) + 1
    cell = (below + (1 - lo)).astype(np.intp)
    # owner is non-decreasing, so each shell's nodes form one run
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    kw = _cap_weights(kernel, 1.0, tau[owner], r, w)
    plan = ReferencePlan(step, lo, int(cell.max()) + 1, cell, log_r - below * step, kw, starts, owner[starts])
    for x in plan[3:]:
        x.setflags(write=False)
    _count("plans", 1)
    _plans.put(key, plan, sum(x.nbytes for x in plan[3:]) + len(key[2]))
    return plan


def _reference_shells(kernel: CapKernel, f: "RadialFunction", rho: float, plan: ReferencePlan):
    """Per shell of the plan f's partial mass at rho, each f at rho times
    the plan's nodes against their kernel weights, times rho^n.  A grid point
    r_i reads f through at_virtual shifted by i; any other centre locates its
    nodes."""
    if not (rho > 0.0 and abs(kernel.n * math.log(rho)) < 700.0):  # rho^n stays a normal float
        raise _range_error(rho, kernel.n)
    scale = rho**kernel.n
    pts = f.grid.points
    i = int(np.searchsorted(pts, rho))
    if i < pts.size and pts[i] == rho:
        fr = f.at_virtual(plan.cell, plan.s, plan.lo, plan.span, i, plan.step)
    else:
        fr = f(rho * np.exp((plan.cell + (plan.lo - 1)) * plan.step + plan.s))
    fr *= plan.kw
    return plan.t_index, scale * np.add.reduceat(fr, plan.starts), fr.size


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
    fr = f(r)
    fr *= kw
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    return owner[starts], np.add.reduceat(fr, starts), fr.size


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


def ball_mass_batch(
    kernel: CapKernel, f: "RadialFunction", rho: float, t_values, covered=None, plan=None
) -> np.ndarray:
    """Masses of f over B_t(x) for |x| = rho and a batch of radii t.

    Exact on the declared profile model up to quadrature on the partial
    shell, with full-shell content taken from closed-form cumulative masses.
    covered, where the caller has them, are those masses,
    f.cumulative_mass(n, t - rho) at the radii t > rho in order (a caller
    with many centres takes them in one call); else they are taken here.
    plan, where given, is the reference_plan of f's grid step whose radii
    tau give t = rho * tau, for a source without a jump at rho > 0; the
    partial shells then take its quadrature, else quadrature built per call.
    """
    n = kernel.n
    t_arr = np.atleast_1d(np.asarray(t_values, dtype=float))
    check_radii(rho, t_arr)

    # the masses kept for this centre, if they are this source's; at
    # rho = 0 every shell is full or empty
    if rho > 0.0:
        key = (n, f.grid.points.tobytes(), rho, t_arr.tobytes(), plan is not None)
        kept = _masses.get(key)
        if kept is not None and kept[0] == f.source_key:
            return kept[1].copy()

    out = np.zeros(t_arr.size)
    inside = t_arr > rho
    if covered is not None:
        out[inside] = covered
    elif inside.any():
        out[inside] = f.cumulative_mass(n, t_arr[inside] - rho)
    if plan is not None:
        shells = _reference_shells(kernel, f, rho, plan)
    else:
        shells = _per_call_shells(kernel, f, rho, t_arr)
    if shells is None:
        # no partial shell: the covered part alone, and nothing is kept
        return out

    t_index, partial, nodes = shells
    out[t_index] += kernel.surface * partial
    _count("nodes", nodes)
    masses = out.copy()
    masses.setflags(write=False)
    _masses.put(key, (f.source_key, masses), masses.nbytes + len(key[1]) + len(key[3]))
    return out


def ball_mass(kernel: CapKernel, f: "RadialFunction", rho: float, t: float) -> float:
    """Mass of f over the ball of radius t centered at distance rho from the origin."""
    return float(ball_mass_batch(kernel, f, rho, np.array([float(t)]))[0])
