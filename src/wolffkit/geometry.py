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

ball_mass_batch takes one centre per call, which is the unit its plans and
stored masses are kept in; potential.wolff_eval_at calls it once per centre
and writes the masses into one flat array.  The covered part of a ball, the
shells r <= t - rho inside it whole, is the closed-form cumulative mass at
t - rho: a caller with many centres takes every centre's in one
cumulative_mass call and passes each centre its own (covered=), and a call
without them takes its own in one call.  Either way each radius's mass is
the same double (RadialFunction sums every radius's quadrature by itself).
ball_mass_batch builds the partial-shell nodes of all radii t of one centre
in a single array pass: two searchsorted calls find each shell's inner grid
boundaries in quad_boundaries, the ragged piece lists are laid out with
repeat/cumsum, wide pieces are subdivided, and the interior and edge nodes
are written into one flat array, each shell's block in piece order: lower
edge, interior pieces, upper edge.  One cap_fraction call and one
add.reduceat then give every partial-shell mass.

Nothing in a centre's nodes or in the factor cap_fraction * r^{n-1} * weight
(the kernel weights) depends on the values of f, only on the source grid's
geometry and the centre's radii, so ball_mass_batch keeps them as the centre's
plan, the way an FFTW plan is kept.  A plan holds each node located on the
source grid (RadialFunction.locate: its slot and offset s = ln(r / left)),
the kernel weights, the start offset and t index of each non-empty shell, and
the positions of the nodes on the tail with their log-tail offsets
(RadialFunction.tail_logs).  Nothing in it depends on a source's head or tail
model, so one plan serves every source on its grid.  Every call, cold or
repeat, evaluates f at the nodes from the located form
(RadialFunction.at_located, the second half of f(r): a gather, a
multiply-add and an exp over every node, head and tail included).  A repeat
call on the same geometry so skips node generation and every search, and
costs that evaluation times the weights plus one add.reduceat over the
shells.  A grid so far from 1 that a kernel weight leaves the floating-point
range (r^{n-1} overflows) raises ParameterError rather than returning inf
masses.
The store is one ordered table, grid -> centre -> entry, keyed per grid by
(n, layout_key, cut-off flag), layout_key being the points plus which cells
have a vanishing endpoint (what the located slots and offsets and
quad_boundaries depend on), and per centre by (rho, t).  An entry is the
centre's plan with its whole ball masses (covered part plus partial shells)
for the last source it served and that source's key: its values and its head
and tail models (RadialFunction.source_key, built once per source rather
than once per centre).  A call with the same grid, centre and a bit-equal
source, such as the Wolff image of a source whose Riesz image was just taken
on the same t nodes, returns a copy of the entry's masses and builds and
evaluates nothing; a call with another source evaluates it on the entry's
plan, and its masses replace the entry's.  Cold, repeat and stored masses
come from one computation, so they agree bit for bit.  The table holds
several grids, so a caller that alternates grids (the inequality battery,
whose ball indicators sit on their own grids) builds each (grid, centre)
plan once.  The grid being served sits last.  Within it a new entry takes
only free room; when one needs more, the other grids are dropped whole,
least recently served first, and the grid being served never is.

Plans and masses share the cap _KERNEL_WEIGHT_BYTES.  A plan takes 17 bytes
per node (a uint8 slot on grids of up to 255 points, the offset and the
kernel weight), 10 more per tail node (a uint16 position and a float64 log
offset) and 16 per non-empty shell (its start and t index).  So the 81
centres of a wolff_eval on the solver's 81-point grid, 1.42 M nodes of which
142 k lie on the tail, take 25.9 MB and their masses 0.16 MB more.  The 121
centres of RadialGrid.per_decade(1e-2, 1e3, 24) take 42.2 MB and their
masses 0.25 MB, so the cap is 48 MiB.  The store is module-global, so access
is locked: a caller that evaluates potentials from several threads could
otherwise pass a key comparison and then read another grid's plan or another
source's masses.  A centre takes the lock once to look up its masses or plan
(_KernelWeightStore.lookup) and, unless its masses were kept, once to put its
plan and masses (_KernelWeightStore.put), so at most twice, cold or warm.
plans_built() counts the plans built in the process and nodes_evaluated()
the plan nodes sources were evaluated at; each Picard trace entry reports
both for its iteration.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ParameterError
from .radial import _leggauss01, sphere_surface

if TYPE_CHECKING:  # pragma: no cover
    from .radial import RadialFunction

_EDGE_NODES = 20
_MID_NODES = 10
_KERNEL_WEIGHT_BYTES = 48 * 2**20


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


def _partial_shell_nodes(f: "RadialFunction", rho: float, t: np.ndarray):
    """Quadrature nodes/weights for int g(r) dr over each shell |t - rho| < r < t + rho.

    Each shell is split at the grid-cell boundaries it crosses (pieces wider
    than half a decade, possible beyond the grid, are subdivided).  The two
    pieces touching the shell edges use a square-root substitution for the
    cap's half-power behavior there; interior pieces integrate in ln r with
    Gauss-Legendre.  All shells are built at once; returns flat
    (r_nodes, weights, owner) arrays, owner indexing t, with each shell's
    nodes contiguous and in piece order: lower edge, interior pieces, upper
    edge.
    """
    pts = f.quad_boundaries
    a = np.abs(t - rho)
    b = t + rho
    if f.cut_off:
        b = np.minimum(b, pts[-1])
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


class _CentrePlan(NamedTuple):
    """A centre's partial-shell quadrature, free of f: each node's slot and
    offset s on the source grid (see RadialFunction.locate), its kernel
    weight cap_fraction * r^{n-1} * w, per non-empty shell the offset of its
    first node and its index into t, and the positions of the nodes on the
    tail with their log-tail offsets (RadialFunction.tail_logs)."""

    slot: np.ndarray
    s: np.ndarray
    kw: np.ndarray
    starts: np.ndarray
    t_index: np.ndarray
    tail_at: np.ndarray
    tail_logs: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self)


def _centre_plan(kernel: CapKernel, f: "RadialFunction", rho: float, t: np.ndarray):
    """Build a centre's read-only plan, or None when every shell is empty.
    Slots take the smallest unsigned type that holds the grid's point count,
    and tail positions the smallest that holds the node count."""
    # far from 1 the nodes or r^{n-1} overflow, and the check below says so
    with np.errstate(over="ignore", invalid="ignore"):
        r, w, owner = _partial_shell_nodes(f, rho, t)
        if not owner.size:
            return None
        # located before cap_fraction's temporaries, the kept arrays pack
        # tighter: 6 MB less peak RSS over a map on the solver's grid
        slot, s = f.locate(r)
        tail_at, tail_logs = f.tail_logs(slot, s)
        slot = slot.astype(np.min_scalar_type(f.grid.count))
        tail_at = tail_at.astype(np.min_scalar_type(r.size))
        kw = cap_fraction(kernel, rho, t[owner], r) * r ** (kernel.n - 1) * w
    if not np.all(np.isfinite(kw)):
        raise ParameterError(
            f"kernel weights at rho = {rho:g} leave the floating-point range: "
            f"r^{kernel.n - 1} overflows on this grid"
        )
    # owner is non-decreasing, so each shell's nodes form one run
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    plan = _CentrePlan(slot, s, kw, starts, owner[starts], tail_at, tail_logs)
    for a in plan:
        a.setflags(write=False)
    return plan


class _KernelWeightStore:
    """One ordered table, source grid -> centre -> entry, bounded by
    max_bytes, where an entry is (plan, source_key, masses): the centre's
    plan and its ball masses for the last source it served.

    The grid being served sits last.  Within it a new entry takes only free
    room; when one needs more, the other grids are dropped whole, least
    recently served first, and the served grid never is.  A centre looks up
    its masses or plan with one lookup and hands put its plan and masses in
    one call.  plans_built counts the plans put that the centre's entry did
    not hold, one per plan built (or re-admitted after another thread
    dropped its grid), and nodes_evaluated the plan nodes at which the
    sources of the masses put were evaluated, over the life of the process
    (clear leaves both as they are)."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.plans_built = 0
        self.nodes_evaluated = 0
        self._lock = threading.Lock()
        self.clear()

    def lookup(self, grid_key, source_key, centre_key):
        """(masses, plan) of a centre, each None where not kept: its masses
        where it last served this source, else its plan."""
        with self._lock:
            entry = self._grids.get(grid_key, {}).get(centre_key)
            if entry is None:
                return None, None
            self._grids.move_to_end(grid_key)
            plan, source, masses = entry
            return (masses, None) if source == source_key else (None, plan)

    def put(self, grid_key, centre_key, plan, source_key, masses, nodes: int):
        """Keep a centre's plan with its masses of this source, whose plan
        evaluated it at nodes nodes, in place of the centre's entry."""
        with self._lock:
            self.nodes_evaluated += nodes
            centres = self._grids.setdefault(grid_key, {})
            self._grids.move_to_end(grid_key)
            old = centres.pop(centre_key, None)
            if old is None or old[0] is not plan:
                self.plans_built += 1
            if old is not None:
                self.nbytes -= old[0].nbytes + old[2].nbytes
            size = plan.nbytes + masses.nbytes
            while self.nbytes + size > self.max_bytes and len(self._grids) > 1:
                _, dropped = self._grids.popitem(last=False)
                self.nbytes -= sum(p.nbytes + m.nbytes for p, _, m in dropped.values())
            if self.nbytes + size <= self.max_bytes:
                centres[centre_key] = (plan, source_key, masses)
                self.nbytes += size

    def clear(self):
        with self._lock:
            self._grids = OrderedDict()
            self.nbytes = 0


_kernel_weights = _KernelWeightStore(_KERNEL_WEIGHT_BYTES)


def plans_built() -> int:
    """Centre plans built in this process so far, by every thread."""
    return _kernel_weights.plans_built


def nodes_evaluated() -> int:
    """Plan nodes at which sources were evaluated in this process so far, by
    every thread; masses served from the store evaluate none."""
    return _kernel_weights.nodes_evaluated


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
    kernel: CapKernel, f: "RadialFunction", rho: float, t_values, covered=None
) -> np.ndarray:
    """Masses of f over B_t(x) for |x| = rho and a batch of radii t.

    Exact on the declared profile model up to quadrature on the partial
    shell, with full-shell content taken from closed-form cumulative masses.
    covered, where the caller has them, are those masses,
    f.cumulative_mass(n, t - rho) at the radii t > rho in order (a caller
    with many centres takes them in one call); else they are taken here.
    """
    n = kernel.n
    t_arr = np.atleast_1d(np.asarray(t_values, dtype=float))
    check_radii(rho, t_arr)

    # the masses kept for this source, else f on the plan kept for this
    # geometry; at rho = 0 every shell is full or empty
    plan = None
    if rho > 0.0:
        grid_key = (n, f.layout_key, f.cut_off)
        centre_key = (rho, t_arr.tobytes())
        source_key = f.source_key
        masses, plan = _kernel_weights.lookup(grid_key, source_key, centre_key)
        if masses is not None:
            return masses.copy()
        if plan is None:
            plan = _centre_plan(kernel, f, rho, t_arr)

    out = np.zeros(t_arr.size)
    inside = t_arr > rho
    if covered is not None:
        out[inside] = covered
    elif inside.any():
        out[inside] = f.cumulative_mass(n, t_arr[inside] - rho)
    if plan is None:
        # no partial shell: the covered part alone, and nothing is kept
        return out

    # partial shell |t - rho| < r < t + rho
    fr = f.at_located(plan.slot, plan.s, (plan.tail_at, plan.tail_logs))
    fr *= plan.kw
    out[plan.t_index] += kernel.surface * np.add.reduceat(fr, plan.starts)
    masses = out.copy()
    masses.setflags(write=False)
    _kernel_weights.put(grid_key, centre_key, plan, source_key, masses, fr.size)
    return out


def ball_mass(kernel: CapKernel, f: "RadialFunction", rho: float, t: float) -> float:
    """Mass of f over the ball of radius t centered at distance rho from the origin."""
    return float(ball_mass_batch(kernel, f, rho, np.array([float(t)]))[0])
