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
and writes the masses into one flat array.  It builds the nodes of all radii
t of one centre in a single array pass: two searchsorted calls find each shell's inner grid boundaries in
quad_boundaries, the ragged piece lists are laid out with repeat/cumsum, wide
pieces are subdivided, and the interior and edge nodes are written into one
flat array, each shell's block ordered interior pieces, lower edge, upper
edge.  One cap_fraction call and one add.reduceat then give every mass.

Nothing in a centre's nodes or in the factor cap_fraction * r^{n-1} * weight
(the kernel weights) depends on the values of f, only on the source grid's
geometry and the centre's radii, so ball_mass_batch keeps them as the centre's
plan, the way an FFTW plan is kept.  A plan holds each node located on the
source grid (RadialFunction.locate: its slot and offset s = ln(r / r_cell)),
the kernel weights, the start offset and t index of each non-empty shell, the
positions of the nodes on the head and on the tail (RadialFunction.edges_at),
and the covered part: the positions in t of the radii t > rho, with t - rho
located on the grid.  Every call, cold or repeat, takes the covered masses
from the located radii (RadialFunction.mass_at_located, the second half of
cumulative_mass) and evaluates f at the nodes from the located form
(RadialFunction.at_located, the second half of f(r): a gather, a multiply-add
and an exp, with the head and tail models patched in at the stored
positions).  A repeat call on the same geometry so skips node generation and
every search, and costs those evaluations times the weights plus one
add.reduceat over the shells.  A grid so far from 1 that a kernel weight
leaves the floating-point range (r^{n-1} overflows) raises ParameterError
rather than returning inf masses.
The store is keyed per grid by (n, layout_key, cut-off flag), layout_key being
the points plus which cells have a vanishing endpoint (what the located slots
and offsets and quad_boundaries depend on), and per centre by (rho, t).  It
holds the plans of several grids, grouped by grid key, so a caller that
alternates grids (the inequality battery, whose ball indicators sit on their
own grids) builds each (grid, centre) plan once.  Within the grid being served
a plan takes only free room; when a plan needs more, the other grids are
dropped whole, least recently used first, and the grid being served never is.

The head and tail factors of a source, its models at the head and tail nodes
without v_0 and v_N (RadialFunction.edge_factors), depend only on the plan's
nodes and on the source's head exponent and tail model (edge_key), and a
Picard solve feeds two such models, u's source and v's, into all its maps.
The store keeps them per centre for the grid being served, one table per
model and at most _FACTOR_MODELS tables, the least recently used dropped for
a new model.  They take only free room and go first when a plan or masses
need more, and a switch to another grid drops them.

The store also keeps, per centre, the whole ball masses (covered part plus
partial shells) for the last source it served, keyed by the source's values
and its head and tail models (RadialFunction.source_key, built once per source
rather than once per centre).  A call with the same grid, centre and source,
such as the Wolff image of a source whose Riesz image was just taken on the
same t nodes, returns a copy of the stored masses and neither evaluates f nor
its covered masses again.  Cold, repeat and stored masses come from one
computation, so they agree bit for bit.  Plans, factors and masses share the
cap _KERNEL_WEIGHT_BYTES.  A plan takes 17 bytes per node (a uint8 slot on
grids of up to 255 points, the offset and the kernel weight), 2 more per head
or tail node (a uint16 position) and 10 per covered radius (uint8 position and
slot, the offset).  So the 81 centres of a wolff_eval on the solver's
81-point grid, 1.42 M nodes of which 177 k lie on the head or the tail and
11.6 k covered radii, take 24.9 MB; each source model's factors (8 bytes per
tail node, and per head node unless the head is flat, as the solver's are)
take 1.1 MB more and the masses 0.16 MB.  The 121 centres of
RadialGrid.per_decade(1e-2, 1e3, 24) take 40.8 MB and two models' factors
3.4 MB, so the cap is 48 MiB.  The store is module-global, so access is
locked: a caller that evaluates potentials from several threads could
otherwise pass a key comparison and then read another grid's plan or another
source's masses.  plans_built() counts the plans built in the process and
nodes_evaluated() the plan nodes sources were evaluated at; each Picard trace
entry reports both for its iteration.
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
_FACTOR_MODELS = 2  # a Picard map pair has two source models


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
    if np.any(t <= 0.0):
        raise ParameterError("ball radius t must be positive")
    if np.any(r <= 0.0):
        raise ParameterError("shell radius r must be positive")
    if np.any(rho < 0.0):
        raise ParameterError("center distance rho must be nonnegative")

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
    nodes contiguous and ordered interior pieces, lower edge, upper edge.
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

    # lay each shell's nodes out as interior pieces, lower edge, upper edge
    order = np.argsort(3 * sseg + lo_edge + 2 * hi_edge, kind="stable")
    count = np.where(mid, _MID_NODES, _EDGE_NODES)
    offset = np.empty_like(count)
    offset[order] = np.cumsum(count[order]) - count[order]
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
    return r, w, np.repeat(owner[sseg[order]], count[order])


class _CentrePlan(NamedTuple):
    """A centre's ball masses, free of f.  The partial-shell quadrature: each
    node's slot and offset s on the source grid (see RadialFunction.locate),
    its kernel weight cap_fraction * r^{n-1} * w, and per non-empty shell the
    offset of its first node and its index into t, and the positions of the
    nodes on the head and on the tail (RadialFunction.edges_at).  The
    covered part: the positions in t of the radii t > rho, and t - rho
    located on the grid."""

    slot: np.ndarray
    s: np.ndarray
    kw: np.ndarray
    starts: np.ndarray
    t_index: np.ndarray
    head_at: np.ndarray
    tail_at: np.ndarray
    covered: np.ndarray
    covered_slot: np.ndarray
    covered_s: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self)


def _centre_plan(kernel: CapKernel, f: "RadialFunction", rho: float, t: np.ndarray):
    """Build a centre's read-only plan, or None when every shell is empty.
    Slots take the smallest unsigned type that holds the grid's point count,
    and positions the smallest that holds the length of the array they index
    (the nodes, or t)."""
    slot_type = np.min_scalar_type(f.grid.count)
    # far from 1 the nodes or r^{n-1} overflow, and the check below says so
    with np.errstate(over="ignore", invalid="ignore"):
        r, w, owner = _partial_shell_nodes(f, rho, t)
        if not owner.size:
            return None
        # located before cap_fraction's temporaries, the kept arrays pack
        # tighter: 6 MB less peak RSS over a map on the solver's grid
        slot, s = f.locate(r)
        slot = slot.astype(slot_type)
        head_at, tail_at = (a.astype(np.min_scalar_type(r.size)) for a in f.edges_at(slot))
        covered = np.flatnonzero(t > rho).astype(np.min_scalar_type(t.size))
        covered_slot, covered_s = f.locate(t[covered] - rho)
        covered_slot = covered_slot.astype(slot_type)
        kw = cap_fraction(kernel, rho, t[owner], r) * r ** (kernel.n - 1) * w
    if not np.all(np.isfinite(kw)):
        raise ParameterError(
            f"kernel weights at rho = {rho:g} leave the floating-point range: "
            f"r^{kernel.n - 1} overflows on this grid"
        )
    # owner is non-decreasing, so each shell's nodes form one run
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    plan = _CentrePlan(
        slot, s, kw, starts, owner[starts], head_at, tail_at, covered, covered_slot, covered_s
    )
    for a in plan:
        a.setflags(write=False)
    return plan


class _KernelWeightStore:
    """Centre plans grouped by source grid, each centre's ball masses of the
    last source served, and the served grid's head and tail factors per
    source model (RadialFunction.edge_factors and edge_key), bounded
    together by max_bytes.

    The grid being served keeps its plans in _plans; the grids served before
    it wait in _idle, least recently used first.  Within the served grid a
    plan takes only free room.  Factors sit in _factors, one table per model,
    at most _FACTOR_MODELS of them, least recently used first; they too take
    only free room, a new model drops the oldest table and serving another
    grid drops them all.  When a plan or masses need more room, the factor
    tables go first, then idle grids whole, oldest first; the served grid is
    never dropped.  plans_built counts the plans handed to put, one per plan
    built, and nodes_evaluated the plan nodes at which sources were
    evaluated, over the life of the process (clear leaves both as they
    are)."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.plans_built = 0
        self.nodes_evaluated = 0
        self._lock = threading.Lock()
        self._reset()

    def get(self, grid_key, centre_key):
        with self._lock:
            if grid_key != self._grid and grid_key not in self._idle:
                return None
            self._serve(grid_key)
            return self._plans.get(centre_key)

    def put(self, grid_key, centre_key, plan):
        with self._lock:
            self.plans_built += 1
            self._serve(grid_key)
            self._admit(self._plans, centre_key, plan)

    def get_masses(self, grid_key, source_key, centre_key):
        with self._lock:
            if (grid_key, source_key) == self._source:
                return self._masses.get(centre_key)
            return None

    def put_masses(self, grid_key, source_key, centre_key, masses):
        with self._lock:
            self._serve(grid_key)
            if (grid_key, source_key) != self._source:
                self.nbytes -= sum(m.nbytes for m in self._masses.values())
                self._source, self._masses = (grid_key, source_key), {}
            self._admit(self._masses, centre_key, masses)

    def count_nodes(self, count: int):
        with self._lock:
            self.nodes_evaluated += count

    def get_factors(self, grid_key, edge_key, centre_key):
        with self._lock:
            table = self._factors.get(edge_key) if grid_key == self._grid else None
            if table is None:
                return None
            self._factors.move_to_end(edge_key)
            return table.get(centre_key)

    def put_factors(self, grid_key, edge_key, centre_key, factors):
        with self._lock:
            if grid_key != self._grid:
                return
            table = self._factors.get(edge_key)
            if table is None:
                if len(self._factors) == _FACTOR_MODELS:
                    self._drop_factors()
                table = self._factors[edge_key] = {}
            self._factors.move_to_end(edge_key)
            nbytes = sum(a.nbytes for a in factors)
            if centre_key not in table and self.nbytes + nbytes <= self.max_bytes:
                table[centre_key] = factors
                self.nbytes += nbytes

    def clear(self):
        with self._lock:
            self._reset()

    def _reset(self):
        self._grid, self._plans, self._idle = None, {}, OrderedDict()
        self._source, self._masses = None, {}
        self._factors = OrderedDict()
        self.nbytes = 0

    def _drop_factors(self):
        _, dropped = self._factors.popitem(last=False)
        self.nbytes -= sum(a.nbytes for factors in dropped.values() for a in factors)

    def _serve(self, grid_key):
        # the grid served until now becomes the most recently used idle one
        if grid_key != self._grid:
            if self._plans:
                self._idle[self._grid] = self._plans
            self._grid, self._plans = grid_key, self._idle.pop(grid_key, {})
            while self._factors:
                self._drop_factors()

    def _admit(self, table, key, value):
        if key in table:
            return
        while self.nbytes + value.nbytes > self.max_bytes and (self._factors or self._idle):
            if self._factors:
                self._drop_factors()
            else:
                _, dropped = self._idle.popitem(last=False)
                self.nbytes -= sum(plan.nbytes for plan in dropped.values())
        if self.nbytes + value.nbytes <= self.max_bytes:
            table[key] = value
            self.nbytes += value.nbytes


_kernel_weights = _KernelWeightStore(_KERNEL_WEIGHT_BYTES)


def plans_built() -> int:
    """Centre plans built in this process so far, by every thread."""
    return _kernel_weights.plans_built


def nodes_evaluated() -> int:
    """Plan nodes at which sources were evaluated in this process so far, by
    every thread; masses served from the store evaluate none."""
    return _kernel_weights.nodes_evaluated


def ball_mass_batch(kernel: CapKernel, f: "RadialFunction", rho: float, t_values) -> np.ndarray:
    """Masses of f over B_t(x) for |x| = rho and a batch of radii t.

    Exact on the declared profile model up to quadrature on the partial
    shell, with full-shell content taken from closed-form cumulative masses.
    """
    n = kernel.n
    t_arr = np.atleast_1d(np.asarray(t_values, dtype=float))
    if np.any(t_arr <= 0.0):
        raise ParameterError("ball radius t must be positive")
    if rho < 0.0:
        raise ParameterError("center distance rho must be nonnegative")

    # the masses kept for this source, else f on the plan kept for this
    # geometry; at rho = 0 every shell is full or empty
    plan = None
    if rho > 0.0:
        grid_key = (n, f.layout_key, f.cut_off)
        centre_key = (rho, t_arr.tobytes())
        source_key = f.source_key
        masses = _kernel_weights.get_masses(grid_key, source_key, centre_key)
        if masses is not None:
            return masses.copy()
        plan = _kernel_weights.get(grid_key, centre_key)
        if plan is None:
            plan = _centre_plan(kernel, f, rho, t_arr)
            if plan is not None:
                _kernel_weights.put(grid_key, centre_key, plan)

    out = np.zeros(t_arr.size)
    if plan is None:
        # no partial shell: the covered part alone, and nothing is kept
        covered = t_arr > rho
        if covered.any():
            out[covered] = f.cumulative_mass(n, t_arr[covered] - rho)
        return out

    if plan.covered.size:
        out[plan.covered] = f.mass_at_located(n, plan.covered_slot, plan.covered_s)
    # partial shell |t - rho| < r < t + rho
    edge_key = f.edge_key
    factors = _kernel_weights.get_factors(grid_key, edge_key, centre_key)
    if factors is None:
        factors = f.edge_factors(plan.s, plan.head_at, plan.tail_at)
        for a in factors:
            a.setflags(write=False)
        _kernel_weights.put_factors(grid_key, edge_key, centre_key, factors)
    fr = f.at_located(plan.slot, plan.s, (plan.head_at, plan.tail_at, *factors))
    _kernel_weights.count_nodes(fr.size)
    fr *= plan.kw
    out[plan.t_index] += kernel.surface * np.add.reduceat(fr, plan.starts)
    masses = out.copy()
    masses.setflags(write=False)
    _kernel_weights.put_masses(grid_key, source_key, centre_key, masses)
    return out


def ball_mass(kernel: CapKernel, f: "RadialFunction", rho: float, t: float) -> float:
    """Mass of f over the ball of radius t centered at distance rho from the origin."""
    return float(ball_mass_batch(kernel, f, rho, np.array([float(t)]))[0])
