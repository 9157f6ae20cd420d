"""Radial grids, sampled radial profiles with power-law tails, and norms.

A profile is stored as values on a log-spaced grid plus declared asymptotic
models on both sides:

    f(r) ~ values[0]  * (r/r_min)^(-head_exponent)                  r < r_min
    f(r) ~ values[-1] * (r/r_max)^(-tail_exponent)
                      * (ln r / ln r_max)^(tail_log_power)          r > r_max

Between nodes the profile is interpolated linearly in (ln r, ln f), which is
exact on power laws; cells with a vanishing endpoint fall back to linear
interpolation in r.

Evaluation is two steps, and f(r) runs them in a row.  locate(r) finds each
radius's slot (0 the head, k the cell [r_{k-1}, r_k), N the tail) and its
offset: s = ln(r / left) from the slot's left end (r_min on the head, r_max
on the tail), and r itself on the linear cells, whose model reads r.  The
head and the tail are power laws in r like the power cells, so
at_located(slot, s) is one gather, one multiply-add and one exp,
exp(ln v_a - m s), on every slot: on the head v_a = v_0 and m = h, on the
tail v_a = v_N and m = T (+inf on a cut-off).  A log tail that is not cut
off adds L ln(ln r / ln r_max) = L log1p(s / ln r_max) to the exponent at
the tail positions, and the linear cells are patched over the result.
at_virtual reads radii given by their cell and offset on the grid continued
past both ends by its log step (geometry's stencil samples) the same way:
the head and the tail read as virtual cells whose power laws start at the
grid's ends.  cell_steepness bounds |d ln f / d ln r| times that step over
those cells, which decides whether the stencil's interpolants hold.

RadialFunction alone decides what its model does outside the grid, through
three predicates (k = n for masses, k = n + w for norms of weight r^w):
cut_off (f vanishes beyond r_max: T = +inf, the only infinite tail model
allowed, or f(r_max) = 0), head_integrable
(k > h p) and tail_integrable (T p > k, or T p = k with L p < -1).  Every
integral of r^{k-1} f^p, the masses of cumulative_mass and the norms of
lp_norm, reads the same offsets and one table per (k, p), kept with the
profile: per slot the scale v_a^p left^k, the rate k - m p and the prefix,
the integral over the slots below.  From the slot's left end to a radius at
offset s the integral is one rule,

    scale expm1(rate s) / rate      (scale s at rate = 0)

and on the head, which runs from 0 (s <= 0), scale exp(rate s) / rate.  A
cut-off tail has scale 0, and a borderline one (|k - T p| <= BORDERLINE_TOL)
rate 0; the linear cells take scale and rate 0 too, and two patches replace
the rule where f is not a power law:

    linear cell  (linear interpolant)^p by 16-node Gauss-Legendre in ln r
    log tail     32-node Gauss-Legendre in ln r to a finite x; to x = inf
                 (s the clipped float maximum) Gauss-Laguerre, or the
                 pure-log closed form v_N^p r_max^k ln(r_max) / (-L p - 1)
                 at rate 0

On a growing cell (rate s > 0) e^{rate s} may overflow, or the scale
underflow, and the product leave the float range; there scale e^{rate s} =
f(x)^p x^k is taken in logs.  To x = inf a tail that is not integrable gives
inf.  cumulative_mass(n, x) is s_{n-1} (prefix + rule) at the offsets of
locate(x).  The table's last prefix entry, past the tail, is the same sum
at x = inf, which lp_norm reads, so the mass at infinity is the p = 1 norm
bit for bit.

Each Gauss-Legendre sum is taken radius by radius (a row sum, where a
matrix product may round a row differently with the other rows of the call),
so a mass is a function of the source and the radius alone, and a caller
may put the radii of many balls in one cumulative_mass call.

The Gauss-Legendre rule of a log tail to finite x, its weighted integrand
sums, depends on f only through ln r_max, the rate and L p, so it is kept
per (ln r_max, rate, L p, ln(x / r_max)) in a 2 MiB least-recently-used
store: every Picard iterate on one grid shares its tail model, and the
potential asks for the same radii each map (0.31 MB on the solver's 81-point
grid with a log-corrected source).

Divergent norms are reported through the symbolic sentinel ``INFINITE``
rather than a float infinity.
"""

from __future__ import annotations

import csv
import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Real
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import DivergentIntegralError, ParameterError, ProfileFormatError

# Exponent arithmetic that lands within this distance of a borderline is
# treated as exactly borderline (floats cannot hit codimension-one sets).
BORDERLINE_TOL = 1e-9

_MIN_COUNT = 16
_MIN_SPAN = 100.0
_MAX_FLOAT = float(np.finfo(float).max)
# the kernel quadrature's pieces span the fewest cells whose log-width
# reaches an eighth of a decade (geometry's reference plans take it too)
_PIECE_LOGWIDTH = 0.125 * math.log(10.0)


class _Infinite:
    """Symbolic value of a divergent norm or mass."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinite"

    def __reduce__(self):
        return (_Infinite, ())


INFINITE = _Infinite()

NormValue = Union[float, _Infinite]


def is_infinite(value) -> bool:
    return value is INFINITE


def sphere_surface(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@lru_cache(maxsize=8)
def _leggauss01(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=4)
def _laggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.laguerre.laggauss(m)


class LruStore:
    """Values bounded by max_bytes in all (keys included, as the caller counts
    them), the least recently used dropped first; thread-safe.  A put
    replaces the value a key held.  Keys may share a part, key[shared] (a
    grid's points key), whose bytes count once while any held key has it.
    It keeps the log-tail rules here and geometry's reference plans and ball
    masses."""

    def __init__(self, max_bytes: int, shared: Optional[int] = None):
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._items = OrderedDict()
        self._shared = shared
        self._holders = {}  # shared part -> the number of held keys that have it
        self.nbytes = 0

    def get(self, key):
        with self._lock:
            item = self._items.get(key)
            if item is None:
                return None
            self._items.move_to_end(key)
            return item[0]

    def _count(self, key, nbytes: int, change: int):
        """Count a held key in (change = 1) or out (-1): its nbytes and, for
        the first or the last key that has it, its shared part's bytes."""
        self.nbytes += change * nbytes
        if self._shared is not None:
            part = key[self._shared]
            held = self._holders.pop(part, 0) + change
            if held:
                self._holders[part] = held
            if held == (change > 0):
                self.nbytes += change * len(part)

    def put(self, key, value, nbytes: int):
        with self._lock:
            if key in self._items:
                self._count(key, self._items.pop(key)[1], -1)
            if nbytes > self.max_bytes:
                return
            self._items[key] = (value, nbytes)
            self._count(key, nbytes, 1)
            while self.nbytes > self.max_bytes:
                dropped, (_, size) = self._items.popitem(last=False)
                self._count(dropped, size, -1)

    def clear(self):
        with self._lock:
            self._items.clear()
            self._holders.clear()
            self.nbytes = 0


# the log-tail quadrature of _integrals, per (ln r_max, rate, L p, ln(x / r_max))
_log_tail_rules = LruStore(2 * 2**20)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing log-spaced radii spanning at least two decades."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < _MIN_COUNT:
            raise ParameterError(f"grid needs at least {_MIN_COUNT} points, got {pts.size}")
        if not np.all(np.isfinite(pts)) or pts[0] <= 0.0:
            raise ParameterError("grid radii must be finite and positive")
        if not np.all(np.diff(pts) > 0.0):
            raise ParameterError("grid radii must be strictly increasing")
        if pts[-1] / pts[0] < _MIN_SPAN:
            raise ParameterError(
                f"grid span r_max/r_min must be >= {_MIN_SPAN}, got {pts[-1] / pts[0]:g}"
            )

    @classmethod
    def log_spaced(cls, r_min: float, r_max: float, count: int) -> "RadialGrid":
        return cls(np.geomspace(r_min, r_max, count))

    @classmethod
    def per_decade(cls, r_min: float, r_max: float, nodes_per_decade: int = 16) -> "RadialGrid":
        real = all(isinstance(x, Real) for x in (r_min, r_max, nodes_per_decade))
        if not (real and 0.0 < r_min < r_max < math.inf):
            raise ParameterError(
                "grid needs numbers with 0 < r_min < r_max < inf, got "
                f"r_min = {r_min!r}, r_max = {r_max!r}, nodes_per_decade = {nodes_per_decade!r}"
            )
        decades = math.log10(r_max / r_min)
        count = max(_MIN_COUNT, int(round(decades * nodes_per_decade)) + 1)
        return cls.log_spaced(r_min, r_max, count)

    @property
    def r_min(self) -> float:
        return float(self.points[0])

    @cached_property
    def log_step(self):
        """ln q where the grid is geometric, every ln(r_{k+1} / r_k) within
        1e-9 relative of ln q = ln(r_max / r_min) / (N - 1), else None.  It
        is rounded to 12 significant digits, so the dilations of a grid,
        whose steps differ from its own by rounding, share one value."""
        mean = math.log(self.points[-1] / self.points[0]) / (self.points.size - 1)
        geometric = np.max(np.abs(np.diff(np.log(self.points)) - mean)) <= 1e-9 * mean
        return float(f"{mean:.12g}") if geometric else None

    @property
    def r_max(self) -> float:
        return float(self.points[-1])

    @cached_property
    def points_key(self) -> bytes:
        """The points as bytes, made once: every store key on this grid holds this one object."""
        return self.points.tobytes()

    @property
    def count(self) -> int:
        return int(self.points.size)

    def __eq__(self, other):
        return isinstance(other, RadialGrid) and np.array_equal(self.points, other.points)


@dataclass(frozen=True, eq=False)
class RadialFunction:
    """Nonnegative radial profile: sampled body plus declared head/tail models."""

    grid: RadialGrid
    values: np.ndarray
    head_exponent: float = 0.0
    tail_exponent: float = math.inf
    tail_log_power: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.points.shape:
            raise ParameterError("values and grid points must have matching shapes")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise ParameterError("profile values must be finite and nonnegative")
        if not math.isfinite(self.head_exponent):
            raise ParameterError("head_exponent must be finite")
        if math.isnan(self.tail_exponent) or self.tail_exponent == -math.inf:
            raise ParameterError(
                f"tail_exponent must be a number or +inf (a cut-off), got {self.tail_exponent!r}"
            )
        if not math.isfinite(self.tail_log_power):
            raise ParameterError(f"tail_log_power must be finite, got {self.tail_log_power!r}")
        if self.tail_log_power != 0.0 and not math.isinf(self.tail_exponent):
            if self.grid.r_max <= 1.0:
                raise ParameterError("log-corrected tails require r_max > 1")

    # -- interpolation -----------------------------------------------------

    @cached_property
    def quad_boundaries(self) -> np.ndarray:
        """Grid boundaries coarsened to ~eighth-decade pieces for kernel quadrature.

        Boundaries of cells with a vanishing endpoint are always kept (the
        interpolant has a genuine kink there); smooth power-law cells are
        merged until the accumulated log-width reaches an eighth of a decade,
        within a relative 1e-9, so that rounding in the sum does not decide
        the piece count: the dilations of a grid give its pieces.
        """
        pts = self.grid.points
        linear = self._slots["linear"][1:-1]
        limit = _PIECE_LOGWIDTH * (1.0 - 1e-9)
        keep = [0]
        acc = 0.0
        for k in range(pts.size - 1):
            acc += math.log(pts[k + 1] / pts[k])
            boundary_forced = linear[k] or (k + 1 < linear.size and linear[k + 1])
            if boundary_forced or acc >= limit or k == pts.size - 2:
                keep.append(k + 1)
                acc = 0.0
        return pts[np.asarray(keep, dtype=int)]

    @cached_property
    def _slots(self):
        """Per-slot tables of the located evaluation and of the integrals.
        Slot 0 is the head, slot k (1 <= k < N) the cell [r_{k-1}, r_k) (the
        last one closed at r_max), slot N the tail.  Each slot is the power
        law v_a (r / left)^(-m): left is r_min on the head, r_{k-1} on a cell
        and r_max on the tail, v_a is f(left) (ln v_a -inf where it
        vanishes); m is h on the head (0 where v_0 = 0, whose head is 0
        whatever h is), the log-log slope on a cell and T on the tail (+inf
        on a cut-off).  linear marks the cells with a vanishing endpoint,
        whose model reads r (m = 0 there), and any_linear whether there is
        one.  width is the located offset (see locate) of each slot's right
        end: 0 on the head, the log width of a power cell, r_k on a linear
        one and the clipped float maximum (x = inf) on the tail."""
        pts, v = self.grid.points, self.values
        va, vb = v[:-1], v[1:]
        dlr = np.log(pts[1:] / pts[:-1])
        linear = (va == 0.0) | (vb == 0.0)
        power = ~linear
        m = np.zeros(va.size)
        m[power] = -np.log(vb[power] / va[power]) / dlr[power]
        head_m = self.head_exponent if v[0] > 0.0 else 0.0
        tail_m = math.inf if self.cut_off else self.tail_exponent
        v_a = np.concatenate([v[:1], v])
        with np.errstate(divide="ignore"):
            log_va = np.log(v_a)
        return {
            "edges": np.append(pts[:-1], np.nextafter(pts[-1], math.inf)),
            "left": np.concatenate([pts[:1], pts]),
            "v_a": v_a,
            "log_va": log_va,
            "m": np.concatenate([[head_m], m, [tail_m]]),
            "linear": np.concatenate([[False], linear, [False]]),
            "any_linear": bool(linear.any()),
            "width": np.concatenate([[0.0], np.where(linear, pts[1:], dlr), [_MAX_FLOAT]]),
        }

    @cached_property
    def source_key(self) -> tuple:
        """What f's masses depend on beyond the grid: the values and the head
        and tail models."""
        return (self.values.tobytes(), self.head_exponent, self.tail_exponent, self.tail_log_power)

    def locate(self, r):
        """Slot and offset of each radius r, for at_located; sources on one
        grid with the same vanishing values locate radii alike.

        The slot k counts the grid points at or below r (r_max counts in the
        last cell): 0 is the head, N the tail.  The offset is
        s = ln(r / left) from the slot's left end, clipped to the float range
        so that r = 0 and r = inf read the head and tail models in the limit
        (a flat model keeps its value, any other over- or underflows to 0 or
        inf); on a linear cell it is r.
        """
        r = np.asarray(r, dtype=float)
        slots = self._slots
        slot = np.searchsorted(slots["edges"], r, side="right")
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.log(r / slots["left"].take(slot))
        np.clip(s, -_MAX_FLOAT, _MAX_FLOAT, out=s)
        np.copyto(s, r, where=slots["linear"].take(slot))
        return slot, s

    def _power_laws(self, log_va, m, s, tail) -> np.ndarray:
        """exp(ln v_a - m s), in m's buffer, from the slot tables log_va and m
        read at the nodes; on a log tail that is not cut off L ln(ln r /
        ln r_max) = L log1p(offset / ln r_max) is added at the positions and
        tail offsets that tail() gives."""
        # at s = +-_MAX_FLOAT (r = 0 or inf) the exponent overflows to its limit
        with np.errstate(over="ignore"):
            m *= s
            np.subtract(log_va, m, out=m)
            if self.tail_log_power != 0.0 and not self.cut_off:
                at, offset = tail()
                m[at] += self.tail_log_power * np.log1p(offset / math.log(self.grid.r_max))
            return np.exp(m, out=m)

    def at_located(self, slot, s) -> np.ndarray:
        """f at radii located by locate: the power law of each slot, the
        offset s read on the tail, and the linear cells, whose s is r,
        patched over it."""
        slots = self._slots
        tail = lambda: (at := np.flatnonzero(slot == self.grid.count), s[at])
        out = self._power_laws(slots["log_va"].take(slot), slots["m"].take(slot), s, tail)
        if slots["any_linear"]:
            pts, v = self.grid.points, self.values
            lin = np.flatnonzero(slots["linear"].take(slot))
            il = slot[lin] - 1
            frac = (s[lin] - pts[il]) / (pts[il + 1] - pts[il])
            out[lin] = v[il] + (v[il + 1] - v[il]) * frac
        return out

    def at_virtual(self, j, s, step: float) -> np.ndarray:
        """f at the radii r_min q^{j-1} e^s on f's grid continued past both
        ends by its log step ln q = step: j the virtual cell
        [r_min q^{j-1}, r_min q^j), the grid's cell j for 0 < j < N, and s
        the offset in it.  The radius lies in slot clip(j, 0, N) at offset
        s + (j - clip(j, 1, N)) step, so the head and the tail read as
        virtual cells whose power laws start at the grid's ends, and a log
        tail adds L log1p(offset / ln r_max) there.  For sources without a
        vanishing value."""
        N = self.grid.count
        slot = np.clip(j, 0, N)
        moved = (j - np.clip(j, 1, N)) * step
        m = self._slots["m"].take(slot)
        log_va = self._slots["log_va"].take(slot) - m * moved
        return self._power_laws(log_va, m, s, lambda: (at := np.flatnonzero(j >= N), s[at] + moved[at]))

    def cell_steepness(self, step: float) -> float:
        """The largest |d ln f / d ln r| step over the cells of at_virtual's
        continued grid of log step ln q = step: |m| step on the head, the
        cells and the tail, where a log tail's L log1p(s / ln r_max) adds
        |L| step / ln r_max, and inf on a log tail whose singularity, at
        s = -ln r_max, lies within two steps of the tail.  The Chebyshev
        interpolants of geometry's stencil converge where it is small.  For
        sources without a jump."""
        m = np.abs(self._slots["m"])
        if self.tail_log_power != 0.0:
            lam = math.log(self.grid.r_max)
            m[-1] += abs(self.tail_log_power) / lam if lam >= 2.0 * step else math.inf
        return float(m.max()) * step

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        out = self.at_located(*self.locate(np.atleast_1d(r)))
        return float(out[0]) if scalar else out

    # -- constructors ------------------------------------------------------

    def with_values(self, values, **model_overrides) -> "RadialFunction":
        models = {
            "head_exponent": self.head_exponent,
            "tail_exponent": self.tail_exponent,
            "tail_log_power": self.tail_log_power,
        }
        models.update(model_overrides)
        return RadialFunction(self.grid, values, **models)

    def scaled(self, amplitude: float) -> "RadialFunction":
        """Pointwise multiple ``amplitude * f``; the tail models are unchanged."""
        if amplitude < 0.0:
            raise ParameterError("amplitude must be nonnegative")
        return self.with_values(self.values * amplitude)

    def dilate(self, lam: float) -> "RadialFunction":
        """Return g(r) = f(lam * r); grid radii shrink by lam, values unchanged."""
        if lam <= 0.0:
            raise ParameterError("dilation factor must be positive")
        if self.tail_log_power != 0.0:
            raise ParameterError("dilate does not preserve log-corrected tail models")
        return RadialFunction(
            RadialGrid(self.grid.points / lam),
            self.values,
            head_exponent=self.head_exponent,
            tail_exponent=self.tail_exponent,
            tail_log_power=self.tail_log_power,
        )

    # -- the model outside the grid ------------------------------------------

    @cached_property
    def cut_off(self) -> bool:
        """Whether f vanishes beyond r_max: an infinite tail exponent or a
        vanishing last value."""
        return math.isinf(self.tail_exponent) or self.values[-1] == 0.0

    @property
    def has_jump(self) -> bool:
        """Whether f has a jump: a cut-off tail or a vanishing value."""
        return self.cut_off or self._slots["any_linear"]

    def head_integrable(self, k: float, p: float = 1.0) -> bool:
        """Whether int_0^{r_min} r^{k-1} f(r)^p dr converges: k > h p, or f(r_min) = 0."""
        return self.values[0] == 0.0 or k - self.head_exponent * p > BORDERLINE_TOL

    def tail_integrable(self, k: float, p: float = 1.0) -> bool:
        """Whether int_{r_max}^inf r^{k-1} f(r)^p dr converges: T p > k, or
        T p = k with L p < -1, or a cut-off tail."""
        if self.cut_off:
            return True
        a = self.tail_exponent * p - k
        if abs(a) <= BORDERLINE_TOL:
            return self.tail_log_power * p < -1.0 - BORDERLINE_TOL
        return a > 0.0

    # -- integrals ---------------------------------------------------------

    @cached_property
    def _tables(self) -> dict:
        """The integral tables of _table, per (k, p), kept with the profile."""
        return {}

    def _table(self, k: float, p: float = 1.0) -> dict:
        """Per slot the scale v_a^p left^k, the rate k - m p and the prefix,
        the integral of r^{k-1} f^p over the slots below (0 on the head); the
        prefix's last entry, past the tail, is the integral to x = inf (inf
        where the tail is not integrable).  A cut-off tail and the linear
        cells take scale and rate 0, a borderline tail rate 0.  Raises
        DivergentIntegralError where the head is not integrable."""
        table = self._tables.get((k, p))
        if table is not None:  # two threads may both build it; alike
            return table
        if not self.head_integrable(k, p):
            raise DivergentIntegralError(
                f"head exponent {self.head_exponent} >= k/p = {k / p}: the integral near the origin diverges"
            )
        slots = self._slots
        scale = slots["v_a"] ** p * slots["left"] ** k
        rate = k - slots["m"] * p  # -inf on a cut-off tail, set below
        scale[slots["linear"]] = rate[slots["linear"]] = 0.0
        if self.cut_off:
            scale[-1] = rate[-1] = 0.0
        elif abs(rate[-1]) <= BORDERLINE_TOL:
            rate[-1] = 0.0
        table = {"scale": scale, "rate": rate}
        whole = self._integrals(k, p, np.arange(self.grid.count + 1), slots["width"], table)
        table["prefix"] = np.concatenate([[0.0], np.cumsum(whole)])
        self._tables[(k, p)] = table
        return table

    def _integrals(self, k: float, p: float, slot, s, table=None) -> np.ndarray:
        """int r^{k-1} f(r)^p dr from each located radius's slot's left end
        (0 on the head) to the radius, given as its slot and offset (see
        locate).  See the module docstring for the rule."""
        table = self._table(k, p) if table is None else table
        slots, N = self._slots, self.grid.count
        scale, rate = table["scale"].take(slot), table["rate"].take(slot)
        flat = rate == 0.0
        # at s = +-_MAX_FLOAT (x = 0 or inf) rate s overflows to its limit
        with np.errstate(over="ignore", invalid="ignore"):
            z = rate * s
            out = np.expm1(z)
            head = np.flatnonzero(slot == 0)
            out[head] = np.exp(z[head])
            np.copyto(out, s, where=flat)
            out *= scale
            np.divide(out, rate, out=out, where=~flat)
        # on a growing cell (z > 0) e^z may overflow, or the scale underflow,
        # and leave the product inf, nan or 0; there scale e^z = f(x)^p x^k
        # is taken in logs
        if not (out.min(initial=math.inf) > 0.0 and out.max(initial=0.0) < math.inf):
            lost = np.flatnonzero((z > 0.0) & (slot < N) & ~(np.isfinite(out) & (out > 0.0)))
            at, zl = slot[lost], z[lost]
            log_fx = p * slots["log_va"].take(at) + k * np.log(slots["left"].take(at)) + zl
            out[lost] = np.exp(log_fx) * -np.expm1(-zl) / rate[lost]
        if slots["any_linear"]:
            # vanishing endpoint: (linear interpolant)^p by Gauss-Legendre in ln r
            r, v = self.grid.points, self.values
            lin = np.flatnonzero(slots["linear"].take(slot))
            idx = slot[lin] - 1
            a, b = r[idx, None], r[idx + 1, None]
            fa, fb = v[idx, None], v[idx + 1, None]
            nodes, wts = _leggauss01(16)
            la = np.log(a)
            width = np.log(s[lin, None]) - la
            rr = np.exp(la + width * nodes)
            fr = np.maximum(fa + (fb - fa) * ((rr - a) / (b - a)), 0.0)
            out[lin] = width[:, 0] * (fr**p * rr**k * wts).sum(axis=1)
        log_tail = self.tail_log_power != 0.0 and not self.cut_off
        integrable = self.tail_integrable(k, p)
        if log_tail or not integrable:
            far = s == _MAX_FLOAT  # x = inf, on the tail
            near = np.flatnonzero((slot == N) & ~far) if log_tail else ()
            if len(near):
                out[near] = self._log_tail(table, p, s[near])
            if not integrable:
                out[far] = math.inf
            elif far.any():
                out[far] = self._log_tail(table, p, math.inf)
        return out

    def _log_tail(self, table: dict, p: float, span):
        """int_{r_max}^x r^{k-1} f(r)^p dr on a log tail, x = r_max e^span:
        32-node Gauss-Legendre in ln r to a finite x, Gauss-Laguerre or the
        pure-log closed form to x = inf (span = inf)."""
        scale, a, Lp = table["scale"][-1], float(table["rate"][-1]), self.tail_log_power * p
        # in lam = ln r the integrand is scale e^{a (lam - lam0)} (lam/lam0)^{Lp}
        lam0 = math.log(self.grid.r_max)
        if np.ndim(span) == 0:
            if a == 0.0:
                return scale * lam0 / (-Lp - 1.0)  # pure log, Lp < -1
            nodes, wts = _laggauss(96)
            return scale / -a * float(np.dot(wts, ((lam0 - nodes / a) / lam0) ** Lp))
        # the rule is free of f's values, and Picard iterates share their
        # tail models, so it is kept per (ln r_max, a, L p, span)
        key = (lam0, a, Lp, span.tobytes())
        shape = _log_tail_rules.get(key)
        if shape is None:
            nodes, wts = _leggauss01(32)
            lam = lam0 + np.outer(span, nodes)
            # e^{a (lam - lam0)} (lam/lam0)^{Lp} wts in two (radii x 32) buffers
            terms = lam - lam0
            terms *= a
            np.exp(terms, out=terms)
            lam /= lam0
            lam **= Lp
            terms *= lam
            terms *= wts
            shape = terms.sum(axis=1)
            shape.setflags(write=False)
            _log_tail_rules.put(key, shape, 2 * span.nbytes)
        return scale * shape * span

    def cumulative_mass(self, n: int, x) -> np.ndarray:
        """s_{n-1} * integral_0^x f(r) r^{n-1} dr, exact on the declared model:
        at the offsets locate gives, the prefix of the slots below plus the
        rule of the module docstring; inf at x = inf where the tail is not
        integrable."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # a NaN makes the min NaN, which fails the comparison
        if x.size and not x.min() >= 0.0:
            bad = float(x[~(x >= 0.0)].flat[0])
            raise ParameterError(f"cumulative mass requires x >= 0, got {bad}")
        slot, s = self.locate(x)
        return sphere_surface(n) * (self._table(n)["prefix"].take(slot) + self._integrals(n, 1.0, slot, s))


def lp_norm(f: RadialFunction, p: float, weight_exponent: float = 0.0, n: int = 3) -> NormValue:
    """Weighted norm (s_{n-1} int_0^inf r^w f(r)^p r^{n-1} dr)^{1/p}.

    f.head_integrable and f.tail_integrable decide finiteness exactly on the
    declared models; a divergent norm is INFINITE.  The integral is the last
    prefix entry of f's integral table, cumulative_mass's sum at x = inf, so
    p = 1, w = 0 gives the mass bit for bit.
    """
    # NaN fails the comparison
    if not p >= 1.0:
        raise ParameterError(f"norm exponent p must be >= 1, got {p}")
    w = weight_exponent
    if math.isnan(w):
        raise ParameterError(f"weight exponent must be a number, got {w}")
    k = n + w
    if w <= -n and f.values[0] > 0.0 and f.head_exponent >= 0.0:
        raise ParameterError(
            f"weight exponent {w} <= -n gives a non-integrable singularity at the origin"
        )
    if not (f.head_integrable(k, p) and f.tail_integrable(k, p)):
        return INFINITE
    return float(sphere_surface(n) * f._table(k, p)["prefix"][-1]) ** (1.0 / p)


@dataclass(frozen=True)
class RateFit:
    """Least-squares tail fit of ln f against ln r (and optionally ln ln r)."""

    exponent: float
    log_power: float
    r_squared: float
    window: tuple[float, float]

    def to_dict(self):
        return {
            "exponent": self.exponent,
            "log_power": self.log_power,
            "r_squared": self.r_squared,
            "window": list(self.window),
        }


def fit_decay_rate(
    f: RadialFunction, window: tuple[float, float], allow_log: bool = False
) -> RateFit:
    """Fit f ~ c * r^(-exponent) * (ln r)^(log_power) over the window.

    The sign convention is positive exponent for decay.  Requires at least
    8 grid points inside the window and strictly positive samples there.
    """
    r_lo, r_hi = window
    if not (f.grid.r_min <= r_lo < r_hi <= f.grid.r_max * (1 + 1e-12)):
        raise ParameterError(f"window {window} not contained in the grid range")
    pts = f.grid.points
    mask = (pts >= r_lo) & (pts <= r_hi)
    if int(mask.sum()) < 8:
        raise ParameterError(f"window {window} contains fewer than 8 grid points")
    vals = f.values[mask]
    if np.any(vals <= 0.0):
        raise ParameterError("profile vanishes inside the fit window")
    r = pts[mask]
    if allow_log and r_lo <= 1.0:
        raise ParameterError("log-corrected fits require the window to lie in r > 1")
    y = np.log(vals)
    cols = [np.ones_like(r), np.log(r)]
    if allow_log:
        cols.append(np.log(np.log(r)))
    A = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(
        exponent=float(-coef[1]),
        log_power=float(coef[2]) if allow_log else 0.0,
        r_squared=min(1.0, r2),
        window=(float(r_lo), float(r_hi)),
    )


# -- serialization ----------------------------------------------------------

SIDECAR_KEYS = ("head_exponent", "tail_exponent", "tail_log_power")


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".json")


def write_profile(f: RadialFunction, csv_path) -> None:
    """Write r,value rows (shortest round-trip decimals) plus a JSON sidecar."""
    csv_path = Path(csv_path)
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "value"])
        for r, v in zip(f.grid.points, f.values):
            writer.writerow([repr(float(r)), repr(float(v))])
    sidecar = {k: getattr(f, k) for k in SIDECAR_KEYS}
    with _sidecar_path(csv_path).open("w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def read_profile(csv_path) -> RadialFunction:
    """Load a profile written by write_profile; round-trips bit-exactly."""
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise ProfileFormatError(f"profile CSV not found: {csv_path}")
    side = _sidecar_path(csv_path)
    if not side.exists():
        raise ProfileFormatError(f"missing JSON sidecar: {side}")
    with side.open() as fh:
        meta = json.load(fh)
    missing = [k for k in SIDECAR_KEYS if k not in meta]
    if missing:
        raise ProfileFormatError(f"sidecar {side} missing keys: {missing}")
    radii, values = [], []
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["r", "value"]:
            raise ProfileFormatError(f"{csv_path}: expected header 'r,value'")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ProfileFormatError(f"{csv_path}: malformed row {row!r}")
            try:
                radii.append(float(row[0]))
                values.append(float(row[1]))
            except ValueError as exc:
                raise ProfileFormatError(f"{csv_path}: non-numeric row {row!r}") from exc
    radii_arr = np.asarray(radii)
    values_arr = np.asarray(values)
    if radii_arr.size and not np.all(np.diff(radii_arr) > 0):
        raise ProfileFormatError(f"{csv_path}: radii are not strictly increasing")
    if np.any(values_arr < 0):
        raise ProfileFormatError(f"{csv_path}: negative profile values")
    try:
        grid = RadialGrid(radii_arr)
        return RadialFunction(grid, values_arr, **{k: float(meta[k]) for k in SIDECAR_KEYS})
    except ParameterError as exc:
        raise ProfileFormatError(f"{csv_path}: {exc}") from exc
