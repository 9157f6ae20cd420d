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
offset: s = ln(r / r_{k-1}) on a power cell, and r itself on the head, the
tail and the linear cells, whose models read r.  at_located(slot, s) is then
one gather, one multiply-add and one exp, exp(ln v_a - m s), with the head,
tail and linear-cell models patched over it.  The located form depends only
on the grid's points and on which values vanish (layout_key), so a caller
that evaluates many sources at the same radii (geometry's stored plans)
locates them once.  The head and tail models are patched in from their
factors without v_0 and v_N: edges_at(slot) finds where the head and tail
radii lie, and edge_factors gives (r/r_min)^(-h) and
(r/r_max)^(-T) (ln r / ln r_max)^L there.  These depend on f only through
edge_key (h, and (T, L) where the tail is not cut off), so the same caller
keeps them per model and at_located scales them by v_0 and v_N.
Masses take the same two steps: cumulative_mass(n, x) is
mass_at_located(n, *locate(x)), the head rule on slot 0, the tail rule on
slot N and on a cell the prefix of the cells below plus the cell rule, which
reads L = s on a power cell and x = s on a linear one.

RadialFunction alone decides what its model does outside the grid, through
three predicates (k = n for masses, k = n + w for norms of weight r^w):
cut_off (f vanishes beyond r_max: T = +inf, the only infinite tail model
allowed, or f(r_max) = 0), head_integrable
(k > h p) and tail_integrable (T p > k, or T p = k with L p < -1).  Every
integral of r^{k-1} f^p, the masses of cumulative_mass and the norms of
lp_norm, is a head, cells and a tail, each with one rule:

    head  v_0^p r_min^k (x/r_min)^{k-hp} / (k - hp); a zero head gives 0
    cell  power cell f = v_a (r/r_a)^{-m}: v_a^p r_a^k L exprel(z) with
          L = ln(x/r_a), z = (k - mp) L and exprel(z) = expm1(z)/z (1 at
          z = 0), free of cancellation near k = mp; where that product
          leaves the float range (z > 0 only), f(x)^p x^k L exprel(-z) in
          logs; 16-node Gauss-Legendre in ln r on a cell with a vanishing
          endpoint
    tail  v_N^p r_max^k expm1(a ln(x/r_max)) / a with a = k - Tp, or its limit
          at a = 0; with a log factor, 32-node Gauss-Legendre in ln r to a
          finite x, Gauss-Laguerre to infinity, or the pure-log closed form
          v_N^p r_max^k ln(r_max) / (-Lp - 1) at a = 0

The Gauss-Legendre rule of a log tail to finite x, its weighted integrand
sums and its widths ln(x / r_max), depends on f only through ln r_max, a and
L p, so it is kept per (ln r_max, a, L p, x) in a 2 MiB least-recently-used
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
from typing import Union

import numpy as np

from .errors import DivergentIntegralError, ParameterError, ProfileFormatError

# Exponent arithmetic that lands within this distance of a borderline is
# treated as exactly borderline (floats cannot hit codimension-one sets).
BORDERLINE_TOL = 1e-9

_MIN_COUNT = 16
_MIN_SPAN = 100.0


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


def _exprel(z: np.ndarray) -> np.ndarray:
    """expm1(z)/z, and its limit 1 at z = 0."""
    zero = z == 0.0
    return np.where(zero, 1.0, np.expm1(z) / np.where(zero, 1.0, z))


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
    them), the least recently used dropped first; thread-safe.  It keeps what
    does not depend on a source's values: the log-tail rules here and the
    potential's t-layouts."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._items = OrderedDict()
        self.nbytes = 0

    def get(self, key):
        with self._lock:
            item = self._items.get(key)
            if item is None:
                return None
            self._items.move_to_end(key)
            return item[0]

    def put(self, key, value, nbytes: int):
        with self._lock:
            if key in self._items or nbytes > self.max_bytes:
                return
            self._items[key] = (value, nbytes)
            self.nbytes += nbytes
            while self.nbytes > self.max_bytes:
                _, (_, dropped) = self._items.popitem(last=False)
                self.nbytes -= dropped

    def clear(self):
        with self._lock:
            self._items.clear()
            self.nbytes = 0


# the log-tail quadrature of _tail_integral, per (ln r_max, a, L p, x)
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

    @property
    def r_max(self) -> float:
        return float(self.points[-1])

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
    def _cells(self):
        """Per-cell interpolation data: which cells are power cells (both
        values positive) and whether all are, the slope of the log-log power
        law, ln of the left value (-inf where it vanishes) and the located
        offset of the cell's right end (see locate: its log width on a power
        cell, the radius itself on a linear one)."""
        r = self.grid.points
        v = self.values
        va, vb = v[:-1], v[1:]
        dlr = np.log(r[1:] / r[:-1])
        power = (va > 0.0) & (vb > 0.0)
        m = np.zeros(va.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            m[power] = -np.log(vb[power] / va[power]) / dlr[power]
            log_va = np.log(va)
        whole = np.where(power, dlr, r[1:])
        return {"power": power, "all_power": power.all(), "m": m, "log_va": log_va, "whole": whole}

    @cached_property
    def quad_boundaries(self) -> np.ndarray:
        """Grid boundaries coarsened to ~quarter-decade pieces for kernel quadrature.

        Boundaries of cells with a vanishing endpoint are always kept (the
        interpolant has a genuine kink there); smooth power-law cells are
        merged until the accumulated log-width reaches a quarter decade.
        """
        pts = self.grid.points
        power = self._cells["power"]
        limit = 0.125 * math.log(10.0)
        keep = [0]
        acc = 0.0
        for k in range(pts.size - 1):
            acc += math.log(pts[k + 1] / pts[k])
            boundary_forced = (not power[k]) or (k + 1 < power.size and not power[k + 1])
            if boundary_forced or acc >= limit or k == pts.size - 2:
                keep.append(k + 1)
                acc = 0.0
        return pts[np.asarray(keep, dtype=int)]

    @cached_property
    def _slots(self):
        """Per-slot tables of the located evaluation.  Slot 0 is the head,
        slot k (1 <= k < N) the cell [r_{k-1}, r_k) (the last one closed at
        r_max), slot N the tail; plain marks the slots whose model reads r
        itself rather than a power law: head, tail and the linear cells (a
        vanishing endpoint)."""
        pts, cells = self.grid.points, self._cells
        pad = lambda a, fill: np.concatenate([[fill], a, [fill]])
        return {
            "edges": np.append(pts[:-1], np.nextafter(pts[-1], math.inf)),
            "left": pad(pts[:-1], 1.0),
            "log_va": pad(cells["log_va"], 0.0),
            "m": pad(cells["m"], 0.0),
            "plain": pad(~cells["power"], True),
            "linear": pad(~cells["power"], False),
        }

    @cached_property
    def layout_key(self) -> bytes:
        """What locate's results and quad_boundaries depend on: the grid's
        points and which cells have a vanishing endpoint."""
        return self.grid.points.tobytes() + self._cells["power"].tobytes()

    @cached_property
    def source_key(self) -> tuple:
        """What f's masses depend on beyond the grid's layout: the values and
        the head and tail models."""
        return (self.values.tobytes(), self.head_exponent, self.tail_exponent, self.tail_log_power)

    def locate(self, r):
        """Slot and offset of each radius r, for at_located; sources with
        equal layout_key locate radii alike.

        The slot k counts the grid points at or below r (r_max counts in the
        last cell): 0 is the head, N the tail.  On a power cell the offset is
        s = ln(r / r_{k-1}); on the plain slots, whose models read r, it is r.
        """
        r = np.asarray(r, dtype=float)
        slots = self._slots
        slot = np.searchsorted(slots["edges"], r, side="right")
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.log(r / slots["left"].take(slot))
        np.copyto(s, r, where=slots["plain"].take(slot))
        return slot, s

    @cached_property
    def edge_key(self) -> tuple:
        """What edge_factors depends on beyond the located radii: the head
        exponent where f(r_min) > 0 and the tail model where f is not cut off."""
        head = self.head_exponent if self.values[0] > 0.0 else None
        return head, None if self.cut_off else (self.tail_exponent, self.tail_log_power)

    def edges_at(self, slot) -> tuple[np.ndarray, np.ndarray]:
        """The positions of the located radii on the head (slot 0) and on
        the tail (slot N); they depend on the grid alone."""
        return np.flatnonzero(slot == 0), np.flatnonzero(slot == self.grid.count)

    def edge_factors(self, s, head_at, tail_at) -> tuple[np.ndarray, np.ndarray]:
        """The head and tail models without v_0 and v_N at the located radii
        at head_at and tail_at (edges_at), whose offsets s are r there:
        (r/r_min)^(-h) and (r/r_max)^(-T) (ln r / ln r_max)^L, each empty
        where its model vanishes (f(r_min) = 0, a cut-off tail), and the
        head's also where it is flat (h = 0: the factor is 1).  Free of f's
        values beyond edge_key, so a caller that evaluates many sources at
        the same radii keeps them per edge_key."""
        pts = self.grid.points
        h, tail_model = self.edge_key
        head = tail = np.empty(0)
        if h:
            head = (s[head_at] / pts[0]) ** (-h)
        if tail_model is not None:
            T, L = tail_model
            st = s[tail_at]
            tail = (st / pts[-1]) ** (-T)
            if L != 0.0:
                tail = tail * (np.log(st) / np.log(pts[-1])) ** L
        return head, tail

    def at_located(self, slot, s, edges=None) -> np.ndarray:
        """f at radii located by locate: the power law exp(ln v_a - m s) of
        each cell, with the plain slots, whose s is r, patched over it.
        edges are (head_at, tail_at, head, tail), edges_at(slot) and
        edge_factors, where the caller keeps them; else they are found here."""
        slots = self._slots
        index = slot.astype(np.intp, copy=False)  # take would convert it twice
        out = slots["m"].take(index)
        out *= s
        np.subtract(slots["log_va"].take(index), out, out=out)
        # on a plain slot s is r, and the power law may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(out, out=out)
        pts, v = self.grid.points, self.values
        if not self._cells["all_power"]:
            lin = np.flatnonzero(slots["linear"].take(slot))
            il = slot[lin] - 1
            frac = (s[lin] - pts[il]) / (pts[il + 1] - pts[il])
            out[lin] = v[il] + (v[il + 1] - v[il]) * frac
        if edges is None:
            at = self.edges_at(slot)
            edges = (*at, *self.edge_factors(s, *at))
        head_at, tail_at, head, tail = edges
        out[head_at] = (v[0] * head if head.size else v[0]) if v[0] > 0 else 0.0
        out[tail_at] = 0.0 if self.cut_off else v[-1] * tail
        return out

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

    def _head_integral(self, x, k: float, p: float = 1.0):
        """int_0^x r^{k-1} f(r)^p dr on the head model (x <= r_min)."""
        v0, h, rm = self.values[0], self.head_exponent, self.grid.r_min
        if v0 == 0.0:
            return np.zeros_like(x)
        if not self.head_integrable(k, p):
            raise DivergentIntegralError(
                f"head exponent {h} >= k/p = {k / p}: the integral near the origin diverges"
            )
        return v0**p * rm**k * (x / rm) ** (k - h * p) / (k - h * p)

    def _tail_integral(self, k: float, p: float = 1.0, x=math.inf):
        """int_{r_max}^x r^{k-1} f(r)^p dr on the tail model, x >= r_max; to
        x = inf only where tail_integrable holds."""
        if self.cut_off:
            return np.zeros_like(x)
        rm, Lp = self.grid.r_max, self.tail_log_power * p
        scale = self.values[-1] ** p * rm**k
        a = k - self.tail_exponent * p
        if Lp == 0.0:
            span = np.log(x / rm)
            if abs(a) <= BORDERLINE_TOL:
                return scale * span
            return scale * np.expm1(a * span) / a
        # in lam = ln r the integrand is scale e^{a (lam - lam0)} (lam/lam0)^{Lp}
        lam0 = math.log(rm)
        if np.ndim(x) == 0 and math.isinf(x):
            if abs(a) <= BORDERLINE_TOL:
                return scale * lam0 / (-Lp - 1.0)  # pure log, Lp < -1
            nodes, wts = _laggauss(96)
            return scale / -a * float(np.dot(wts, ((lam0 - nodes / a) / lam0) ** Lp))
        # the rule is free of f's values, and Picard iterates share their
        # tail models, so it is kept per (ln r_max, a, L p, x)
        x = np.asarray(x, dtype=float)
        key = (lam0, a, Lp, x.tobytes())
        rule = _log_tail_rules.get(key)
        if rule is None:
            nodes, wts = _leggauss01(32)
            width = np.log(x) - lam0
            lam = lam0 + np.outer(width, nodes)
            rule = ((np.exp(a * (lam - lam0)) * (lam / lam0) ** Lp) @ wts, width)
            for arr in rule:
                arr.setflags(write=False)
            _log_tail_rules.put(key, rule, 3 * x.nbytes)
        shape, width = rule
        return scale * shape * width

    # -- cumulative mass ---------------------------------------------------

    def _cell_integrals(self, idx: np.ndarray, s: np.ndarray, k: float, p: float = 1.0):
        """int_{r_idx}^x r^{k-1} f(r)^p dr for each x inside cell idx, given
        as its located offset s (see locate): L = ln(x / r_idx) on a power
        cell, x itself on a linear one.

        See the module docstring for the rule.
        """
        r, v, cells = self.grid.points, self.values, self._cells
        scale, rate = self._cell_factors(k, p)
        span = s
        linear = not cells["all_power"]
        if linear:
            lin = np.flatnonzero(~cells["power"][idx])
            x_lin = s[lin]
            span = s.copy()
            span[lin] = 0.0  # the power rule then gives 0 there, replaced below
        z = rate[idx] * span
        with np.errstate(over="ignore", invalid="ignore"):
            out = scale[idx] * span * _exprel(z)
        # on a growing cell (z > 0) e^z may overflow, or v_a^p r_a^k
        # underflow, and leave the product inf, nan or 0; there
        # v_a^p r_a^k e^z = f(x)^p x^k is taken in logs, times exprel(-z) < 1
        if not (out.min(initial=math.inf) > 0.0 and out.max(initial=0.0) < math.inf):
            lost = (z > 0.0) & (v[idx] > 0.0) & ~(np.isfinite(out) & (out > 0.0))
            zl = z[lost]
            log_fx = p * cells["log_va"][idx[lost]] + k * np.log(r[idx[lost]]) + zl
            out[lost] = np.exp(log_fx) * span[lost] * _exprel(-zl)
        if linear:
            # vanishing endpoint: (linear interpolant)^p by Gauss-Legendre in ln r
            a, b = r[idx[lin], None], r[idx[lin] + 1, None]
            fa, fb = v[idx[lin], None], v[idx[lin] + 1, None]
            nodes, wts = _leggauss01(16)
            la = np.log(a)
            width = np.log(x_lin[:, None]) - la
            rr = np.exp(la + width * nodes)
            fr = np.maximum(fa + (fb - fa) * ((rr - a) / (b - a)), 0.0)
            out[lin] = width[:, 0] * ((fr**p * rr**k) @ wts)
        return out

    @lru_cache(maxsize=4)
    def _cell_factors(self, k: float, p: float) -> tuple[np.ndarray, np.ndarray]:
        """Per cell the cell rule's v_a^p r_a^k and k - m p."""
        r, v = self.grid.points[:-1], self.values[:-1]
        with np.errstate(over="ignore", invalid="ignore"):
            return v**p * r**k, k - self._cells["m"] * p

    @lru_cache(maxsize=4)
    def _mass_prefix(self, n: int) -> np.ndarray:
        """Mass inside each grid point: head plus the preceding whole cells."""
        r = self.grid.points
        s = sphere_surface(n)
        cell = s * self._cell_integrals(np.arange(r.size - 1), self._cells["whole"], n)
        return np.concatenate([[0.0], np.cumsum(cell)]) + s * float(self._head_integral(r[0], n))

    def cumulative_mass(self, n: int, x) -> np.ndarray:
        """s_{n-1} * integral_0^x f(r) r^{n-1} dr, exact on the declared model."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < 0.0):
            raise ParameterError("cumulative mass requires x >= 0")
        return self.mass_at_located(n, *self.locate(x))

    def mass_at_located(self, n: int, slot, s) -> np.ndarray:
        """cumulative_mass at radii located by locate: the head rule on slot 0,
        the tail rule on slot N, and on a cell the mass of the cells below
        plus the cell rule."""
        prefix = self._mass_prefix(n)
        surface = sphere_surface(n)
        out = np.empty(s.shape)
        head = slot == 0
        if head.any():
            out[head] = surface * self._head_integral(s[head], n)
        tail = slot == self.grid.count
        if tail.any():
            out[tail] = prefix[-1] + surface * self._tail_integral(n, 1.0, s[tail])
        body = ~(head | tail)
        if body.any():
            idx = slot[body].astype(np.intp) - 1
            out[body] = prefix[idx] + surface * self._cell_integrals(idx, s[body], n)
        return out


def lp_norm(f: RadialFunction, p: float, weight_exponent: float = 0.0, n: int = 3) -> NormValue:
    """Weighted norm (s_{n-1} int_0^inf r^w f(r)^p r^{n-1} dr)^{1/p}.

    f.head_integrable and f.tail_integrable decide finiteness exactly on the
    declared models; a divergent norm is INFINITE.  p = 1, w = 0 gives the mass.
    """
    if p < 1.0:
        raise ParameterError(f"norm exponent p must be >= 1, got {p}")
    w = weight_exponent
    k = n + w
    if w <= -n and f.values[0] > 0.0 and f.head_exponent >= 0.0:
        raise ParameterError(
            f"weight exponent {w} <= -n gives a non-integrable singularity at the origin"
        )
    if not (f.head_integrable(k, p) and f.tail_integrable(k, p)):
        return INFINITE
    r = f.grid.points
    body = f._cell_integrals(np.arange(r.size - 1), f._cells["whole"], k, p)
    total = float(f._head_integral(r[0], k, p)) + float(np.sum(body)) + float(f._tail_integral(k, p))
    return (sphere_surface(n) * total) ** (1.0 / p)


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
