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
offset: s = ln(r / r_{k-1}) on a power cell, and r c on the head, the tail
and the linear cells, whose models read r.  c = 2^-e is the grid's frame,
the power of two with c r_min in [1/2, 1), so r c and r = s / c are exact.
at_located(slot, s) is then one gather, one multiply-add and one exp,
exp(ln v_a - m s), with the head, tail and linear-cell models patched over
it.  The located form depends only on the grid's points in the frame (c times
the points, layout_key) and on which values vanish, so a caller that
evaluates many sources at the same radii (geometry's stored plans) locates
them once, and the located form of r on a grid is that of r / 2^k on the
grid dilated by 2^-k.

RadialFunction alone decides what its model does outside the grid, through
three predicates (k = n for masses, k = n + w for norms of weight r^w):
cut_off (f vanishes beyond r_max: T = inf or f(r_max) = 0), head_integrable
(k > h p) and tail_integrable (T p > k, or T p = k with L p < -1).  Every
integral of r^{k-1} f^p, the masses of cumulative_mass and the norms of
lp_norm, is a head, cells and a tail, each with one rule:

    head  v_0^p r_min^k (x/r_min)^{k-hp} / (k - hp); a zero head gives 0
    cell  power cell f = v_a (r/r_a)^{-m}: (f(x)^p x^k - v_a^p r_a^k) / (k - mp),
          or v_a^p r_a^k ln(x/r_a) where k = mp; 16-node Gauss-Legendre in
          ln r on a cell with a vanishing endpoint
    tail  v_N^p r_max^k expm1(a ln(x/r_max)) / a with a = k - Tp, or its limit
          at a = 0; with a log factor, 32-node Gauss-Legendre in ln r to a
          finite x, Gauss-Laguerre to infinity, or the pure-log closed form
          v_N^p r_max^k ln(r_max) / (-Lp - 1) at a = 0

Divergent norms are reported through the symbolic sentinel ``INFINITE``
rather than a float infinity.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
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


@lru_cache(maxsize=8)
def _leggauss01(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=4)
def _laggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.laguerre.laggauss(m)


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
        if self.tail_log_power != 0.0 and not math.isinf(self.tail_exponent):
            if self.grid.r_max <= 1.0:
                raise ParameterError("log-corrected tails require r_max > 1")

    # -- interpolation -----------------------------------------------------

    @cached_property
    def _cells(self):
        """Per-cell interpolation data: slope of the log-log power law and ln of
        the left value (-inf where it vanishes)."""
        r = self.grid.points
        v = self.values
        va, vb = v[:-1], v[1:]
        dlr = np.log(r[1:] / r[:-1])
        power = (va > 0.0) & (vb > 0.0)
        m = np.zeros(va.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            m[power] = -np.log(vb[power] / va[power]) / dlr[power]
            log_va = np.log(va)
        return {"power": power, "m": m, "log_va": log_va}

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
    def frame(self) -> float:
        """The power of two c = 2^-e with c r_min in [1/2, 1).  Grids that
        differ by a power-of-two dilation have the same points in their
        frames, c times the points, and scaling by c is exact."""
        return math.ldexp(1.0, -math.frexp(self.grid.r_min)[1])

    @cached_property
    def layout_key(self) -> bytes:
        """What locate's results and quad_boundaries depend on, in the frame:
        the grid's points times c and which cells have a vanishing endpoint."""
        return (self.grid.points * self.frame).tobytes() + self._cells["power"].tobytes()

    def locate(self, r):
        """Slot and offset of each radius r, for at_located; sources with
        equal layout_key locate radii with equal c r alike.

        The slot k counts the grid points at or below r (r_max counts in the
        last cell): 0 is the head, N the tail.  On a power cell the offset is
        s = ln(r / r_{k-1}); on the plain slots, whose models read r, it is
        r c, r in the frame.
        """
        return self._locate(np.asarray(r, dtype=float), self.frame)

    def at_located(self, slot, s) -> np.ndarray:
        """f at radii located by locate: the power law exp(ln v_a - m s) of
        each cell, with the plain slots, r = s / c, patched over it."""
        return self._at_located(slot, s, self.frame)

    def _locate(self, r, c):
        slots = self._slots
        slot = np.searchsorted(slots["edges"], r, side="right")
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.log(r / slots["left"].take(slot))
        np.multiply(r, c, out=s, where=slots["plain"].take(slot))
        return slot, s

    def _at_located(self, slot, s, c) -> np.ndarray:
        slots = self._slots
        # on a plain slot s is r c, and the power law may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.exp(slots["log_va"].take(slot) - slots["m"].take(slot) * s)
        pts, v = self.grid.points, self.values
        if not self._cells["power"].all():
            lin = np.flatnonzero(slots["linear"].take(slot))
            il = slot[lin] - 1
            frac = (s[lin] / c - pts[il]) / (pts[il + 1] - pts[il])
            out[lin] = v[il] + (v[il + 1] - v[il]) * frac
        head = slot == 0
        if head.any():
            out[head] = v[0] * (s[head] / (c * pts[0])) ** (-self.head_exponent) if v[0] > 0 else 0.0
        tail = slot == pts.size
        if tail.any():
            if self.cut_off:
                out[tail] = 0.0
            else:
                st = s[tail]
                factor = (st / (c * pts[-1])) ** (-self.tail_exponent)
                if self.tail_log_power != 0.0:
                    factor = factor * (np.log(st / c) / np.log(pts[-1])) ** self.tail_log_power
                out[tail] = v[-1] * factor
        return out

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        # with c = 1 the plain offsets are r itself, which no radius overflows
        out = self._at_located(*self._locate(np.atleast_1d(r), 1.0), 1.0)
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
        nodes, wts = _leggauss01(32)
        width = np.log(x) - lam0
        lam = lam0 + np.outer(width, nodes)
        return scale * ((np.exp(a * (lam - lam0)) * (lam / lam0) ** Lp) @ wts) * width

    # -- cumulative mass ---------------------------------------------------

    def _cell_integrals(self, idx: np.ndarray, x: np.ndarray, k: float, p: float = 1.0, fx=None):
        """int_{r_idx}^x r^{k-1} f(r)^p dr for each x inside cell idx.

        fx is f(x) when the caller has it (x on the grid); otherwise it comes
        from the cell's power law.  See the module docstring for the rule.
        """
        r, v, cells = self.grid.points, self.values, self._cells
        ra, va, m = r[idx], v[idx], cells["m"][idx]
        if fx is None:
            fx = np.exp(cells["log_va"][idx] - m * np.log(x / ra))
        expo = k - m * p
        near0 = np.abs(expo) < 1e-12
        # telescoped power-cell integral: stable for arbitrarily steep cells
        out = (fx**p * x**k - va**p * ra**k) / np.where(near0, 1.0, expo)
        if near0.any():
            out[near0] = va[near0] ** p * ra[near0] ** k * np.log(x[near0] / ra[near0])
        if not cells["power"].all():
            # vanishing endpoint: (linear interpolant)^p by Gauss-Legendre in ln r
            lin = np.flatnonzero(~cells["power"][idx])
            a, b = ra[lin, None], r[idx[lin] + 1, None]
            fa, fb = va[lin, None], v[idx[lin] + 1, None]
            nodes, wts = _leggauss01(16)
            la = np.log(a)
            width = np.log(x[lin, None]) - la
            rr = np.exp(la + width * nodes)
            fr = np.maximum(fa + (fb - fa) * ((rr - a) / (b - a)), 0.0)
            out[lin] = width[:, 0] * ((fr**p * rr**k) @ wts)
        return out

    @lru_cache(maxsize=4)
    def _mass_prefix(self, n: int) -> np.ndarray:
        """Mass inside each grid point: head plus the preceding whole cells."""
        r = self.grid.points
        s = sphere_surface(n)
        cell = s * self._cell_integrals(np.arange(r.size - 1), r[1:], n, fx=self.values[1:])
        return np.concatenate([[0.0], np.cumsum(cell)]) + s * float(self._head_integral(r[0], n))

    def cumulative_mass(self, n: int, x) -> np.ndarray:
        """s_{n-1} * integral_0^x f(r) r^{n-1} dr, exact on the declared model."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < 0.0):
            raise ParameterError("cumulative mass requires x >= 0")
        pts = self.grid.points
        prefix = self._mass_prefix(n)
        s = sphere_surface(n)
        out = np.empty_like(x)

        head = x <= pts[0]
        if head.any():
            out[head] = s * self._head_integral(x[head], n)
        tail = x >= pts[-1]
        if tail.any():
            out[tail] = prefix[-1] + s * self._tail_integral(n, 1.0, x[tail])
        body = ~(head | tail)
        if body.any():
            xb = x[body]
            idx = np.clip(np.searchsorted(pts, xb, side="right") - 1, 0, pts.size - 2)
            out[body] = prefix[idx] + s * self._cell_integrals(idx, xb, n)
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
    body = f._cell_integrals(np.arange(r.size - 1), r[1:], k, p, fx=f.values[1:])
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
