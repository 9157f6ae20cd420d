"""Radial grids, sampled radial profiles with power-law tails, and norms.

A profile is stored as values on a log-spaced grid plus declared asymptotic
models on both sides:

    f(r) ~ values[0]  * (r/r_min)^(-head_exponent)                  r < r_min
    f(r) ~ values[-1] * (r/r_max)^(-tail_exponent)
                      * (ln r / ln r_max)^(tail_log_power)          r > r_max

Between nodes the profile is interpolated linearly in (ln r, ln f), which is
exact on power laws; cells with a vanishing endpoint fall back to linear
interpolation in r.  Weighted integrals use closed forms on the power-law
pieces, composite Gauss-Legendre in ln r where a non-power factor appears,
and Gauss-Laguerre for log-corrected tails.  Divergent norms are reported
through the symbolic sentinel ``INFINITE`` rather than a float infinity.
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

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        pts = self.grid.points
        v = self.values
        cells = self._cells

        # the power-cell formula on every point, then the linear cells, the
        # head and the tail patched over it; off the grid it may overflow
        idx = np.clip(np.searchsorted(pts, r, side="right") - 1, 0, pts.size - 2)
        ra = pts[idx]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = np.exp(cells["log_va"][idx] - cells["m"][idx] * np.log(r / ra))
        if not cells["power"].all():
            lin = np.flatnonzero(~cells["power"][idx])
            il = idx[lin]
            frac = (r[lin] - ra[lin]) / (pts[il + 1] - ra[lin])
            out[lin] = v[il] + (v[il + 1] - v[il]) * frac

        head = r < pts[0]
        if head.any():
            out[head] = v[0] * (r[head] / pts[0]) ** (-self.head_exponent) if v[0] > 0 else 0.0
        tail = r > pts[-1]
        if tail.any():
            if math.isinf(self.tail_exponent) or v[-1] == 0.0:
                out[tail] = 0.0
            else:
                factor = (r[tail] / pts[-1]) ** (-self.tail_exponent)
                if self.tail_log_power != 0.0:
                    factor = factor * (np.log(r[tail]) / np.log(pts[-1])) ** self.tail_log_power
                out[tail] = v[-1] * factor
        return float(out[0]) if scalar else out

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_callable(cls, grid: RadialGrid, func, **models) -> "RadialFunction":
        return cls(grid, np.asarray([func(r) for r in grid.points], dtype=float), **models)

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

    # -- cumulative mass ---------------------------------------------------

    def _head_mass(self, n: int, x: np.ndarray) -> np.ndarray:
        """s_{n-1} * integral_0^x f r^{n-1} dr for x <= r_min."""
        v0, h = self.values[0], self.head_exponent
        if v0 == 0.0:
            return np.zeros_like(x)
        if h >= n:
            raise DivergentIntegralError(
                f"head exponent {h} >= n = {n}: mass near the origin diverges"
            )
        rm = self.grid.r_min
        return sphere_surface(n) * v0 * rm**h * x ** (n - h) / (n - h)

    @lru_cache(maxsize=4)
    def _mass_tables(self, n: int):
        """Closed-form cell masses and prefix sums for dimension n."""
        r = self.grid.points
        v = self.values
        ra, rb = r[:-1], r[1:]
        va, vb = v[:-1], v[1:]
        cells = self._cells
        power, m = cells["power"], cells["m"]
        cell = np.zeros(ra.size)
        expo = n - m
        near0 = np.abs(expo) < 1e-12
        safe = power & ~near0
        # telescoped power-cell integral: stable for arbitrarily steep cells
        cell[safe] = (vb[safe] * rb[safe] ** n - va[safe] * ra[safe] ** n) / expo[safe]
        logc = power & near0
        cell[logc] = va[logc] * ra[logc] ** n * np.log(rb[logc] / ra[logc])
        lin = ~power
        if lin.any():
            c1 = (vb[lin] - va[lin]) / (rb[lin] - ra[lin])
            c0 = va[lin] - c1 * ra[lin]
            cell[lin] = c0 * (rb[lin] ** n - ra[lin] ** n) / n + c1 * (
                rb[lin] ** (n + 1) - ra[lin] ** (n + 1)
            ) / (n + 1)
        s = sphere_surface(n)
        cell = s * cell
        head = float(self._head_mass(n, np.array([self.grid.r_min]))[0]) if v[0] > 0 else 0.0
        prefix = np.concatenate([[0.0], np.cumsum(cell)]) + head
        return {"cell": cell, "prefix": prefix, "m": m, "power": power}

    def _partial_cell_mass(self, n: int, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Mass of cell idx between its left edge and x (x inside the cell)."""
        r = self.grid.points
        v = self.values
        tables = self._mass_tables(n)
        ra = r[idx]
        va = v[idx]
        m = tables["m"][idx]
        power = tables["power"][idx]
        out = np.zeros_like(x)
        expo = n - m
        near0 = np.abs(expo) < 1e-12
        safe = power & ~near0
        if safe.any():
            fx = np.exp(np.log(va[safe]) - m[safe] * np.log(x[safe] / ra[safe]))
            out[safe] = (fx * x[safe] ** n - va[safe] * ra[safe] ** n) / expo[safe]
        logc = power & near0
        out[logc] = va[logc] * ra[logc] ** n * np.log(x[logc] / ra[logc])
        lin = ~power
        if lin.any():
            rb = r[idx[lin] + 1]
            vb = v[idx[lin] + 1]
            c1 = (vb - va[lin]) / (rb - ra[lin])
            c0 = va[lin] - c1 * ra[lin]
            out[lin] = c0 * (x[lin] ** n - ra[lin] ** n) / n + c1 * (
                x[lin] ** (n + 1) - ra[lin] ** (n + 1)
            ) / (n + 1)
        return sphere_surface(n) * out

    def _tail_mass_to(self, n: int, x: np.ndarray) -> np.ndarray:
        """Mass of the declared tail model between r_max and x (x >= r_max)."""
        vN, T, L = self.values[-1], self.tail_exponent, self.tail_log_power
        if vN == 0.0 or math.isinf(T):
            return np.zeros_like(x)
        rm = self.grid.r_max
        s = sphere_surface(n)
        a = n - T
        if L == 0.0:
            if abs(a) < 1e-12:
                return s * vN * rm**n * np.log(x / rm)
            return s * vN * rm**T * (x**a - rm**a) / a
        # tail model in lam = ln r: v_N r_max^T e^{a lam} (lam/lam0)^L, Gauss-Legendre
        lam0 = math.log(rm)
        lamx = np.log(x)
        nodes, wts = _leggauss01(32)
        width = lamx - lam0
        lam = lam0 + np.outer(width, nodes)
        integ = np.exp(a * lam) * (lam / lam0) ** L
        return s * vN * rm**T * (integ @ wts) * width

    def cumulative_mass(self, n: int, x) -> np.ndarray:
        """s_{n-1} * integral_0^x f(r) r^{n-1} dr, exact on the declared model."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < 0.0):
            raise ParameterError("cumulative mass requires x >= 0")
        pts = self.grid.points
        tables = self._mass_tables(n)
        out = np.empty_like(x)

        head = x <= pts[0]
        if head.any():
            out[head] = self._head_mass(n, x[head])
        tail = x >= pts[-1]
        if tail.any():
            out[tail] = tables["prefix"][-1] + self._tail_mass_to(n, x[tail])
        body = ~(head | tail)
        if body.any():
            xb = x[body]
            idx = np.clip(np.searchsorted(pts, xb, side="right") - 1, 0, pts.size - 2)
            out[body] = tables["prefix"][idx] + self._partial_cell_mass(n, idx, xb)
        return out

    def total_mass(self, n: int) -> NormValue:
        """Mass over all of R^n, or INFINITE when the tail makes it diverge."""
        T, L = self.tail_exponent, self.tail_log_power
        if self.values[-1] > 0.0 and not math.isinf(T):
            a = T - n
            if a < -BORDERLINE_TOL:
                return INFINITE
            if abs(a) <= BORDERLINE_TOL and L >= -1.0 - BORDERLINE_TOL:
                return INFINITE
        tables = self._mass_tables(n)
        body = float(tables["prefix"][-1])
        return body + self._tail_norm_integral(p=1.0, weight=0.0, n=n)

    # -- weighted Lp machinery ----------------------------------------------

    def _tail_norm_integral(self, p: float, weight: float, n: int) -> float:
        """integral_{r_max}^inf r^weight f(r)^p r^{n-1} dr times s_{n-1}, assumed convergent."""
        vN, T, L = self.values[-1], self.tail_exponent, self.tail_log_power
        if vN == 0.0 or math.isinf(T):
            return 0.0
        a = T * p - weight - n
        s = sphere_surface(n)
        rm = self.grid.r_max
        Lp = L * p
        if abs(a) <= BORDERLINE_TOL:
            # only reachable when Lp < -1: pure log integral
            lam0 = math.log(rm)
            return s * vN**p * rm ** (weight + n) * lam0 / (-Lp - 1.0)
        if Lp == 0.0:
            return s * vN**p * rm ** (weight + n) / a
        lam0 = math.log(rm)
        x, w = _laggauss(96)
        phi = ((lam0 + x / a) / lam0) ** Lp
        return s * vN**p * rm ** (weight + n) / a * float(np.dot(w, phi))


def lp_norm(f: RadialFunction, p: float, weight_exponent: float = 0.0, n: int = 3) -> NormValue:
    """Weighted norm (s_{n-1} int_0^inf r^w f(r)^p r^{n-1} dr)^{1/p}.

    Head and tail contributions come from the declared power-law models, so
    finiteness is decided exactly by exponent arithmetic; divergent integrals
    return the symbolic INFINITE.
    """
    if p < 1.0:
        raise ParameterError(f"norm exponent p must be >= 1, got {p}")
    w = weight_exponent
    v0, h = f.values[0], f.head_exponent
    vN, T, L = f.values[-1], f.tail_exponent, f.tail_log_power

    if w <= -n and v0 > 0.0 and h >= 0.0:
        raise ParameterError(
            f"weight exponent {w} <= -n gives a non-integrable singularity at the origin"
        )
    # head convergence: w + n - h*p > 0 required when the head does not vanish
    if v0 > 0.0:
        head_margin = w + n - h * p
        if head_margin <= BORDERLINE_TOL:
            return INFINITE
    # tail convergence: T*p - w - n > 0, or borderline with strong log decay
    if vN > 0.0 and not math.isinf(T):
        a = T * p - w - n
        if a < -BORDERLINE_TOL:
            return INFINITE
        if abs(a) <= BORDERLINE_TOL and L * p >= -1.0 - BORDERLINE_TOL:
            return INFINITE

    s = sphere_surface(n)
    total = 0.0
    if v0 > 0.0:
        rm = f.grid.r_min
        total += s * v0**p * rm ** (w + n) / (w + n - h * p)
    total += _body_norm_integral(f, p, w, n)
    total += f._tail_norm_integral(p, w, n)
    return total ** (1.0 / p)


def _body_norm_integral(f: RadialFunction, p: float, w: float, n: int) -> float:
    """s_{n-1} int_{r_min}^{r_max} r^w f^p r^{n-1} dr with closed-form power cells."""
    r = f.grid.points
    v = f.values
    cells = f._cells
    power, m = cells["power"], cells["m"]
    ra, rb = r[:-1], r[1:]
    va, vb = v[:-1], v[1:]
    total = np.zeros(ra.size)
    expo = w + n - m * p
    near0 = np.abs(expo) < 1e-12
    safe = power & ~near0
    # telescoped form of the power-cell integral, stable for steep cells
    total[safe] = (
        vb[safe] ** p * rb[safe] ** (w + n) - va[safe] ** p * ra[safe] ** (w + n)
    ) / expo[safe]
    logc = power & near0
    total[logc] = va[logc] ** p * ra[logc] ** (w + n) * np.log(rb[logc] / ra[logc])
    lin = ~power
    if lin.any():
        # vanishing endpoint: integrate (linear interp)^p numerically in ln r
        nodes, wts = _leggauss01(16)
        idxs = np.nonzero(lin)[0]
        for k in idxs:
            if va[k] == 0.0 and vb[k] == 0.0:
                continue
            la, lb = math.log(ra[k]), math.log(rb[k])
            lam = la + (lb - la) * nodes
            rr = np.exp(lam)
            frac = (rr - ra[k]) / (rb[k] - ra[k])
            fv = va[k] + (vb[k] - va[k]) * frac
            total[k] = (lb - la) * float(np.dot(wts, fv**p * rr ** (w + n)))
    return sphere_surface(n) * float(np.sum(total))


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
