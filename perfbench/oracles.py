"""Reference computations that share no code with wolffkit.

Every function here works from a profile's public data (grid radii, values
and declared head/tail models) and from numpy/scipy only.  The profile is
evaluated by this module's own interpolant, which follows the documented
profile model: linear in (ln r, ln f) between nodes, linear in r on cells
with a vanishing endpoint, and the declared power laws outside the grid.

- ``shell_potential``: the Riesz potential of order 2 by Newton's shell
  theorem, I_2 f(rho) = s_{n-1} [rho^{2-n} int_0^rho f r^{n-1} dr
  + int_rho^inf f r dr], by one-dimensional quadrature.  For gamma = 2 the
  Wolff potential is W_{1,2} f = I_2 f / (n - 2).
- ``spherical_mean_riesz``: I_alpha f(rho) = s_{n-1} int f r^{n-1}
  max^{alpha-n} 2F1(a, a - n/2 + 1; n/2; (min/max)^2) dr with
  a = (n - alpha)/2, the spherical mean of |x - y|^{alpha - n}.
- ``critical_bubble_n3``: the exact ground state (1 + r^2/3)^{-1/2} of
  -Delta u = u^5 in R^3.
- ``fast_decay_rates``: the fast-decay trichotomy's tail exponents.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import hyp2f1

_GL_NODES = 12
_GRADING_LEVELS = 48  # geometric refinement toward the kernel's cusp at r = rho
_TAIL_DECAY = 45.0  # stop a tail integral where the integrand fell by e^-45


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _gauss01(m: int = _GL_NODES):
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


class Profile:
    """Independent evaluator of a tailed log-grid radial profile."""

    def __init__(self, r, values, head_exponent=0.0, tail_exponent=math.inf, tail_log_power=0.0):
        self.r = np.asarray(r, dtype=float)
        self.v = np.asarray(values, dtype=float)
        self.head = float(head_exponent)
        self.tail = float(tail_exponent)
        self.log_power = float(tail_log_power)

    @classmethod
    def of(cls, f) -> "Profile":
        """Read a wolffkit RadialFunction through its public attributes only."""
        return cls(f.grid.points, f.values, f.head_exponent, f.tail_exponent, f.tail_log_power)

    def powered(self, sigma: float, power: float) -> "Profile":
        """r^sigma f(r)^power, the source profile of one equation of the system."""
        tail = math.inf if math.isinf(self.tail) else power * self.tail - sigma
        return Profile(
            self.r,
            self.r**sigma * self.v**power,
            power * self.head - sigma,
            tail,
            power * self.log_power,
        )

    @property
    def tail_vanishes(self) -> bool:
        return math.isinf(self.tail) or self.v[-1] == 0.0

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r, v = self.r, self.v
        out = np.zeros_like(x)
        head = x < r[0]
        if v[0] > 0.0:
            out[head] = v[0] * (x[head] / r[0]) ** (-self.head)
        tail = x > r[-1]
        if not self.tail_vanishes:
            xt = x[tail]
            factor = (xt / r[-1]) ** (-self.tail)
            if self.log_power != 0.0:
                factor = factor * (np.log(xt) / math.log(r[-1])) ** self.log_power
            out[tail] = v[-1] * factor
        body = ~(head | tail)
        xb = x[body]
        k = np.clip(np.searchsorted(r, xb, side="right") - 1, 0, r.size - 2)
        ra, rb, va, vb = r[k], r[k + 1], v[k], v[k + 1]
        frac = (xb - ra) / (rb - ra)
        positive = (va > 0.0) & (vb > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            loglin = np.exp(np.log(va) + np.log(vb / va) * np.log(xb / ra) / np.log(rb / ra))
        out[body] = np.where(positive, loglin, va + (vb - va) * frac)
        return out


def _pieces_in_r(edges: np.ndarray):
    """Gauss-Legendre nodes and weights in r on consecutive [edges[i], edges[i+1]]."""
    x, w = _gauss01()
    a, b = edges[:-1, None], edges[1:, None]
    return a + (b - a) * x, (b - a) * w


def _tail_nodes(start: float, decay_rate: float):
    """Nodes in s = ln r on [ln start, ln start + 45/decay_rate], panels of width <= 0.25."""
    s0 = math.log(start)
    span = _TAIL_DECAY / decay_rate
    count = max(8, int(math.ceil(span / 0.25)))
    edges = np.linspace(s0, s0 + span, count + 1)
    x, w = _gauss01()
    a, b = edges[:-1, None], edges[1:, None]
    s = (a + (b - a) * x).ravel()
    return np.exp(s), ((b - a) * w).ravel()


def shell_potential(prof: Profile, n: int, rho) -> np.ndarray:
    """Newton's shell theorem for I_2 f at radii inside the profile's grid."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho < prof.r[0]) or np.any(rho > prof.r[-1]):
        raise ValueError("shell_potential evaluates inside the profile's grid only")
    edges = np.unique(np.concatenate([prof.r, rho]))
    nodes, wts = _pieces_in_r(edges)
    f = prof(nodes)
    inner_pieces = (f * nodes ** (n - 1) * wts).sum(axis=1)
    outer_pieces = (f * nodes * wts).sum(axis=1)
    inner_at = np.concatenate([[0.0], np.cumsum(inner_pieces)])
    outer_at = np.concatenate([np.cumsum(outer_pieces[::-1])[::-1], [0.0]])

    head_mass = 0.0
    if prof.v[0] > 0.0:
        if prof.head >= n:
            raise ValueError("head exponent makes the mass near the origin diverge")
        head_mass = prof.v[0] * prof.r[0] ** n / (n - prof.head)
    tail_first = 0.0
    if not prof.tail_vanishes:
        if prof.tail <= 2.0:
            raise ValueError("tail exponent <= 2: the Newtonian potential diverges")
        r_t, w_t = _tail_nodes(prof.r[-1], prof.tail - 2.0)
        tail_first = float(np.dot(prof(r_t) * r_t**2, w_t))

    idx = np.searchsorted(edges, rho)
    inner = head_mass + inner_at[idx]
    outer = outer_at[idx] + tail_first
    return sphere_area(n) * (rho ** (2 - n) * inner + outer)


def _hyp2f1(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """Gauss 2F1 on [0, 1], by the 1 - z connection formula (A&S 15.3.6) for z > 1/2.

    scipy's direct evaluation is slow as z -> 1; the connection formula needs
    c - a - b off the integers, and the direct series is used otherwise.
    """
    e = c - a - b
    if abs(e - round(e)) < 1e-9:
        return hyp2f1(a, b, c, z)
    out = np.empty_like(z)
    near = z > 0.5
    out[~near] = hyp2f1(a, b, c, z[~near])
    w = 1.0 - z[near]
    g = math.gamma
    first = g(c) * g(e) / (g(c - a) * g(c - b)) * hyp2f1(a, b, 1.0 - e, w)
    second = g(c) * g(-e) / (g(a) * g(b)) * w**e * hyp2f1(c - a, c - b, 1.0 + e, w)
    out[near] = first + second
    return out


def _spherical_kernel(n: int, alpha: float, rho: float, r: np.ndarray) -> np.ndarray:
    big = np.maximum(rho, r)
    small = np.minimum(rho, r)
    a = 0.5 * (n - alpha)
    return big ** (alpha - n) * _hyp2f1(a, a - 0.5 * n + 1.0, 0.5 * n, (small / big) ** 2)


def spherical_mean_riesz(prof: Profile, n: int, alpha: float, rho) -> np.ndarray:
    """I_alpha f by the 2F1 spherical mean, at radii inside the profile's grid.

    The kernel has a cusp of order |r - rho|^{alpha-1} at r = rho (a log
    singularity at alpha = 1); the two pieces touching rho are refined
    geometrically toward it, which keeps Gauss-Legendre exponentially
    convergent on every subpiece.
    """
    if not 0.0 < alpha < n:
        raise ValueError("alpha must lie in (0, n)")
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho < prof.r[0]) or np.any(rho > prof.r[-1]):
        raise ValueError("spherical_mean_riesz evaluates inside the profile's grid only")
    x, w = _gauss01()
    ladder = 0.5 ** np.arange(_GRADING_LEVELS + 1)
    out = np.empty(rho.size)

    head_r = head_w = None
    if prof.v[0] > 0.0:
        if prof.head >= n:
            raise ValueError("head exponent makes the mass near the origin diverge")
        # below r_min f r^n ~ e^{(n - head) s} in s = ln r: the tail rule above
        # r_min, mirrored through r_min
        r_up, s_w = _tail_nodes(prof.r[0], n - prof.head)
        head_r = prof.r[0] ** 2 / r_up
        head_w = s_w * head_r
    tail_r = tail_w = None
    if not prof.tail_vanishes:
        if prof.tail <= alpha:
            raise ValueError("tail exponent <= alpha: the Riesz potential diverges")
        tail_r, tail_w = _tail_nodes(prof.r[-1], prof.tail - alpha)
        tail_w = tail_w * tail_r

    for i, p in enumerate(rho):
        edges = np.unique(np.concatenate([prof.r, [p]]))
        k = int(np.searchsorted(edges, p))
        plain = np.ones(edges.size - 1, dtype=bool)
        parts_r, parts_w = [], []
        for j in (k - 1, k):  # the pieces [edges[k-1], rho] and [rho, edges[k+1]]
            if 0 <= j < edges.size - 1:
                plain[j] = False
                lo, hi = edges[j], edges[j + 1]
                if j == k - 1:
                    cuts = np.append(hi - (hi - lo) * ladder, hi)
                else:
                    cuts = np.insert((lo + (hi - lo) * ladder)[::-1], 0, lo)
                rr, ww = _pieces_in_r(cuts)
                parts_r.append(rr.ravel())
                parts_w.append(ww.ravel())
        a, b = edges[:-1][plain, None], edges[1:][plain, None]
        parts_r.append((a + (b - a) * x).ravel())
        parts_w.append(((b - a) * w).ravel())
        if head_r is not None:
            parts_r.append(head_r)
            parts_w.append(head_w)
        if tail_r is not None:
            parts_r.append(tail_r)
            parts_w.append(tail_w)
        r_all = np.concatenate(parts_r)
        w_all = np.concatenate(parts_w)
        integrand = prof(r_all) * r_all ** (n - 1) * _spherical_kernel(n, alpha, p, r_all)
        out[i] = float(np.dot(integrand, w_all))
    return sphere_area(n) * out


def critical_bubble_n3(r) -> np.ndarray:
    """Exact positive solution of -Delta u = u^5 in R^3 with u(0) = 1."""
    r = np.asarray(r, dtype=float)
    return (1.0 + r**2 / 3.0) ** -0.5


def fast_decay_rates(params) -> tuple[float, float, float]:
    """Tail exponents (u, v) and v's log power of a fast-decaying ground state.

    u decays like r^{-(n - beta gamma)/(gamma - 1)}.  With that rate, v's
    source r^{sigma2} u^p decays like r^{-T}, T = p (n - beta gamma)/(gamma - 1)
    - sigma2: T > n gives v the same rate, T = n the same rate times
    (ln r)^{1/(gamma - 1)}, and T < n the rate (T - beta gamma)/(gamma - 1).
    Needs the ordering q >= p, sigma1 <= sigma2.
    """
    if params.q < params.p or params.sigma1 > params.sigma2:
        raise ValueError("the trichotomy is stated for q >= p and sigma1 <= sigma2")
    bg, g = params.beta * params.gamma, params.gamma - 1.0
    fast = (params.n - bg) / g
    source_tail = params.p * fast - params.sigma2
    if abs(source_tail - params.n) <= 1e-9:
        return fast, fast, 1.0 / g
    if source_tail > params.n:
        return fast, fast, 0.0
    return fast, (source_tail - bg) / g, 0.0


def max_relative_error(measured, reference) -> float:
    measured = np.asarray(measured, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(measured / reference - 1.0)))
