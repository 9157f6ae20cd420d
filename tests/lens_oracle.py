"""Ball masses and the Wolff potential of the unit-ball indicator, computed
apart from wolffkit.

The mass of a radial density f over B_t(x), |x| = rho, is
s_{n-1} int_0^inf f(r) r^{n-1} c(rho, t, r) dr, where c is the fraction of the
sphere of radius r inside the ball: 1 for r <= t - rho, 0 outside
|t - rho| < r < t + rho, and in between the normalized measure of a polar cap,
(1/2) I_{sin^2 theta}((n-1)/2, 1/2) or one minus it, with
cos theta = (rho^2 + r^2 - t^2) / (2 rho r).  ball_mass integrates it by
adaptive quadrature, split at the profile's grid points (the kinks of its
interpolant) and at both shell edges; the profile is any callable with the
grid radii in ``r``, such as the benchmark's ``oracles.Profile``.

The inner mass of the indicator over B_t(x), |x| = rho, is the lens volume
|B_1 ∩ B_t(x)|: the two caps cut off by the radical hyperplane, each the
normalized incomplete beta function of its ball (cap of height h in a ball of
radius R: (1/2) omega_n R^n I_{1 - (R-h)^2/R^2}((n+1)/2, 1/2)).  The outer
integral runs by adaptive quadrature over [|1 - rho|, 1 + rho], split at rho;
below |1 - rho| (a ball inside B_1, or outside it) and above 1 + rho (B_1
inside the ball) the inner mass is a monomial and the pieces are closed forms.
Nothing here imports wolffkit.
"""

from __future__ import annotations

import math

from scipy.integrate import quad
from scipy.special import betainc


def ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def cap_fraction(n: int, rho: float, t: float, r: float) -> float:
    """Fraction of the sphere of radius r about 0 inside B_t(x), |x| = rho > 0."""
    if r <= t - rho:
        return 1.0
    if r >= t + rho or r <= rho - t:
        return 0.0
    cos = (rho**2 + r**2 - t**2) / (2.0 * rho * r)
    half = 0.5 * betainc((n - 1) / 2.0, 0.5, max(0.0, 1.0 - cos**2))
    return half if cos >= 0.0 else 1.0 - half


def ball_mass(profile, n: int, rho: float, t: float) -> float:
    """s_{n-1} int_0^inf f(r) r^{n-1} c(rho, t, r) dr by adaptive quad."""
    knots = profile.r

    def integral(g, a, b):
        inner = knots[(knots > a) & (knots < b)]
        return quad(g, a, b, points=inner, epsabs=0.0, epsrel=1e-12, limit=100 + 2 * inner.size)[0]

    def density(r):
        return float(profile(r)) * r ** (n - 1)

    covered = integral(density, 0.0, t - rho) if t > rho else 0.0
    shell = integral(lambda r: density(r) * cap_fraction(n, rho, t, r), abs(t - rho), t + rho)
    surface = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return surface * (covered + shell)


def _cap_volume(n: int, radius: float, c: float) -> float:
    """Volume of the part of a ball of the given radius beyond a hyperplane
    at signed distance c from its centre."""
    if c < 0.0:
        return ball_volume(n) * radius**n - _cap_volume(n, radius, -c)
    x = max(0.0, 1.0 - (c / radius) ** 2)
    return 0.5 * ball_volume(n) * radius**n * betainc((n + 1) / 2.0, 0.5, x)


def lens_volume(n: int, rho: float, t: float) -> float:
    """|B_1(0) ∩ B_t(x)| with |x| = rho."""
    if rho >= 1.0 + t:
        return 0.0
    if rho <= abs(1.0 - t):
        return ball_volume(n) * min(1.0, t) ** n
    c1 = (rho**2 + 1.0 - t**2) / (2.0 * rho)  # from 0 to the radical plane
    return _cap_volume(n, 1.0, c1) + _cap_volume(n, t, rho - c1)


def wolff_unit_ball(n: int, beta: float, gamma: float, rho: float) -> float:
    """int_0^inf (t^{beta gamma - n} |B_1 ∩ B_t(x)|)^{1/(gamma-1)} dt/t."""
    g = gamma - 1.0
    bg = beta * gamma
    omega = ball_volume(n) ** (1.0 / g)
    lo, hi = abs(1.0 - rho), 1.0 + rho
    # t < |1 - rho|: B_t(x) inside B_1 (rho < 1) or apart from it (rho > 1)
    total = omega * lo ** (bg / g) * g / bg if rho < 1.0 else 0.0
    # t > 1 + rho: B_1 inside B_t(x)
    total += omega * hi ** (-(n - bg) / g) * g / (n - bg)

    def integrand(t):
        return (t ** (bg - n) * lens_volume(n, rho, t)) ** (1.0 / g) / t

    cuts = [lo, rho, hi] if lo < rho < hi else [lo, hi]
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return total
