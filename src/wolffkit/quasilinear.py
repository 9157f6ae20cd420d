"""Radial shooting for the weighted gamma-Laplace system.

The system

    -div(|grad u|^{gamma-2} grad u) = c1(x) |x|^{sigma1} v^q
    -div(|grad v|^{gamma-2} grad v) = c2(x) |x|^{sigma2} u^p

reduces, for radial profiles, to the flux form

    m_u' = -r^{n-1+sigma1} v^q,     u' = -(-m_u r^{1-n})^{1/(gamma-1)},

with m_u = r^{n-1}|u'|^{gamma-2}u' < 0 (and symmetrically for v).  The
integration unknowns are u, v and the logarithms of the fluxes,
ln(-m_u) and ln(-m_v), in s = ln r, after a regular series start
u(r) = u(0) - O(r^{(gamma+sigma1)/(gamma-1)}) on [0, r0].  Flux unknowns
avoid differentiating |u'|^{gamma-2}u' where u' vanishes.  Their logarithms
make the head's power law m_u ~ -r^{n+sigma1} linear in s, which a DOP853
step integrates exactly, so the steps there resolve only u's and v's small
corrections: a separatrix search takes about half the accepted steps that
the fluxes themselves took.

Ground states are captured as a separatrix in v(0): trajectories are
classified by which component first hits zero (or by surviving to r_stop
with a slow tail), and the separatrix between two different outcome classes
carries the fast-decay profile.  Off the separatrix a shot's relative
deviation grows like r^k, k = (n - gamma)/(gamma - 1), so the radius r_hit at
which a component hits zero measures the distance to it: the signed misfit
-+ r_hit^{-k} is close to linear in v(0) - b_star, and Brent's method finds
its sign change in far fewer shots than bisection on the class alone.  The
tightest sign change of the class that Brent's shots found is then bisected
down to adjacent doubles.

Every shot runs on one engine, _dop853: Hairer's DOP853 (Hairer, Norsett &
Wanner, Solving Ordinary Differential Equations I, 2nd ed., 1993, II.10),
written out in Python floats on the four unknowns, with the settings of
Hairer's code (HINIT's first step, SAFE = 0.9, beta = 0) and step-factor
limits FAC1 = 0.2, FAC2 = 10, at the relative tolerance RTOL.  Its stages
and error control are Hairer's operation for operation: until a step is
rejected it takes scipy's compiled DOP853's steps bit for bit.  A rejected
step shrinks by the error's own factor, as in Hairer's code, where scipy
1.17 shrinks it fivefold, so later steps differ.  It steps freely to r_stop;
each accepted step end is recorded, and the first one where u or v <= 0 ends
the steps.  The zero is then rooted by side integrations from the last
positive step end, with _brentq, scipy's brentq (Brent, Algorithms for
Minimization without Derivatives, 1973) ported line for line.  That is the
integration (_integrate): it gives the shot's event, reach and accepted
steps, which is all the search reads to classify it.  The sampling (_sample)
comes after it, from the steps it kept: each sample point is a side
integration from the step end before it, tried as one DOP853 step since its
span lies within an accepted step.  Side integrations never change the step
sequence, so shoot(), which integrates and then samples, and the search,
which classifies its shots and samples only the farthest one from that
shot's own steps, integrate every shot once and read the same steps, event
and reach bit for bit.  A shot keeps all its state in its own _Shot, so
shots in several threads need no lock, and the module imports nothing beyond
numpy.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import NoBracketError, ParameterError
from .params import Parameters, classify_regime, exponents
from .radial import RadialFunction, RadialGrid, fit_decay_rate
from .solver import SolveResult

R_START = 1e-4  # end of the series start; integration begins here
# chosen by measurement; on ln(-m) a relative tolerance is |ln(-m)| times
# looser on m (up to 48 times at R_START).  Per RTOL: the exact n = 3
# bubble's error to r = 1e6 (the benchmark's figure; 4.76e-10 on scipy's
# DOP853 at 1e-13), the accepted steps of the FastFast / Logarithmic /
# Intermediate searches to r = 1e6, and the Hardy-weight exact family's
# worst error at r_stop = 1e4 (tested to 1e-6):
#   5e-14    4.0e-11   3,198 / 3,274 / 4,315   1.1e-7
#   7e-14    1.5e-10   3,081 / 3,142 / 4,129   1.3e-7
#   1e-13    1.9e-10   3,138 / 3,002 / 3,965   1.9e-7
#   1.5e-13  3.4e-10   2,993 / 3,079 / 3,748   2.7e-7
#   2e-13    1.3e-10   2,668 / 2,737 / 3,857   2.4e-7
#   3e-13    1.1e-9    2,544 / 2,592 / 3,434   5.6e-7
# The bubble error scatters up to tenfold between neighbouring tolerances:
# over 25 tolerances from 5e-14 to 1.05e-13 it stays at or below 2.3e-10,
# from 1.2e-13 up it reads 2.9e-10 to 1.5e-9
RTOL = 1e-13
ATOL = 1e-300
MAX_STEPS = 100_000  # DOP853's cap on the attempted steps of one integration
# Hairer's step-size control: the new step is h * SAFE / err^(1/8), kept
# within FAC1 <= h_new / h <= FAC2; UROUND is his unit roundoff
SAFE, FAC1, FAC2, UROUND = 0.9, 0.2, 10.0, 2.3e-16
SAMPLES_PER_DECADE = 24
EVENT_TOL = 4.0 * np.finfo(float).eps  # Brent's tolerances for event roots
EVENT_ITERATIONS = 100  # brentq's default cap
# the separatrix search: Brent's iterations and the bisection's steps stop at
# MAX_SHOTS each, and each classifies at most one new shot; bisection takes a
# bracket of ratio 1e4 to adjacent doubles in about 55 steps, Brent's in 3-4
MAX_SHOTS = 60
# Brent's tolerance in ln v(0) (16 ulps at v(0) in [1, 2)); the bisection
# then takes its bracket the last few steps
SEPARATRIX_BAND = 2.0**-48
MISFIT_LOG_CAP = 700.0  # |ln| of the misfit stays below this: finite and non-zero
# fraction of the reached radius still free of separatrix peel-off; a
# separatrix resolved to adjacent doubles of v(0) keeps roughly the first
# tenth clean
CLEAN_FRACTION = 0.1

# DOP853's tableau as dop853.f gives it: the nodes c2..c11 (c1 = 0, c12 = 1),
# each stage's non-zero weights a_ij, the eighth-order weights b_j
# (j = 1, 6..12), and the weights of the two error estimates: bhh_j
# (j = 1, 9, 12) for the third-order one and er_j (j = 1, 6..12) for the
# fifth-order one
_C = (
    0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
)
_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
     -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_B = (
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
_BHH = (
    0.244094488188976377952755905512, 0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
)
_ER = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)


def _check_r_stop(name: str, r_stop: float) -> None:
    if not R_START < r_stop < math.inf:
        raise ParameterError(
            f"{name} must be finite and above R_START = {R_START}, got {r_stop!r}"
        )


@dataclass(frozen=True)
class ShootConfig:
    r_stop: float = 1e4

    def __post_init__(self):
        _check_r_stop("r_stop", self.r_stop)


@dataclass(frozen=True)
class Trajectory:
    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    flux_u: np.ndarray
    flux_v: np.ndarray
    event: Optional[tuple[str, float]]  # ("u"|"v", radius) when a component hit zero
    steps: int  # accepted DOP853 steps

    @property
    def hit_zero(self) -> bool:
        return self.event is not None

    @property
    def r_reached(self) -> float:
        return float(self.r[-1])


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use.

    The shooter does not call it.  It is kept under this name because the
    benchmark's tracer (perfbench/spans.py) wraps quasilinear.solve_ivp and
    quasilinear.shoot by name, and raises AttributeError if either is gone.
    """
    from scipy.integrate import solve_ivp as _solve_ivp

    return _solve_ivp(*args, **kwargs)


def _rhs(params: Parameters):
    """The right-hand side in s = ln r for (u, v, ln(-m_u), ln(-m_v)), on Python floats.

    du/ds = r u' = -exp((ln(-m_u) + (gamma - n) s)/(gamma - 1)), and
    d ln(-m_u)/ds = exp((n + sigma1) s - ln(-m_u)) v^q for v > 0, else 0
    (and the same for v).  Near the origin ln(-m_u) is linear in s, so a
    step integrates it exactly, and the 1/(gamma - 1) power is taken of one
    exponent, which stays in the float range for gamma near 1.  The
    function takes s and the four unknowns and returns their four slopes.
    """
    inv = 1.0 / (params.gamma - 1.0)
    gamma_n = params.gamma - params.n
    k_u, k_v = params.n + params.sigma1, params.n + params.sigma2
    p, q = params.p, params.q
    exp = math.exp

    def rhs(s, u, v, lu, lv):
        return (
            -exp((lu + gamma_n * s) * inv),
            -exp((lv + gamma_n * s) * inv),
            exp(k_u * s - lu) * v**q if v > 0.0 else 0.0,
            exp(k_v * s - lv) * u**p if u > 0.0 else 0.0,
        )

    return rhs


def _start(params: Parameters, a: float, b: float, r_stop: float):
    """The series start y0 at R_START and the sample points s_eval (s = ln r) to r_stop.

    y0 = (u, v, ln(-m_u), ln(-m_v)) is the regular expansion at the origin
    through the first correction order.  The fluxes start from their
    logarithms, ln(-m_u) = q ln b + (n + sigma1) ln R_START - ln(n + sigma1),
    so they cannot underflow to 0; u's correction u(0) - u(R_START) is
    (gamma - 1)/(gamma + sigma1) times -r u' there (and the same for v).
    Raises ParameterError where u(0) = a or v(0) = b is too large for the
    expansion's powers in floating point.
    """
    if abs(params.beta - 1.0) > 1e-12:
        raise ParameterError(f"shooting requires beta = 1, got beta = {params.beta}")
    if a <= 0.0 or b <= 0.0:
        raise ParameterError("initial values u(0), v(0) must be positive")
    n, g, s0 = params.n, params.gamma - 1.0, math.log(R_START)
    lu = params.q * math.log(b) + (n + params.sigma1) * s0 - math.log(n + params.sigma1)
    lv = params.p * math.log(a) + (n + params.sigma2) * s0 - math.log(n + params.sigma2)
    try:
        du, dv, _, _ = _rhs(params)(s0, a, b, lu, lv)
        y0 = (
            a + g / (params.gamma + params.sigma1) * du,
            b + g / (params.gamma + params.sigma2) * dv,
            lu,
            lv,
        )
    except OverflowError:
        y0 = (math.nan,) * 4
    if not all(map(math.isfinite, y0)):
        raise ParameterError(
            f"series start out of floating-point range at u(0) = {a!r}, v(0) = {b!r}: "
            "u(0)^p, v(0)^q and their 1/(gamma - 1) powers must stay finite"
        )
    decades = (math.log(r_stop) - s0) / math.log(10.0)
    return y0, np.linspace(s0, math.log(r_stop), max(32, int(decades * SAMPLES_PER_DECADE)))


def _dop853(f, origin: float, t: float, y: tuple, t_end: float, h: float, steps=None):
    """Hairer's DOP853 for the slopes f(origin + t, u, v, lu, lv) from (t, y) to t_end > t.

    dop853.f (Hairer, Norsett & Wanner, II.10) operation for operation on the
    four unknowns, in Python floats: the twelve stages, the eighth-order
    solution, the error estimate that blends the fifth- and third-order
    estimators, and the step control with SAFE, FAC1, FAC2 and beta = 0; the
    step after a rejection does not grow.  h = 0 picks the first step
    as Hairer's HINIT does; steps are at most t_end - t long.  Stiffness
    detection, a diagnostic, is left out.  `steps`, a pair of array("d"), gets
    s = origin + t and y at the start and at each accepted step end, and the
    integration stops at the first step end where u or v <= 0.

    Returns y at the end and the right-hand-side calls made.  Raises
    ParameterError after more than MAX_STEPS attempted steps or where the
    step falls below the unit roundoff of t.
    """
    c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = _C
    (
        (a21,), (a31, a32), (a41, a43), (a51, a53, a54), (a61, a64, a65), (a71, a74, a75, a76),
        (a81, a84, a85, a86, a87), (a91, a94, a95, a96, a97, a98),
        (a101, a104, a105, a106, a107, a108, a109),
        (a111, a114, a115, a116, a117, a118, a119, a1110),
        (a121, a124, a125, a126, a127, a128, a129, a1210, a1211),
    ) = _A
    b1, b6, b7, b8, b9, b10, b11, b12 = _B
    bhh1, bhh2, bhh3 = _BHH
    er1, er6, er7, er8, er9, er10, er11, er12 = _ER
    rtol, atol, safe, facc1, facc2 = RTOL, ATOL, SAFE, 1.0 / FAC1, 1.0 / FAC2
    sqrt, o = math.sqrt, origin
    u, v, lu, lv = y
    if steps is not None:
        steps[0].append(o + t)
        steps[1].extend(y)
    du1, dv1, dlu1, dlv1 = f(o + t, u, v, lu, lv)
    calls = 1
    h_max = t_end - t
    if h == 0.0:
        # HINIT: an explicit Euler step of 1 % of |y| / |y'|, then the step
        # whose eighth power times the larger of |y'| and |y''| is 0.01
        sku, skv = atol + rtol * abs(u), atol + rtol * abs(v)
        sklu, sklv = atol + rtol * abs(lu), atol + rtol * abs(lv)
        fu, fv, flu, flv = du1 / sku, dv1 / skv, dlu1 / sklu, dlv1 / sklv
        dnf = fu * fu + fv * fv + flu * flu + flv * flv
        yu, yv, ylu, ylv = u / sku, v / skv, lu / sklu, lv / sklv
        dny = yu * yu + yv * yv + ylu * ylu + ylv * ylv
        h = 1e-6 if dnf <= 1e-10 or dny <= 1e-10 else sqrt(dny / dnf) * 0.01
        h = min(h, h_max)
        du2, dv2, dlu2, dlv2 = f(
            o + (t + h), u + h * du1, v + h * dv1, lu + h * dlu1, lv + h * dlv1
        )
        calls += 1
        fu, fv = (du2 - du1) / sku, (dv2 - dv1) / skv
        flu, flv = (dlu2 - dlu1) / sklu, (dlv2 - dlv1) / sklv
        # an unknown at exactly 0 has the scale atol, so dnf overflows and
        # h = 0: Hairer's code divides to der2 = inf, which gives h = 0 and
        # "step size too small" below
        der2 = sqrt(fu * fu + fv * fv + flu * flu + flv * flv) / h if h else math.inf
        der12 = max(abs(der2), sqrt(dnf))
        h1 = max(1e-6, abs(h) * 1e-3) if der12 <= 1e-15 else (0.01 / der12) ** 0.125
        h = min(100 * abs(h), h1, h_max)
    attempts, last, rejected = 0, False, False
    while True:
        if attempts > MAX_STEPS:
            raise ParameterError(
                f"integration failed: more than MAX_STEPS = {MAX_STEPS} steps "
                f"at r = {math.exp(o + t):.6g}"
            )
        if 0.1 * abs(h) <= abs(t) * UROUND:
            raise ParameterError(
                f"integration failed: step size too small at r = {math.exp(o + t):.6g}"
            )
        if t + 1.01 * h - t_end > 0.0:
            h = t_end - t
            last = True
        attempts += 1
        du2, dv2, dlu2, dlv2 = f(
            o + (t + c2 * h),
            u + h * a21 * du1,
            v + h * a21 * dv1,
            lu + h * a21 * dlu1,
            lv + h * a21 * dlv1,
        )
        du3, dv3, dlu3, dlv3 = f(
            o + (t + c3 * h),
            u + h * (a31 * du1 + a32 * du2),
            v + h * (a31 * dv1 + a32 * dv2),
            lu + h * (a31 * dlu1 + a32 * dlu2),
            lv + h * (a31 * dlv1 + a32 * dlv2),
        )
        du4, dv4, dlu4, dlv4 = f(
            o + (t + c4 * h),
            u + h * (a41 * du1 + a43 * du3),
            v + h * (a41 * dv1 + a43 * dv3),
            lu + h * (a41 * dlu1 + a43 * dlu3),
            lv + h * (a41 * dlv1 + a43 * dlv3),
        )
        du5, dv5, dlu5, dlv5 = f(
            o + (t + c5 * h),
            u + h * (a51 * du1 + a53 * du3 + a54 * du4),
            v + h * (a51 * dv1 + a53 * dv3 + a54 * dv4),
            lu + h * (a51 * dlu1 + a53 * dlu3 + a54 * dlu4),
            lv + h * (a51 * dlv1 + a53 * dlv3 + a54 * dlv4),
        )
        du6, dv6, dlu6, dlv6 = f(
            o + (t + c6 * h),
            u + h * (a61 * du1 + a64 * du4 + a65 * du5),
            v + h * (a61 * dv1 + a64 * dv4 + a65 * dv5),
            lu + h * (a61 * dlu1 + a64 * dlu4 + a65 * dlu5),
            lv + h * (a61 * dlv1 + a64 * dlv4 + a65 * dlv5),
        )
        du7, dv7, dlu7, dlv7 = f(
            o + (t + c7 * h),
            u + h * (a71 * du1 + a74 * du4 + a75 * du5 + a76 * du6),
            v + h * (a71 * dv1 + a74 * dv4 + a75 * dv5 + a76 * dv6),
            lu + h * (a71 * dlu1 + a74 * dlu4 + a75 * dlu5 + a76 * dlu6),
            lv + h * (a71 * dlv1 + a74 * dlv4 + a75 * dlv5 + a76 * dlv6),
        )
        du8, dv8, dlu8, dlv8 = f(
            o + (t + c8 * h),
            u + h * (a81 * du1 + a84 * du4 + a85 * du5 + a86 * du6 + a87 * du7),
            v + h * (a81 * dv1 + a84 * dv4 + a85 * dv5 + a86 * dv6 + a87 * dv7),
            lu + h * (a81 * dlu1 + a84 * dlu4 + a85 * dlu5 + a86 * dlu6 + a87 * dlu7),
            lv + h * (a81 * dlv1 + a84 * dlv4 + a85 * dlv5 + a86 * dlv6 + a87 * dlv7),
        )
        du9, dv9, dlu9, dlv9 = f(
            o + (t + c9 * h),
            u + h * (a91 * du1 + a94 * du4 + a95 * du5 + a96 * du6 + a97 * du7 + a98 * du8),
            v + h * (a91 * dv1 + a94 * dv4 + a95 * dv5 + a96 * dv6 + a97 * dv7 + a98 * dv8),
            lu + h * (a91 * dlu1 + a94 * dlu4 + a95 * dlu5 + a96 * dlu6 + a97 * dlu7 +
                a98 * dlu8),
            lv + h * (a91 * dlv1 + a94 * dlv4 + a95 * dlv5 + a96 * dlv6 + a97 * dlv7 +
                a98 * dlv8),
        )
        du10, dv10, dlu10, dlv10 = f(
            o + (t + c10 * h),
            u + h * (a101 * du1 + a104 * du4 + a105 * du5 + a106 * du6 + a107 * du7 +
                a108 * du8 + a109 * du9),
            v + h * (a101 * dv1 + a104 * dv4 + a105 * dv5 + a106 * dv6 + a107 * dv7 +
                a108 * dv8 + a109 * dv9),
            lu + h * (a101 * dlu1 + a104 * dlu4 + a105 * dlu5 + a106 * dlu6 + a107 * dlu7 +
                a108 * dlu8 + a109 * dlu9),
            lv + h * (a101 * dlv1 + a104 * dlv4 + a105 * dlv5 + a106 * dlv6 + a107 * dlv7 +
                a108 * dlv8 + a109 * dlv9),
        )
        du11, dv11, dlu11, dlv11 = f(
            o + (t + c11 * h),
            u + h * (a111 * du1 + a114 * du4 + a115 * du5 + a116 * du6 + a117 * du7 +
                a118 * du8 + a119 * du9 + a1110 * du10),
            v + h * (a111 * dv1 + a114 * dv4 + a115 * dv5 + a116 * dv6 + a117 * dv7 +
                a118 * dv8 + a119 * dv9 + a1110 * dv10),
            lu + h * (a111 * dlu1 + a114 * dlu4 + a115 * dlu5 + a116 * dlu6 + a117 * dlu7 +
                a118 * dlu8 + a119 * dlu9 + a1110 * dlu10),
            lv + h * (a111 * dlv1 + a114 * dlv4 + a115 * dlv5 + a116 * dlv6 + a117 * dlv7 +
                a118 * dlv8 + a119 * dlv9 + a1110 * dlv10),
        )
        du12, dv12, dlu12, dlv12 = f(
            o + (t + h),
            u + h * (a121 * du1 + a124 * du4 + a125 * du5 + a126 * du6 + a127 * du7 +
                a128 * du8 + a129 * du9 + a1210 * du10 + a1211 * du11),
            v + h * (a121 * dv1 + a124 * dv4 + a125 * dv5 + a126 * dv6 + a127 * dv7 +
                a128 * dv8 + a129 * dv9 + a1210 * dv10 + a1211 * dv11),
            lu + h * (a121 * dlu1 + a124 * dlu4 + a125 * dlu5 + a126 * dlu6 + a127 * dlu7 +
                a128 * dlu8 + a129 * dlu9 + a1210 * dlu10 + a1211 * dlu11),
            lv + h * (a121 * dlv1 + a124 * dlv4 + a125 * dlv5 + a126 * dlv6 + a127 * dlv7 +
                a128 * dlv8 + a129 * dlv9 + a1210 * dlv10 + a1211 * dlv11),
        )
        bu = (
            b1 * du1 + b6 * du6 + b7 * du7 + b8 * du8 + b9 * du9 + b10 * du10 + b11 * du11 +
            b12 * du12
        )
        bv = (
            b1 * dv1 + b6 * dv6 + b7 * dv7 + b8 * dv8 + b9 * dv9 + b10 * dv10 + b11 * dv11 +
            b12 * dv12
        )
        blu = (
            b1 * dlu1 + b6 * dlu6 + b7 * dlu7 + b8 * dlu8 + b9 * dlu9 + b10 * dlu10 +
            b11 * dlu11 + b12 * dlu12
        )
        blv = (
            b1 * dlv1 + b6 * dlv6 + b7 * dlv7 + b8 * dlv8 + b9 * dlv9 + b10 * dlv10 +
            b11 * dlv11 + b12 * dlv12
        )
        calls += 11
        t_new = t + h
        u_new, v_new, lu_new, lv_new = u + h * bu, v + h * bv, lu + h * blu, lv + h * blv
        # the error |h| E5^2 / sqrt(4 (E5^2 + 0.01 E3^2)) of the fifth-order
        # estimate (er) and the third-order one (b - bhh), each a sum of
        # squares over the unknowns scaled by atol + rtol max(|y|, |y_new|)
        sku = atol + rtol * max(abs(u), abs(u_new))
        skv = atol + rtol * max(abs(v), abs(v_new))
        sklu = atol + rtol * max(abs(lu), abs(lu_new))
        sklv = atol + rtol * max(abs(lv), abs(lv_new))
        e3u = (bu - bhh1 * du1 - bhh2 * du9 - bhh3 * du12) / sku
        e3v = (bv - bhh1 * dv1 - bhh2 * dv9 - bhh3 * dv12) / skv
        e3lu = (blu - bhh1 * dlu1 - bhh2 * dlu9 - bhh3 * dlu12) / sklu
        e3lv = (blv - bhh1 * dlv1 - bhh2 * dlv9 - bhh3 * dlv12) / sklv
        err2 = e3u * e3u + e3v * e3v + e3lu * e3lu + e3lv * e3lv
        eu = (
            er1 * du1 + er6 * du6 + er7 * du7 + er8 * du8 + er9 * du9 + er10 * du10 +
            er11 * du11 + er12 * du12
        ) / sku
        ev = (
            er1 * dv1 + er6 * dv6 + er7 * dv7 + er8 * dv8 + er9 * dv9 + er10 * dv10 +
            er11 * dv11 + er12 * dv12
        ) / skv
        elu = (
            er1 * dlu1 + er6 * dlu6 + er7 * dlu7 + er8 * dlu8 + er9 * dlu9 + er10 * dlu10 +
            er11 * dlu11 + er12 * dlu12
        ) / sklu
        elv = (
            er1 * dlv1 + er6 * dlv6 + er7 * dlv7 + er8 * dlv8 + er9 * dlv9 + er10 * dlv10 +
            er11 * dlv11 + er12 * dlv12
        ) / sklv
        err = eu * eu + ev * ev + elu * elu + elv * elv
        deno = err + 0.01 * err2
        if deno <= 0.0:
            deno = 1.0
        err = abs(h) * err * sqrt(1.0 / (4.0 * deno))
        fac11 = err**0.125
        h_new = h / max(facc2, min(facc1, fac11 / safe))
        if err <= 1.0:
            du1, dv1, dlu1, dlv1 = f(o + t_new, u_new, v_new, lu_new, lv_new)
            calls += 1
            t, u, v, lu, lv = t_new, u_new, v_new, lu_new, lv_new
            if steps is not None:
                steps[0].append(o + t)
                steps[1].extend((u, v, lu, lv))
                if u <= 0.0 or v <= 0.0:
                    return (u, v, lu, lv), calls
            if last:
                return (u, v, lu, lv), calls
            h_new = min(h_new, h_max)
            if rejected:
                h_new = min(h_new, h)
            rejected = False
        else:
            h_new = h / min(facc1, fac11 / safe)
            rejected, last = True, False
        h = h_new


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """A zero of f between xa and xb: scipy's brentq (zeros/brentq.c) line for line.

    f(xa) and f(xb) must have opposite signs.  Each iteration takes an
    inverse quadratic (or secant) step where it stays well inside the
    bracket and falls fast enough, and bisects otherwise; it stops once the
    bracket is within xtol + rtol |x|.  Returns the last iterate after
    maxiter iterations, as brentq with disp=False does.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    return xcur


class _Shot:
    """One shot: its right-hand side, its steps, its end and its work.

    _integrate fills in the accepted steps, the event, the sample points
    s_eval (s = ln r) up to the end and their radii r; _sample reads the
    samples off the kept steps.  `evaluations` counts the right-hand-side
    calls of every _dop853 run of the shot.
    """

    def __init__(self, params: Parameters):
        self.params = params
        self.rhs = _rhs(params)
        # s and y = [u, v, ln(-m_u), ln(-m_v)] at the start and each accepted
        # step end, as doubles: a kept shot holds two buffers, not a Python
        # object per value
        self.s, self.y = array("d"), array("d")
        self.event = None  # as in Trajectory
        self.evaluations = 0

    def step(self, i: int) -> tuple[float, tuple]:
        """(s, y) at the i-th recorded point, i >= 0."""
        return self.s[i], tuple(self.y[4 * i : 4 * i + 4])

    def run(self, origin: float, t: float, y: tuple, t_end: float, h: float, main: bool) -> tuple:
        """y at origin + t_end, from y at origin + t, on _dop853; the main run records its steps."""
        try:
            y, calls = _dop853(self.rhs, origin, t, y, t_end, h, (self.s, self.y) if main else None)
        except ArithmeticError as exc:
            s = self.s[-1] if main else origin
            raise ParameterError(
                f"right-hand side out of floating-point range past r = {math.exp(s):.6g} "
                f"({exc}), with n = {self.params.n} and gamma = {self.params.gamma!r}"
            ) from exc
        self.evaluations += calls
        return y

    def side(self, s_from: float, y_from: tuple, s: float) -> tuple:
        """y at s, integrated from (s_from, y_from) aside from the shot's steps."""
        if s == s_from:
            return y_from
        # t = s - s_from: a short span is never lost to rounding; tried as one
        # step, since the span lies within an accepted step from y_from
        return self.run(s_from, 0.0, y_from, s - s_from, s - s_from, False)


def _integrate(params: Parameters, a: float, b: float, r_stop: float) -> _Shot:
    """One shot from u(0) = a, v(0) = b towards r_stop, unsampled.

    _dop853 steps freely from the series start, records each accepted step
    end and stops the shot at the first one where u or v <= 0.  The earliest
    zero of the crossed components on that step ends the shot (u first on a
    tie): _brentq to EVENT_TOL on side integrations from the last positive
    step end.  Returns the shot with its event, its steps and its sample
    points up to the end, which _sample reads.  Raises ParameterError where
    DOP853 fails or the right-hand side leaves the floating-point range.
    """
    y0, s_eval = _start(params, a, b, r_stop)
    shot = _Shot(params)
    if min(y0[0], y0[1]) <= 0.0:  # a component already hit zero at R_START
        shot.s, shot.y = array("d", s_eval[:1]), array("d", y0)
        shot.s_eval, shot.r = s_eval[:1], np.array([R_START])
        shot.event = ("u" if y0[0] <= 0.0 else "v", R_START)
        return shot
    s_end = float(s_eval[-1])
    y_end = shot.run(0.0, float(s_eval[0]), y0, s_end, 0.0, True)
    if min(y_end[0], y_end[1]) <= 0.0:  # stopped at a crossing
        n = len(shot.s)
        (s_prev, y_prev), (s_cross, y_cross) = shot.step(n - 2), shot.step(n - 1)

        def component(k):
            return lambda s: y_cross[k] if s == s_cross else shot.side(s_prev, y_prev, s)[k]

        s_end, k = min(
            (_brentq(component(k), s_prev, s_cross, EVENT_TOL, EVENT_TOL, EVENT_ITERATIONS), k)
            for k in (0, 1)
            if y_cross[k] <= 0.0
        )
        shot.event = ("uv"[k], float(math.exp(s_end)))
    else:
        # the last step ends on s_end up to the rounding of s + (s_end - s)
        shot.s[-1] = s_end
    shot.s_eval = s_eval[: np.searchsorted(s_eval, s_end, "right")]
    shot.r = np.exp(shot.s_eval)
    return shot


def _sample(shot: _Shot) -> Trajectory:
    """The trajectory of an integrated shot, sampled off its kept steps.

    y at each sample point is a side integration from the step end before
    it, so the samples are the same whenever they are taken.  The fluxes
    are integrated as their logarithms and sampled as
    flux_u = -exp(ln(-m_u)) and flux_v = -exp(ln(-m_v)).
    """
    ys = [shot.side(*shot.step(bisect.bisect_right(shot.s, s) - 1), s) for s in shot.s_eval.tolist()]
    u, v, log_u, log_v = np.array(ys).T.copy()
    return Trajectory(
        r=shot.r, u=u, v=v, flux_u=-np.exp(log_u), flux_v=-np.exp(log_v), event=shot.event,
        steps=len(shot.s) - 1,
    )


def shoot(params: Parameters, a: float, b: float, cfg: Optional[ShootConfig] = None) -> Trajectory:
    """Integrate the radial system from u(0) = a, v(0) = b, then sample it.

    Requires beta = 1 (the differential side of the correspondence) and
    positive initial data.  Stops when a component crosses zero or at
    r_stop, whichever comes first; a component that is already non-positive
    at R_START hits zero there, and the trajectory is that one point.
    """
    return _sample(_integrate(params, a, b, (cfg or ShootConfig()).r_stop))


def flux_identity_residual(params: Parameters, traj: Trajectory) -> float:
    """Relative defect of m_u(r) + int_0^r s^{n-1+sigma1} v^q ds along the trajectory."""
    n, s1 = params.n, params.sigma1
    r, v = traj.r, np.maximum(traj.v, 0.0)
    integrand = r ** (n + s1) * v**params.q  # in s = ln r measure
    s = np.log(r)
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(s))]
    )
    cum += (v[0] ** params.q) * r[0] ** (n + s1) / (n + s1)  # series piece below r[0]
    scale = np.max(np.abs(traj.flux_u))
    return float(np.max(np.abs(traj.flux_u + cum)) / scale)


@dataclass(frozen=True)
class GroundStateConfig:
    a: float = 1.0
    bracket: tuple[float, float] = (1e-2, 1e2)
    shoot: ShootConfig = field(default_factory=ShootConfig)
    fit_decades: float = 2.0
    final_r_stop: Optional[float] = None  # defaults to shoot.r_stop

    def __post_init__(self):
        if self.final_r_stop is not None:
            _check_r_stop("final_r_stop", self.final_r_stop)
        if not 0.0 < self.a < math.inf:
            raise ParameterError(f"u(0) = a must be finite and positive, got {self.a!r}")
        if len(self.bracket) != 2 or not 0.0 < self.bracket[0] < self.bracket[1] < math.inf:
            raise ParameterError(
                f"bracket must be (lo, hi) with 0 < lo < hi < inf, got {self.bracket!r}"
            )
        if not self.fit_decades > 0.0:
            raise ParameterError(f"fit_decades must be positive, got {self.fit_decades!r}")


def _outcome(event: Optional[tuple[str, float]]) -> str:
    if event is not None:
        return f"hit_{event[0]}"
    return "survive"


def _profile_from(traj: Trajectory, component: str) -> RadialFunction:
    vals = traj.u if component == "u" else traj.v
    mask = vals > 0.0
    f = RadialFunction(RadialGrid(traj.r[mask]), vals[mask], head_exponent=0.0)
    # the declared tail continues the last decade's log-log slope
    tail = fit_decay_rate(f, (f.grid.r_max / 10.0, f.grid.r_max)).exponent
    return f.with_values(f.values, tail_exponent=tail)


def _canonical_log_scale(
    params: Parameters, traj: Trajectory, v_exponent: float, window: tuple[float, float]
) -> float:
    """Anchor scale of the borderline log factor, from v * r^rate affine in ln r.

    Fast-decay solutions form the exact scaling family (lam^{q0} u(lam r),
    lam^{p0} v(lam r)); in the borderline regime the second component behaves
    like r^-rate * ln(r / r0) with a family-dependent scale r0.  Rescaling by
    r0 selects the representative whose log factor is anchored at r = 1,
    which makes absolute ln(ln r) rate fits well posed.
    """
    mask = (traj.v > 0.0) & (traj.r >= window[0]) & (traj.r <= window[1])
    if int(mask.sum()) < 8:
        return 1.0
    z = traj.v[mask] * traj.r[mask] ** v_exponent
    slope, intercept = np.polyfit(np.log(traj.r[mask]), z, 1)
    if slope <= 0.0:
        return 1.0
    r0 = math.exp(-intercept / slope)
    return float(np.clip(r0, 1e-3, window[0]))


def find_fast_ground_state(
    params: Parameters, cfg: Optional[GroundStateConfig] = None
) -> SolveResult:
    """Capture the fast-decay ground state as a shooting separatrix.

    In the scalar symmetric case (p = q, sigma1 = sigma2, a = b) a single
    trajectory suffices.  Otherwise v(0) is searched between two initial
    values whose trajectories classify differently (which component hits
    zero first, or survival with a slow tail); raises NoBracketError when
    the bracket endpoints classify identically.

    A shot's class is whether it classifies as the bracket's lower end, and
    no b is classified twice.  The bracket is first halved at its geometric
    midpoint.  Then Brent's method (_brentq in ln v(0), to SEPARATRIX_BAND)
    finds the sign change of the misfit -+ r_hit^{-k} on the half where the
    class changes, negative on the lower end's class; r_hit is the radius
    where a component hit zero, or r_stop for a survivor.  Then the tightest
    sign change of the class among the classified shots is bisected
    geometrically until its ends lo, hi are adjacent doubles, and
    b_star = sqrt(lo * hi).

    Each shot is integrated once and classified without sampling it; the
    search keeps the steps of the shots at the farthest reach so far, and
    no others.  Then one of them is sampled off its kept steps, with no
    further integration: the classified shot that reached farthest, and of
    equal reaches the one nearest b_star in ln b.  When final_r_stop
    differs from shoot.r_stop, b_star is shot to final_r_stop instead, and
    the farthest shot is sampled if that reach is shorter.  `iterations`
    counts the integrations: one per classified shot, plus b_star's to
    final_r_stop where it differs (1 in the scalar case); the trace holds
    the result's b_star entry followed by one entry per classified shot (b,
    phase, outcome, r_reached, r_hit, steps, evaluations; phase is "bracket"
    for the two ends and the midpoint, "brent" or "bisect", r_hit is None for
    a survivor, steps counts the accepted DOP853 steps and evaluations the
    right-hand-side calls of the shot's integration, event root included).
    The profiles, the rate fits and the two flux-identity residuals read the
    sampled shot up to CLEAN_FRACTION of its reach, or all of it in the
    scalar case.
    """
    cfg = cfg or GroundStateConfig()
    report = classify_regime(params)
    exps = exponents(params)
    scalar = (
        abs(params.p - params.q) < 1e-12 and abs(params.sigma1 - params.sigma2) < 1e-12
    )
    shoot_cfg = cfg.shoot
    final_stop = cfg.final_r_stop if cfg.final_r_stop is not None else shoot_cfg.r_stop
    known = {}  # b -> its trace entry, one per classified shot in shot order
    farthest = {}  # b -> its shot, for the shots at the farthest reach so far

    def classify(b: float, phase: str) -> str:
        if b not in known:
            shot = _integrate(params, cfg.a, b, shoot_cfg.r_stop)
            reach, event, steps = float(shot.r[-1]), shot.event, len(shot.s) - 1
            so_far = known[next(iter(farthest))]["r_reached"] if farthest else 0.0
            known[b] = dict(
                b=b, phase=phase, outcome=_outcome(event), r_reached=reach, r_hit=event and event[1],
                steps=steps, evaluations=shot.evaluations,
            )
            if reach > so_far:
                farthest.clear()
            if reach >= so_far:
                farthest[b] = shot
        return known[b]["outcome"]

    if scalar:
        final = shoot(params, cfg.a, cfg.a, replace(shoot_cfg, r_stop=final_stop))
        if final.hit_zero:
            raise NoBracketError(
                "scalar trajectory hit zero; no positive ground state along this shot"
            )
        b_star, shots = cfg.a, 1
    else:
        lo, hi = cfg.bracket
        c_lo = classify(lo, "bracket")
        if classify(hi, "bracket") == c_lo:
            raise NoBracketError(
                f"both bracket endpoints classify as {c_lo}; widen the bracket"
            )
        # one bisection in ln v(0) first: from the bracket's ends, whose
        # misfits differ by many orders, Brent's first secant step lands next
        # to the lower end and nearly repeats its shot
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if classify(mid, "bracket") == c_lo else (lo, mid)
        # the deviation from the separatrix grows like r^k, so r_hit^{-k} is
        # close to linear in b - b_star; its logarithm is capped, so that it
        # stays finite and non-zero for gamma near 1
        k = (params.n - params.gamma) / (params.gamma - 1.0)
        x_lo, x_hi = math.log(lo), math.log(hi)

        def misfit(x: float) -> float:
            # the ends as given: exp(log(b)) need not round back to b
            b = lo if x == x_lo else hi if x == x_hi else math.exp(x)
            lower = classify(b, "brent") == c_lo
            r_hit = known[b]["r_hit"]
            ln_r = math.log(shoot_cfg.r_stop if r_hit is None else r_hit)
            mag = math.exp(max(-MISFIT_LOG_CAP, min(MISFIT_LOG_CAP, -k * ln_r)))
            return -mag if lower else mag

        _brentq(misfit, x_lo, x_hi, SEPARATRIX_BAND, EVENT_TOL, MAX_SHOTS)

        def lower(b: float) -> bool:
            return known[b]["outcome"] == c_lo

        # bisect the tightest sign change that any shot found down to
        # adjacent doubles; the midpoint replaces the end whose class it shares
        by_b = sorted(known)
        lo, hi = min(
            ((b0, b1) for b0, b1 in zip(by_b, by_b[1:]) if lower(b0) != lower(b1)),
            key=lambda pair: pair[1] / pair[0],
        )
        for _ in range(MAX_SHOTS):
            mid = math.sqrt(lo * hi)
            if mid == lo or mid == hi:
                break
            lo, hi = (mid, hi) if (classify(mid, "bisect") == c_lo) == lower(lo) else (lo, mid)
        b_star = math.sqrt(lo * hi)
        # the sampled shot is the classified shot that reached farthest; of
        # equal reaches (every survivor reaches r_stop) the one nearest b_star.
        # Its steps are kept, so sampling it integrates nothing again
        best = max(known.values(), key=lambda e: (e["r_reached"], -abs(math.log(e["b"] / b_star))))
        final = None
        if final_stop != shoot_cfg.r_stop:
            final = shoot(params, cfg.a, b_star, replace(shoot_cfg, r_stop=final_stop))
        shots = len(known) + (final is not None)
        if final is None or final.r_reached < best["r_reached"]:
            final = _sample(farthest[best["b"]])

    reach = final.r_reached
    hit = final.hit_zero
    clean_hi = reach if scalar else reach * CLEAN_FRACTION
    keep = final.r <= clean_hi * (1.0 + 1e-12)
    final = replace(final, **{k: getattr(final, k)[keep] for k in ("r", "u", "v", "flux_u", "flux_v")})
    residual_u = flux_identity_residual(params, final)
    # v's flux identity is u's for the swapped system and components
    residual_v = flux_identity_residual(
        params.swapped(),
        replace(final, u=final.v, v=final.u, flux_u=final.flux_v, flux_v=final.flux_u),
    )
    window_hi = float(final.r[-1])
    window = (
        max(window_hi / 10.0**cfg.fit_decades, float(final.r[0]) * 2.0),
        window_hi,
    )
    allow_log = report.v_log_power != 0.0
    lam = 1.0
    if allow_log and not scalar:
        lam = _canonical_log_scale(params, final, report.predicted_v_exponent, window)
    if lam != 1.0:
        final = replace(final, r=final.r / lam, u=lam**exps.q0 * final.u, v=lam**exps.p0 * final.v)
        window = (window[0] / lam, window[1] / lam)
    u_prof = _profile_from(final, "u")
    v_prof = _profile_from(final, "v")
    window = (max(window[0], 1.5 if allow_log else window[0]), window[1])
    rate_u = fit_decay_rate(u_prof, window)
    rate_v = fit_decay_rate(v_prof, window, allow_log=allow_log)
    converged = not hit or reach >= 0.05 * final_stop
    return SolveResult(
        u=u_prof,
        v=v_prof,
        residual_u=residual_u,
        residual_v=residual_v,
        iterations=shots,  # integrations: one per classified shot, and b_star's to final_r_stop
        converged=converged,
        rate_u=rate_u,
        rate_v=rate_v,
        report=report,
        trace=[{"b_star": b_star, "r_reached": reach, "log_scale": lam}] + list(known.values()),
        solver="shooting",
        config={
            "a": cfg.a,
            "bracket": list(cfg.bracket),
            "r_stop": shoot_cfg.r_stop,
            "final_r_stop": final_stop,
            "fit_decades": cfg.fit_decades,
        },
    )
