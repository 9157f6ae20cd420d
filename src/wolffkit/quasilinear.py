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

Every shot runs on one engine, Hairer's compiled DOP853 (scipy.integrate.ode
with the "dop853" integrator; Hairer, Norsett & Wanner, Solving Ordinary
Differential Equations I, 2nd ed., 1993, II.10), with solve_ivp's step-factor
limits, at the relative tolerance RTOL.  It steps freely to r_stop; each
accepted step end is recorded, and the first one where u or v <= 0 ends the
steps.  The zero is then rooted by side integrations from the last positive
step end.  That is the integration (_integrate): it gives the shot's event,
reach and accepted steps, which is all the search reads to classify it.
The sampling (_sample) comes after it, from the steps it kept: each sample
point is a side integration from the step end before it, tried as one
DOP853 step since its span lies within an accepted step.  Side integrations
never change the step sequence, so shoot(), which integrates and then
samples, and the search, which classifies its shots and samples only the
farthest one from that shot's own steps, integrate every shot once and read
the same steps, event and reach bit for bit.  The solver and its callbacks
are built once per process: scipy's dop853 wrapper keeps references to the
callbacks of every run, which would keep callbacks made per shot, and their
step lists, alive.
"""

from __future__ import annotations

import bisect
import math
import threading
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import NoBracketError, ParameterError
from .params import Parameters, classify_regime, exponents
from .radial import RadialFunction, RadialGrid, fit_decay_rate
from .solver import SolveResult

R_START = 1e-4  # end of the series start; integration begins here
# on ln(-m) a relative tolerance is |ln(-m)| times looser on m (up to 48
# times at R_START): at 5e-13 shoot() misses the Hardy-weight exact family
# at (n, gamma, sigma) = (3, 1.6, -0.5) by 1.8e-6 against a bound of 1e-6,
# at 2e-13 by 5.0e-7; 1e-13 reads 2.7e-7 for 7 % more right-hand sides
RTOL = 1e-13
ATOL = 1e-300
MAX_STEPS = 100_000  # DOP853's cap on the steps of one integration
SAMPLES_PER_DECADE = 24
EVENT_TOL = 4.0 * np.finfo(float).eps  # brentq's tolerances for event roots
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

    The shooter no longer calls it.  It is kept under this name because the
    benchmark's tracer (perfbench/spans.py) wraps quasilinear.solve_ivp and
    quasilinear.shoot by name, and raises AttributeError if either is gone.
    """
    from scipy.integrate import solve_ivp as _solve_ivp

    return _solve_ivp(*args, **kwargs)


def _rhs(params: Parameters):
    """The right-hand side in s = ln r for [u, v, ln(-m_u), ln(-m_v)], on Python floats.

    du/ds = r u' = -exp((ln(-m_u) + (gamma - n) s)/(gamma - 1)), and
    d ln(-m_u)/ds = exp((n + sigma1) s - ln(-m_u)) v^q for v > 0, else 0
    (and the same for v).  Near the origin ln(-m_u) is linear in s, so a
    step integrates it exactly, and the 1/(gamma - 1) power is taken of one
    exponent, which stays in the float range for gamma near 1.
    """
    inv = 1.0 / (params.gamma - 1.0)
    gamma_n = params.gamma - params.n
    k_u, k_v = params.n + params.sigma1, params.n + params.sigma2
    p, q = params.p, params.q
    exp = math.exp

    def rhs(s, y):
        u, v, lu, lv = y.tolist()
        return (
            -exp((lu + gamma_n * s) * inv),
            -exp((lv + gamma_n * s) * inv),
            exp(k_u * s - lu) * v**q if v > 0.0 else 0.0,
            exp(k_v * s - lv) * u**p if u > 0.0 else 0.0,
        )

    return rhs


def _start(params: Parameters, a: float, b: float, r_stop: float):
    """The series start y0 at R_START and the sample points s_eval (s = ln r) to r_stop.

    y0 = [u, v, ln(-m_u), ln(-m_v)] is the regular expansion at the origin
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
        du, dv, _, _ = _rhs(params)(s0, np.array([a, b, lu, lv]))
        u0 = a + g / (params.gamma + params.sigma1) * du
        y0 = np.array([u0, b + g / (params.gamma + params.sigma2) * dv, lu, lv])
    except OverflowError:
        y0 = np.full(4, math.nan)
    if not np.all(np.isfinite(y0)):
        raise ParameterError(
            f"series start out of floating-point range at u(0) = {a!r}, v(0) = {b!r}: "
            "u(0)^p, v(0)^q and their 1/(gamma - 1) powers must stay finite"
        )
    decades = (math.log(r_stop) - s0) / math.log(10.0)
    return y0, np.linspace(s0, math.log(r_stop), max(32, int(decades * SAMPLES_PER_DECADE)))


class _Shot:
    """One shot on the shared DOP853: its right-hand side, its steps and its end.

    _integrate fills in the accepted steps, the event, the sample points
    s_eval (s = ln r) up to the end and their radii r; _sample reads the
    samples off the kept steps.  `caught` holds the warnings of the shot's
    runs on the engine.
    """

    def __init__(self, params: Parameters):
        self.params = params
        self.rhs = _rhs(params)
        self.main = True  # record each step end and stop at a zero crossing
        self.origin = 0.0  # s at t = 0 of a side integration
        # s and y = [u, v, ln(-m_u), ln(-m_v)] at the start and each accepted
        # step end, as doubles: a kept shot holds two buffers, not a Python
        # object per value
        self.s, self.y = array("d"), array("d")
        self.error = None  # (exception, s) where the right-hand side left the float range
        self.event = None  # as in Trajectory

    def step(self, i: int) -> tuple[float, list]:
        """(s, y) at the i-th recorded point, i >= 0."""
        return self.s[i], self.y[4 * i : 4 * i + 4].tolist()

    def run(self, t_end: float) -> list:
        """y at t_end from the engine's initial value, raising its failures."""
        y = _solver.integrate(t_end)
        if self.error is not None:
            exc, s = self.error
            raise ParameterError(
                f"right-hand side out of floating-point range at r = {math.exp(s):.6g} "
                f"({exc}), with n = {self.params.n} and gamma = {self.params.gamma!r}"
            )
        if _solver.get_return_code() < 0:
            raise ParameterError(f"integration failed: {self.caught[-1].message}")
        return y.tolist()

    def side(self, s_from: float, y_from: list, s: float) -> list:
        """y at s, integrated from (s_from, y_from) aside from the shot's steps."""
        if s == s_from:
            return y_from
        self.origin = s_from  # t = s - s_from: a short span is never lost to rounding
        # tried as one step: the span lies within an accepted step from y_from
        _solver._integrator.first_step = s - s_from
        _solver.set_initial_value(y_from, 0.0)
        return self.run(s - s_from)


# The engine: one compiled DOP853 per process, built on first use.  scipy's
# dop853 wrapper keeps two references to the right-hand side and the solout
# callback on every integrate call and never drops them, so callbacks made per
# shot would keep each shot's step lists alive.  The solver's callbacks are
# therefore the two module functions below, which read the shot in _active;
# _LOCK makes one shot at a time the active one.
_LOCK = threading.Lock()
_active: Optional[_Shot] = None
_solver = None
_NAN = (math.nan,) * 4


def _f(t, y):
    shot = _active
    try:
        return shot.rhs(shot.origin + t, y)
    except ArithmeticError as exc:
        # an exception must not leave the Fortran callback (the process
        # crashes); NaN makes DOP853 reject steps until it stops
        shot.error = (exc, shot.origin + t)
        return _NAN


def _solout(s, y):
    shot = _active
    if shot.main:
        y = y.tolist()
        shot.s.append(s)
        shot.y.fromlist(y)
        if y[0] <= 0.0 or y[1] <= 0.0:
            return -1
    return 0


@contextmanager
def _engaged(shot: _Shot):
    """The shared compiled DOP853, with solve_ivp's step-factor limits, running `shot`."""
    global _active, _solver
    # a failed integrate warns with scipy's message, which run() raises instead
    with _LOCK, warnings.catch_warnings(record=True) as shot.caught:
        warnings.simplefilter("always")
        if _solver is None:
            from scipy.integrate import ode

            _solver = ode(_f).set_integrator(
                "dop853", rtol=RTOL, atol=ATOL, nsteps=MAX_STEPS, dfactor=0.2, ifactor=10.0
            )
            # each set_initial_value hands the Fortran code the integrator's
            # bound _solout, a new object that the two references would leak;
            # shadowed by the module function, it is one object for good
            _solver._integrator._solout = _solout
            _solver.set_solout(_solout)
        _active = shot
        try:
            yield
        finally:
            _active = None


def _integrate(params: Parameters, a: float, b: float, r_stop: float) -> _Shot:
    """One shot from u(0) = a, v(0) = b towards r_stop on the shared DOP853, unsampled.

    The solver steps freely from the series start; its solout callback
    records each accepted step end and stops the shot at the first one where
    u or v <= 0.  The earliest zero of the crossed components on that step
    ends the shot (u first on a tie): brentq to EVENT_TOL on side
    integrations from the last positive step end.  Returns the shot with its
    event, its steps and its sample points up to the end, which _sample
    reads.  Raises ParameterError where DOP853 fails (with scipy's message)
    or the right-hand side leaves the floating-point range.
    """
    from scipy.optimize import brentq

    y0, s_eval = _start(params, a, b, r_stop)
    shot = _Shot(params)
    if min(y0[0], y0[1]) <= 0.0:  # a component already hit zero at R_START
        shot.s, shot.y = array("d", s_eval[:1]), array("d", y0)
        shot.s_eval, shot.r = s_eval[:1], np.array([R_START])
        shot.event = ("u" if y0[0] <= 0.0 else "v", R_START)
        return shot
    with _engaged(shot):
        s_end = float(s_eval[-1])
        _solver._integrator.first_step = 0.0  # DOP853 picks the first step
        _solver.set_initial_value(y0, s_eval[0])
        shot.run(s_end)
        shot.main = False
        if _solver.get_return_code() == 2:  # stopped by solout at a crossing
            n = len(shot.s)
            (s_prev, y_prev), (s_cross, y_cross) = shot.step(n - 2), shot.step(n - 1)

            def component(k):
                return lambda s: y_cross[k] if s == s_cross else shot.side(s_prev, y_prev, s)[k]

            s_end, k = min(
                (brentq(component(k), s_prev, s_cross, xtol=EVENT_TOL, rtol=EVENT_TOL), k)
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
    with _engaged(shot):
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
    no b is classified twice.  Brent's method (brentq in ln v(0), to
    SEPARATRIX_BAND) finds the sign change of the misfit -+ r_hit^{-k},
    negative on the lower end's class; r_hit is the radius where a component
    hit zero, or r_stop for a survivor.  Then the tightest sign change of
    the class among the classified shots is bisected geometrically until
    its ends lo, hi are adjacent doubles, and b_star = sqrt(lo * hi).

    Each shot is integrated once and classified without sampling it; the
    search keeps the steps of the shots at the farthest reach so far, and
    no others.  Then one of them is sampled off its kept steps, with no
    further integration: the classified shot that reached farthest, and of
    equal reaches the one nearest b_star in ln b.  When final_r_stop
    differs from shoot.r_stop, b_star is shot to final_r_stop instead, and
    the farthest shot is sampled if that reach is shorter.  `iterations`
    counts the integrations: one per classified shot, plus b_star's to
    final_r_stop where it differs (1 in the scalar case); the trace holds
    the result's b_star entry followed by one entry
    per classified shot (b, phase, outcome, r_reached, r_hit, steps; phase
    is "bracket", "brent" or "bisect", r_hit is None for a survivor, steps
    counts the accepted DOP853 steps).  The profiles, the rate fits and the
    two flux-identity residuals read the sampled shot up to CLEAN_FRACTION
    of its reach, or all of it in the scalar case.
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
                steps=steps,
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
        from scipy.optimize import brentq

        lo, hi = cfg.bracket
        c_lo = classify(lo, "bracket")
        if classify(hi, "bracket") == c_lo:
            raise NoBracketError(
                f"both bracket endpoints classify as {c_lo}; widen the bracket"
            )
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

        brentq(
            misfit, x_lo, x_hi, xtol=SEPARATRIX_BAND, rtol=EVENT_TOL, maxiter=MAX_SHOTS, disp=False
        )
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
