"""Radial shooting for the weighted gamma-Laplace system.

The system

    -div(|grad u|^{gamma-2} grad u) = c1(x) |x|^{sigma1} v^q
    -div(|grad v|^{gamma-2} grad v) = c2(x) |x|^{sigma2} u^p

reduces, for radial profiles, to the flux form

    m_u' = -r^{n-1+sigma1} v^q,     u' = -(-m_u r^{1-n})^{1/(gamma-1)},

with m_u = r^{n-1}|u'|^{gamma-2}u' <= 0 (and symmetrically for v).  The flux
variables are the integration unknowns, which avoids differentiating
|u'|^{gamma-2}u' where u' vanishes.  Integration runs in s = ln r after a
regular series start u(r) = u(0) - O(r^{(gamma+sigma1)/(gamma-1)}) on [0, r0].

Ground states are captured by bisection on v(0): trajectories are classified
by which component first hits zero (or by surviving to r_stop with a slow
tail), and the separatrix between two different outcome classes carries the
fast-decay profile.  The bisection reads only each shot's outcome and reach,
so it classifies shots on the integrator's own steps without sampling them;
one chosen trajectory is then sampled for the profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from .errors import NoBracketError, ParameterError
from .params import Parameters, classify_regime, exponents, validate
from .radial import RadialFunction, RadialGrid, fit_decay_rate
from .solver import SolveResult

R_START = 1e-4  # end of the series start; integration begins here
RTOL = 1e-12
ATOL = 1e-300
METHOD = "DOP853"
SAMPLES_PER_DECADE = 24
BISECTION_DEPTH = 60
EVENT_TOL = 4.0 * np.finfo(float).eps  # solve_ivp's brentq tolerances for event roots
# fraction of the reached radius still free of separatrix peel-off;
# bisection to machine precision keeps roughly the first tenth clean
CLEAN_FRACTION = 0.1


@dataclass(frozen=True)
class ShootConfig:
    r_stop: float = 1e4


@dataclass(frozen=True)
class Trajectory:
    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    flux_u: np.ndarray
    flux_v: np.ndarray
    event: Optional[tuple[str, float]]  # ("u"|"v", radius) when a component hit zero

    @property
    def hit_zero(self) -> bool:
        return self.event is not None

    @property
    def r_reached(self) -> float:
        return float(self.r[-1])


def _series_start(params: Parameters, a: float, b: float, r0: float):
    """Regular expansion at the origin through the first correction order.

    Raises ParameterError where u(0) = a or v(0) = b is too large for the
    expansion's powers in floating point.
    """
    n, g = params.n, params.gamma - 1.0
    s1, s2 = params.sigma1, params.sigma2
    try:
        mu0 = -(b**params.q) * r0 ** (n + s1) / (n + s1)
        mv0 = -(a**params.p) * r0 ** (n + s2) / (n + s2)
        cu = g / (params.gamma + s1) * (b**params.q / (n + s1)) ** (1.0 / g)
        cv = g / (params.gamma + s2) * (a**params.p / (n + s2)) ** (1.0 / g)
        u0 = a - cu * r0 ** ((params.gamma + s1) / g)
        v0 = b - cv * r0 ** ((params.gamma + s2) / g)
        y0 = np.array([u0, v0, mu0, mv0])
    except OverflowError:
        y0 = np.full(4, math.nan)
    if not np.all(np.isfinite(y0)):
        raise ParameterError(
            f"series start out of floating-point range at u(0) = {a!r}, v(0) = {b!r}: "
            "u(0)^p, v(0)^q and their 1/(gamma - 1) powers must stay finite"
        )
    return y0


def _rhs(params: Parameters):
    """The flux-form right-hand side in s = ln r, evaluated on Python floats."""
    n, inv = params.n, 1.0 / (params.gamma - 1.0)
    gamma_n = params.gamma - n
    k_u, k_v = n + params.sigma1, n + params.sigma2
    p, q = params.p, params.q

    def rhs(s, y):
        u, v, mu, mv = y.tolist()
        r_pow = math.exp(s * gamma_n * inv)
        du = -((max(-mu, 0.0)) ** inv) * r_pow
        dv = -((max(-mv, 0.0)) ** inv) * r_pow
        vq = max(v, 0.0) ** q
        up = max(u, 0.0) ** p
        es = math.exp(s)
        dmu = -(es**k_u) * vq
        dmv = -(es**k_v) * up
        return (du, dv, dmu, dmv)

    return rhs


def _start(params: Parameters, a: float, b: float, r_stop: float):
    """Series start y0 at R_START and the sample points s_eval (s = ln r) to r_stop."""
    validate(params)
    if abs(params.beta - 1.0) > 1e-12:
        raise ParameterError(f"shooting requires beta = 1, got beta = {params.beta}")
    if a <= 0.0 or b <= 0.0:
        raise ParameterError("initial values u(0), v(0) must be positive")
    s0, s_stop = math.log(R_START), math.log(r_stop)
    decades = (s_stop - s0) / math.log(10.0)
    s_eval = np.linspace(s0, s_stop, max(32, int(decades * SAMPLES_PER_DECADE)))
    return _series_start(params, a, b, R_START), s_eval


def _start_event(y0: np.ndarray) -> Optional[tuple[str, float]]:
    """A component whose series start is already non-positive hits zero at R_START."""
    for k, name in enumerate("uv"):
        if y0[k] <= 0.0:
            return (name, R_START)
    return None


def shoot(
    params: Parameters,
    a: float,
    b: float,
    cfg: Optional[ShootConfig] = None,
) -> Trajectory:
    """Integrate the radial system from u(0) = a, v(0) = b.

    Requires beta = 1 (the differential side of the correspondence) and
    positive initial data.  Stops when a component crosses zero or at
    r_stop, whichever comes first; a component that is already non-positive
    at R_START hits zero there, and the trajectory is that one point.
    """
    cfg = cfg or ShootConfig()
    y0, s_eval = _start(params, a, b, cfg.r_stop)
    event = _start_event(y0)
    if event is not None:
        r = np.array([R_START])
        return Trajectory(r=r, u=y0[:1], v=y0[1:2], flux_u=y0[2:3], flux_v=y0[3:], event=event)

    def hit_u(s, y):
        return y[0]

    def hit_v(s, y):
        return y[1]

    hit_u.terminal = True
    hit_u.direction = -1.0
    hit_v.terminal = True
    hit_v.direction = -1.0

    sol = solve_ivp(
        _rhs(params),
        (s_eval[0], s_eval[-1]),
        y0,
        method=METHOD,
        rtol=RTOL,
        atol=ATOL,
        t_eval=s_eval,
        events=(hit_u, hit_v),
        dense_output=False,
    )
    if sol.status == -1:
        raise ParameterError(f"integration failed: {sol.message}")
    event = None
    if sol.status == 1:
        if sol.t_events[0].size:
            event = ("u", float(math.exp(sol.t_events[0][0])))
        elif sol.t_events[1].size:
            event = ("v", float(math.exp(sol.t_events[1][0])))
    r = np.exp(sol.t)
    return Trajectory(
        r=r, u=sol.y[0], v=sol.y[1], flux_u=sol.y[2], flux_v=sol.y[3], event=event
    )


def _classify(
    params: Parameters, a: float, b: float, r_stop: float
) -> tuple[Optional[tuple[str, float]], float]:
    """(event, r_reached) of shoot(params, a, b, ShootConfig(r_stop)), unsampled.

    Steps DOP853 directly and applies solve_ivp's rules: a downward zero
    crossing of u or v within a step is rooted by brentq on that step's
    dense output, the earliest root ends the shot (u first on a tie), and
    the reach is the last sample point at or below the end.  So both values
    equal shoot()'s bit for bit, while no sample is interpolated and no
    dense output is built on steps without a crossing.
    """
    y0, s_eval = _start(params, a, b, r_stop)
    event = _start_event(y0)
    if event is not None:
        return event, R_START
    solver = DOP853(_rhs(params), s_eval[0], y0, s_eval[-1], rtol=RTOL, atol=ATOL)
    s_end = s_eval[-1]
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise ParameterError(f"integration failed: {message}")
        # both components were positive after the previous step, so a
        # downward crossing (g >= 0, g_new <= 0) is g_new <= 0
        crossed = [k for k in (0, 1) if solver.y[k] <= 0.0]
        if crossed:
            sol = solver.dense_output()
            t_old, t = solver.t_old, solver.t
            s_end, k = min(
                (brentq(lambda s: sol(s)[k], t_old, t, xtol=EVENT_TOL, rtol=EVENT_TOL), k)
                for k in crossed
            )
            event = ("uv"[k], float(math.exp(s_end)))
            break
    reached = s_eval[: np.searchsorted(s_eval, s_end, "right")]
    return event, float(np.exp(reached)[-1])


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


def _outcome(event: Optional[tuple[str, float]]) -> str:
    if event is not None:
        return f"hit_{event[0]}"
    return "survive"


def _profile_from(traj: Trajectory, component: str) -> RadialFunction:
    vals = traj.u if component == "u" else traj.v
    mask = vals > 0.0
    r = traj.r[mask]
    v = vals[mask]
    fit = fit_decay_rate_raw(r, v)
    return RadialFunction(
        RadialGrid(r), v, head_exponent=0.0, tail_exponent=fit, tail_log_power=0.0
    )


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


def fit_decay_rate_raw(r: np.ndarray, vals: np.ndarray) -> float:
    """Tail log-log slope over the last decade of a raw sampled trajectory."""
    r_hi = r[-1]
    mask = r >= r_hi / 10.0
    if int(mask.sum()) < 4:
        mask = np.ones(r.size, dtype=bool)
    coef = np.polyfit(np.log(r[mask]), np.log(np.maximum(vals[mask], 1e-300)), 1)
    return float(-coef[0])


def find_fast_ground_state(
    params: Parameters, cfg: Optional[GroundStateConfig] = None
) -> SolveResult:
    """Capture the fast-decay ground state as a shooting separatrix.

    In the scalar symmetric case (p = q, sigma1 = sigma2, a = b) a single
    trajectory suffices.  Otherwise v(0) is bisected between two initial
    values whose trajectories classify differently (which component hits
    zero first, or survival with a slow tail); raises NoBracketError when
    the bracket endpoints classify identically.  Bisection shots are
    classified without sampling them (`_classify`); then one trajectory is
    shot with samples: the separatrix estimate b_star, or the shot that
    reached farther if b_star's own reach was shorter.  When final_r_stop
    differs from shoot.r_stop, b_star is shot to final_r_stop instead, and
    the farthest bisection shot is sampled as well if that reach is shorter.
    `iterations` counts every integration, classified and sampled; the
    trace holds the result's b_star entry followed by one entry per
    classified shot (b, outcome, r_reached).
    """
    cfg = cfg or GroundStateConfig()
    validate(params)
    report = classify_regime(params)
    exps = exponents(params)
    scalar = (
        abs(params.p - params.q) < 1e-12 and abs(params.sigma1 - params.sigma2) < 1e-12
    )
    shoot_cfg = cfg.shoot
    final_stop = cfg.final_r_stop if cfg.final_r_stop is not None else shoot_cfg.r_stop
    steps = []  # one entry per classified shot

    def classify(b: float) -> tuple[str, float]:
        event, reach = _classify(params, cfg.a, b, shoot_cfg.r_stop)
        outcome = _outcome(event)
        steps.append({"b": b, "outcome": outcome, "r_reached": reach})
        return outcome, reach

    if scalar:
        traj = shoot(params, cfg.a, cfg.a, replace(shoot_cfg, r_stop=final_stop))
        if traj.hit_zero:
            raise NoBracketError(
                "scalar trajectory hit zero; no positive ground state along this shot"
            )
        b_star = cfg.a
        final = traj
        shots = 1
    else:
        lo, hi = cfg.bracket
        (c_lo, r_lo), (c_hi, r_hi) = classify(lo), classify(hi)
        if c_lo == c_hi:
            raise NoBracketError(
                f"both bracket endpoints classify as {c_lo}; widen the bracket"
            )
        best_b, best_r = (lo, r_lo) if r_lo >= r_hi else (hi, r_hi)
        for _ in range(BISECTION_DEPTH):
            mid = math.sqrt(lo * hi)
            if mid == lo or mid == hi:
                # lo and hi are adjacent doubles: every further step would
                # re-shoot this endpoint, whose outcome is already known
                r_end = r_lo if mid == lo else r_hi
                if r_end >= best_r:
                    best_b, best_r = mid, r_end
                break
            c_mid, r_mid = classify(mid)
            if r_mid >= best_r:
                best_b, best_r = mid, r_mid
            if c_mid == c_lo:
                lo, r_lo = mid, r_mid
            else:
                hi, r_hi = mid, r_mid
        b_star = math.sqrt(lo * hi)
        shots = len(steps) + 1
        if final_stop == shoot_cfg.r_stop and b_star in (lo, hi):
            # the bisection already knows this endpoint's reach
            r_star = r_lo if b_star == lo else r_hi
            final = shoot(params, cfg.a, b_star if r_star >= best_r else best_b, shoot_cfg)
        else:
            final = shoot(params, cfg.a, b_star, replace(shoot_cfg, r_stop=final_stop))
            if final.r_reached < best_r:
                final = shoot(params, cfg.a, best_b, shoot_cfg)
                shots += 1

    residual_u = flux_identity_residual(params, final)
    # v's flux identity is u's for the swapped system and components
    residual_v = flux_identity_residual(
        params.swapped(),
        replace(final, u=final.v, v=final.u, flux_u=final.flux_v, flux_v=final.flux_u),
    )
    reach = final.r_reached
    hit = final.hit_zero
    clean_hi = reach if scalar else reach * CLEAN_FRACTION
    keep = final.r <= clean_hi * (1.0 + 1e-12)
    final = Trajectory(
        r=final.r[keep],
        u=final.u[keep],
        v=final.v[keep],
        flux_u=final.flux_u[keep],
        flux_v=final.flux_v[keep],
        event=final.event,
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
        final = Trajectory(
            r=final.r / lam,
            u=lam**exps.q0 * final.u,
            v=lam**exps.p0 * final.v,
            flux_u=final.flux_u,
            flux_v=final.flux_v,
            event=final.event,
        )
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
        iterations=shots,  # integrations, classified and sampled
        converged=converged,
        rate_u=rate_u,
        rate_v=rate_v,
        report=report,
        trace=[{"b_star": b_star, "r_reached": reach, "log_scale": lam}] + steps,
        solver="shooting",
        config={
            "a": cfg.a,
            "bracket": list(cfg.bracket),
            "r_stop": shoot_cfg.r_stop,
            "final_r_stop": final_stop,
            "fit_decades": cfg.fit_decades,
        },
    )
