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
fast-decay profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NoBracketError, ParameterError
from .params import Parameters, classify_regime, exponents, validate
from .radial import RadialFunction, RadialGrid, fit_decay_rate
from .solver import SolveResult


@dataclass(frozen=True)
class ShootConfig:
    r_start: float = 1e-4
    r_stop: float = 1e4
    rtol: float = 1e-12
    atol: float = 1e-300
    method: str = "DOP853"
    samples_per_decade: int = 24


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
    """Regular expansion at the origin through the first correction order."""
    n, g = params.n, params.gamma - 1.0
    s1, s2 = params.sigma1, params.sigma2
    mu0 = -(b**params.q) * r0 ** (n + s1) / (n + s1)
    mv0 = -(a**params.p) * r0 ** (n + s2) / (n + s2)
    cu = g / (params.gamma + s1) * (b**params.q / (n + s1)) ** (1.0 / g)
    cv = g / (params.gamma + s2) * (a**params.p / (n + s2)) ** (1.0 / g)
    u0 = a - cu * r0 ** ((params.gamma + s1) / g)
    v0 = b - cv * r0 ** ((params.gamma + s2) / g)
    return np.array([u0, v0, mu0, mv0])


def shoot(
    params: Parameters,
    a: float,
    b: float,
    cfg: Optional[ShootConfig] = None,
) -> Trajectory:
    """Integrate the radial system from u(0) = a, v(0) = b.

    Requires beta = 1 (the differential side of the correspondence) and
    positive initial data.  Stops when a component crosses zero or at
    r_stop, whichever comes first.
    """
    validate(params)
    if abs(params.beta - 1.0) > 1e-12:
        raise ParameterError(f"shooting requires beta = 1, got beta = {params.beta}")
    if a <= 0.0 or b <= 0.0:
        raise ParameterError("initial values u(0), v(0) must be positive")
    cfg = cfg or ShootConfig()
    n, g = params.n, params.gamma - 1.0
    s1, s2, p, q = params.sigma1, params.sigma2, params.p, params.q
    inv = 1.0 / g

    def rhs(s, y):
        u, v, mu, mv = y
        r_pow = math.exp(s * (params.gamma - n) * inv)
        du = -((max(-mu, 0.0)) ** inv) * r_pow
        dv = -((max(-mv, 0.0)) ** inv) * r_pow
        vq = max(v, 0.0) ** q
        up = max(u, 0.0) ** p
        es = math.exp(s)
        dmu = -(es ** (n + s1)) * vq
        dmv = -(es ** (n + s2)) * up
        return (du, dv, dmu, dmv)

    def hit_u(s, y):
        return y[0]

    def hit_v(s, y):
        return y[1]

    hit_u.terminal = True
    hit_u.direction = -1.0
    hit_v.terminal = True
    hit_v.direction = -1.0

    s0, s1_ = math.log(cfg.r_start), math.log(cfg.r_stop)
    y0 = _series_start(params, a, b, cfg.r_start)
    decades = (s1_ - s0) / math.log(10.0)
    s_eval = np.linspace(s0, s1_, max(32, int(decades * cfg.samples_per_decade)))
    sol = solve_ivp(
        rhs,
        (s0, s1_),
        y0,
        method=cfg.method,
        rtol=cfg.rtol,
        atol=cfg.atol,
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
    depth: int = 60
    shoot: ShootConfig = field(default_factory=ShootConfig)
    fit_decades: float = 2.0
    final_r_stop: Optional[float] = None  # defaults to shoot.r_stop
    # fraction of the reached radius still free of separatrix peel-off;
    # bisection to machine precision keeps roughly the first tenth clean
    clean_fraction: float = 0.1


def _outcome(traj: Trajectory) -> str:
    if traj.event is not None:
        return f"hit_{traj.event[0]}"
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
    the bracket endpoints classify identically.
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

    if scalar:
        traj = shoot(params, cfg.a, cfg.a, replace(shoot_cfg, r_stop=final_stop))
        if traj.hit_zero:
            raise NoBracketError(
                "scalar trajectory hit zero; no positive ground state along this shot"
            )
        b_star = cfg.a
        final = traj
    else:
        lo, hi = cfg.bracket
        t_lo = shoot(params, cfg.a, lo, shoot_cfg)
        t_hi = shoot(params, cfg.a, hi, shoot_cfg)
        c_lo, c_hi = _outcome(t_lo), _outcome(t_hi)
        if c_lo == c_hi:
            raise NoBracketError(
                f"both bracket endpoints classify as {c_lo}; widen the bracket"
            )
        best = t_lo if t_lo.r_reached >= t_hi.r_reached else t_hi
        for _ in range(cfg.depth):
            mid = math.sqrt(lo * hi)
            if mid == lo or mid == hi:
                # lo and hi are adjacent doubles: every further step would
                # re-shoot this endpoint, whose trajectory is already known
                t_end = t_lo if mid == lo else t_hi
                if t_end.r_reached >= best.r_reached:
                    best = t_end
                break
            t_mid = shoot(params, cfg.a, mid, shoot_cfg)
            c_mid = _outcome(t_mid)
            if t_mid.r_reached >= best.r_reached:
                best = t_mid
            if c_mid == c_lo:
                lo, t_lo = mid, t_mid
            else:
                hi, t_hi = mid, t_mid
        b_star = math.sqrt(lo * hi)
        if final_stop == shoot_cfg.r_stop and b_star in (lo, hi):
            # the bisection already shot this endpoint to the same radius
            final = t_lo if b_star == lo else t_hi
        else:
            final = shoot(params, cfg.a, b_star, replace(shoot_cfg, r_stop=final_stop))
        if final.r_reached < best.r_reached:
            final = best

    residual = flux_identity_residual(params, final)
    reach = final.r_reached
    hit = final.hit_zero
    clean_hi = reach if scalar else reach * cfg.clean_fraction
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
        residual_u=residual,
        residual_v=residual,
        iterations=cfg.depth if not scalar else 1,
        converged=converged,
        rate_u=rate_u,
        rate_v=rate_v,
        report=report,
        trace=[{"b_star": b_star, "r_reached": reach, "log_scale": lam}],
    )
