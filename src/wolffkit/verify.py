"""Quantitative checks of the decay, integrability, and inequality claims.

Each check compares a measured quantity against a value recomputed from the
parameter tuple at run time and reports pass/fail at a pinned tolerance.
Claims that hold only up to unspecified constants (the two-sided "comparable
to" statements and the norm inequalities) are tested as two-sided ratio
boundedness over a deterministic battery of source profiles, never as
equalities.  The one inequality with a known sharp constant, the unweighted
Hardy-Littlewood-Sobolev inequality, is also read against that constant on
its extremal profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .errors import ParameterError, WolffkitError
from .params import Parameters, integrability_interval
from .potential import PotentialConfig, riesz_eval, weighted_source, wolff_eval
from .radial import (
    RadialFunction,
    RadialGrid,
    _laggauss,
    is_infinite,
    lp_norm,
)
from .solver import SolveResult

EXPONENT_RTOL = 0.05
LOG_POWER_ATOL = 0.3
LOG_LIMIT_RTOL = 0.02
RATIO_WINDOW = 1e3
SHARP_HLS_RTOL = 5e-3


@dataclass(frozen=True)
class CheckEntry:
    name: str
    paper_ref: str  # human-readable tag of the mathematical statement checked
    status: str  # "pass" | "fail" | "skipped"
    measured: Any
    expected: Any
    tolerance: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "measured": _jsonable(self.measured),
            "expected": _jsonable(self.expected),
            "tolerance": self.tolerance,
        }
        if self.details:
            out["details"] = {k: _jsonable(v) for k, v in self.details.items()}
        return out


def _jsonable(value):
    if is_infinite(value):
        return "Infinite"
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class VerificationReport:
    params: Parameters
    checks: list[CheckEntry]
    solver: Optional[str] = None  # the solution's solver; None where no solution was read
    solver_config: Optional[dict] = None  # that solver's resolved settings

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "solver": self.solver,
            "checks": [c.to_dict() for c in self.checks],
        }


def _entry(name, ref, ok, measured, expected, tol, **details) -> CheckEntry:
    return CheckEntry(
        name=name,
        paper_ref=ref,
        status="pass" if ok else "fail",
        measured=measured,
        expected=expected,
        tolerance=tol,
        details=details,
    )


def _skipped(name, ref, reason) -> CheckEntry:
    return CheckEntry(
        name=name,
        paper_ref=ref,
        status="skipped",
        measured=None,
        expected=None,
        tolerance=0.0,
        details={"reason": reason},
    )


# -- fast decay rates ---------------------------------------------------------


def check_fast_rates(result: SolveResult, params: Parameters) -> list[CheckEntry]:
    """Fitted tail exponents of a converged solution against the predicted rates."""
    ref = "fast decay-rate trichotomy"
    if not result.converged:
        return [
            _skipped("fast_rate_u", ref, "solution not converged"),
            _skipped("fast_rate_v", ref, "solution not converged"),
            _skipped("v_log_power", ref, "solution not converged"),
        ]
    report = result.report
    out = []
    m, e = result.rate_u.exponent, report.predicted_u_exponent
    out.append(_entry("fast_rate_u", ref, abs(m / e - 1) <= EXPONENT_RTOL, m, e, EXPONENT_RTOL))
    m, e = result.rate_v.exponent, report.predicted_v_exponent
    out.append(_entry("fast_rate_v", ref, abs(m / e - 1) <= EXPONENT_RTOL, m, e, EXPONENT_RTOL))
    m, e = result.rate_v.log_power, report.v_log_power
    out.append(_entry("v_log_power", ref, abs(m - e) <= LOG_POWER_ATOL, m, e, LOG_POWER_ATOL))
    return out


# -- optimal integrability ----------------------------------------------------


def check_integrability(result: SolveResult, params: Parameters) -> list[CheckEntry]:
    """Norm finiteness strictly inside the optimal interval, divergence at endpoints."""
    ref = "optimal integrability interval"
    if not result.converged:
        return [_skipped("integrability", ref, "solution not converged")]
    (u_low, _), (v_low, _) = integrability_interval(params)
    n = params.n
    out = []
    for tag, f, low in (("u", result.u, u_low), ("v", result.v, v_low)):
        inside = lp_norm(f, low * 1.1, 0.0, n=n)
        far = lp_norm(f, low * 2.0, 0.0, n=n)
        at_end = lp_norm(f, low, 0.0, n=n)
        out.append(
            _entry(
                f"{tag}_norm_inside_interval",
                ref,
                not is_infinite(inside) and not is_infinite(far),
                [inside, far],
                "finite",
                0.0,
                exponents=[low * 1.1, low * 2.0],
            )
        )
        out.append(
            _entry(
                f"{tag}_norm_at_endpoint",
                ref,
                is_infinite(at_end),
                at_end,
                "Infinite",
                0.0,
                exponent=low,
            )
        )
        tail = f.values[f.grid.points >= f.grid.r_max / 10.0]
        vanishes = f.tail_exponent > 0.0 and tail[-1] < tail[0]
        out.append(
            _entry(
                f"{tag}_vanishes_at_infinity",
                "ground-state vanishing",
                bool(vanishes),
                float(tail[-1] / max(tail[0], 1e-300)),
                "< 1",
                0.0,
            )
        )
    return out


# -- borderline log-tail limit -------------------------------------------------


def log_tail_expression(n: int, beta: float, gamma: float, lam: float, x: float) -> float:
    """x^{A/g} / (ln(lam x))^{1/g} * int_{lam x}^inf (ln t / t^A)^{1/g} dt/t.

    A = n - beta*gamma, g = gamma - 1; evaluated by Gauss-Laguerre in
    tau = ln t, so arbitrarily large x costs nothing.
    """
    g = gamma - 1.0
    A = n - beta * gamma
    if not (A > 0.0 and lam > 0.0 and x > 1.0):
        raise ParameterError("requires beta*gamma < n, lam > 0, x > 1")
    a = A / g
    tau0 = math.log(lam * x)
    nodes, wts = _laggauss(96)
    tau = tau0 + nodes / a
    integral = float(np.dot(wts, tau ** (1.0 / g))) / a * math.exp(-a * tau0)
    return x**a / math.log(lam * x) ** (1.0 / g) * integral


def check_log_limit(params: Parameters, lam: float = 1.0) -> list[CheckEntry]:
    """Approach of the borderline tail integral to its closed-form limit.

    The limit equals (gamma-1)/(n-beta*gamma) * lam^{-(n-beta*gamma)/(gamma-1)}.
    The finite-x expression exceeds it by a relative gap of about
    1/(3 ln(lam x)) in the second-order case, which still exceeds the pinned
    2% tolerance at x = 1e5; the entry reports that honestly, and a companion
    entry extrapolates the 1/ln x trend to confirm the limit itself.
    """
    if lam <= 0.0:
        raise ParameterError("lam must be positive")
    ref = "borderline log-tail limit"
    g = params.gamma - 1.0
    A = params.n - params.beta * params.gamma
    expected = g / A * lam ** (-A / g)
    xs = (1e3, 1e4, 1e5)
    values = [log_tail_expression(params.n, params.beta, params.gamma, lam, x) for x in xs]
    gaps = [abs(v - expected) for v in values]
    monotone = gaps[0] > gaps[1] > gaps[2]
    final_ok = gaps[2] <= LOG_LIMIT_RTOL * expected
    out = [
        _entry(
            "log_limit_at_1e5",
            ref,
            monotone and final_ok,
            values[2],
            expected,
            LOG_LIMIT_RTOL,
            values_at=[list(xs), values],
            monotone_approach=monotone,
        )
    ]
    # Richardson step in 1/ln(x): the gap is asymptotically proportional to it
    w1, w2 = 1.0 / math.log(lam * xs[1]), 1.0 / math.log(lam * xs[2])
    extrapolated = values[2] + (values[2] - values[1]) * w2 / (w1 - w2)
    out.append(
        _entry(
            "log_limit_extrapolated",
            ref,
            abs(extrapolated / expected - 1.0) <= LOG_LIMIT_RTOL,
            extrapolated,
            expected,
            LOG_LIMIT_RTOL,
        )
    )
    return out


# -- inequality ratio boundedness ----------------------------------------------


# the grid of the battery's bumps and of the sharp-constant extremal
_BATTERY_GRID = RadialGrid.per_decade(1e-2, 1e2, 16)


def standard_battery(n: int, seed: int = 0, count: int = 20) -> list[RadialFunction]:
    """Deterministic nonnegative source profiles with declared tails."""
    rng = np.random.default_rng(seed)
    battery = []
    r = _BATTERY_GRID.points
    for k in range(count):
        kind = k % 4
        if kind == 3:
            R = float(rng.uniform(0.5, 2.0))
            # one ulp below R/100 makes r_min smaller than the exact R/100, so
            # the rounded span R/r_min cannot fall below the grid's minimum 100
            grid = RadialGrid.per_decade(math.nextafter(R / 100.0, 0.0), R, 16)
            battery.append(
                RadialFunction(
                    grid, np.ones(grid.count), head_exponent=0.0, tail_exponent=math.inf
                )
            )
            continue
        amp = float(rng.uniform(0.5, 2.0))
        R = float(np.exp(rng.uniform(math.log(0.3), math.log(3.0))))
        m = float(rng.uniform(n + 2.0, n + 8.0))
        vals = amp * (1.0 + (r / R) ** 2) ** (-m / 2.0)
        if kind == 2:
            m2 = float(rng.uniform(n + 2.0, n + 8.0))
            R2 = float(np.exp(rng.uniform(math.log(0.3), math.log(3.0))))
            vals = vals + 0.5 * (1.0 + (r / R2) ** 2) ** (-m2 / 2.0)
            m = min(m, m2)
        battery.append(RadialFunction(_BATTERY_GRID, vals, head_exponent=0.0, tail_exponent=m))
    return battery


def _ratio_entry(name, ref, ratios) -> CheckEntry:
    spread = max(ratios) / min(ratios)
    return _entry(
        name,
        ref,
        spread <= RATIO_WINDOW,
        spread,
        f"ratio spread <= {RATIO_WINDOW:g}",
        RATIO_WINDOW,
        ratio_range=[min(ratios), max(ratios)],
    )


def sharp_hls_constant(n: int, alpha: float) -> float:
    """Lieb's sharp C in ||I_alpha f||_q <= C ||f||_p, p = 2n/(n + alpha),
    q = 2n/(n - alpha), for the kernel |x - y|^-(n - alpha) (Lieb, Ann. of
    Math. 118, 1983): with lam = n - alpha,
    C = pi^{lam/2} Gamma(n/2 - lam/2)/Gamma(n - lam/2) (Gamma(n/2)/Gamma(n))^{-1 + lam/n}.
    """
    lam = n - alpha
    return (
        math.pi ** (lam / 2.0)
        * math.gamma(n / 2.0 - lam / 2.0)
        / math.gamma(n - lam / 2.0)
        * (math.gamma(n / 2.0) / math.gamma(n)) ** (-1.0 + lam / n)
    )


def _sharp_hls_entry(n: int, alpha: float, cfg: Optional[PotentialConfig]) -> CheckEntry:
    """The HLS ratio of the extremal (1 + r^2)^{-(n + alpha)/2} against Lieb's C."""
    r = _BATTERY_GRID.points
    f = RadialFunction(_BATTERY_GRID, (1.0 + r**2) ** (-(n + alpha) / 2.0), tail_exponent=n + alpha)
    p, q = 2.0 * n / (n + alpha), 2.0 * n / (n - alpha)
    image = riesz_eval(f, n, alpha, cfg)
    ratio = float(lp_norm(image, q, 0.0, n=n)) / float(lp_norm(f, p, 0.0, n=n))
    sharp = sharp_hls_constant(n, alpha)
    return _entry(
        "sharp_hls_constant",
        "sharp Hardy-Littlewood-Sobolev constant",
        abs(ratio / sharp - 1.0) <= SHARP_HLS_RTOL,
        ratio,
        sharp,
        SHARP_HLS_RTOL,
        p=p,
        q=q,
    )


def check_inequalities(
    battery_seed: int,
    params: Parameters,
    p: Optional[float] = None,
    q: Optional[float] = None,
    count: int = 20,
    cfg: Optional[PotentialConfig] = None,
) -> list[CheckEntry]:
    """Two-sided ratio boundedness for the weighted convolution inequality and
    the comparison between the nonlinear and Riesz potentials.

    The convolution inequality requires 1/p - 1/q = (alpha + sigma)/n with
    q > n/(n - alpha) (alpha = beta*gamma, sigma = sigma1); explicitly
    supplied exponents violating the relation raise ParameterError.  The
    comparison requires p > n(gamma - 1)/(n - alpha), without which both of
    its norms diverge on the finite-mass battery.  The
    inequalities are dilation-invariant, so each profile is taken at its own
    scale only.

    At gamma = 2 the comparison ratio is n - alpha by construction, since
    riesz_eval runs on wolff_eval's engine, so it too is checked only for
    boundedness; the tests check both potentials against oracles that share
    no code with them (shell theorem, 2F1 spherical mean).

    At sigma = 0 a third entry reads the HLS ratio of Lieb's extremal at
    p = 2n/(n + alpha) against the sharp constant (sharp_hls_constant).
    """
    n = params.n
    alpha = params.beta * params.gamma
    sigma = params.sigma1
    g = params.gamma - 1.0
    if p is None:
        p = 2.0
    inv_q = 1.0 / p - (alpha + sigma) / n
    if q is None:
        if inv_q <= 0.0:
            raise ParameterError(f"norm exponent p = {p} leaves no admissible q")
        q = 1.0 / inv_q
    elif abs(1.0 / p - 1.0 / q - (alpha + sigma) / n) > 1e-9:
        raise ParameterError(
            f"exponents violate 1/p - 1/q = (alpha+sigma)/n: "
            f"1/{p} - 1/{q} != ({alpha} + {sigma})/{n}"
        )
    if q <= n / (n - alpha):
        raise ParameterError(f"q = {q} must exceed n/(n-alpha) = {n / (n - alpha)}")
    # a finite-mass source's Riesz image decays like r^{alpha-n} and its Wolff
    # image like r^{(alpha-n)/(gamma-1)}, so both comparison norms diverge
    if p * (n - alpha) / g <= n:
        raise ParameterError(
            f"p = {p} must exceed n(gamma-1)/(n-alpha) = {n * g / (n - alpha)}: "
            "the comparison norms diverge"
        )

    hls_ratios, cmp_ratios = [], []
    for f in standard_battery(n, seed=battery_seed, count=count):
        img = riesz_eval(weighted_source(sigma, 1.0, f), n, alpha, cfg)
        hls_ratios.append(float(lp_norm(img, q, 0.0, n=n)) / float(lp_norm(f, p, 0.0, n=n)))
        wimg = wolff_eval(f, n, params.beta, params.gamma, cfg)
        # with sigma = 0 the weighted source is f itself
        rimg = img if sigma == 0.0 else riesz_eval(f, n, alpha, cfg)
        num = float(lp_norm(rimg, p / g, 0.0, n=n)) ** (1.0 / g)
        cmp_ratios.append(num / float(lp_norm(wimg, p, 0.0, n=n)))

    entries = [
        _ratio_entry("weighted_hls_ratio", "weighted convolution inequality", hls_ratios),
        _ratio_entry("wolff_riesz_comparison", "potential comparison inequality", cmp_ratios),
    ]
    if sigma == 0.0:
        entries.append(_sharp_hls_entry(n, alpha, cfg))
    return entries


# -- suite orchestration --------------------------------------------------------


SUITES = ("all", "rates", "integrability", "inequalities", "loglimit")


def run_suite(
    params: Parameters,
    suite: str = "all",
    seed: int = 0,
    solve_result: Optional[SolveResult] = None,
) -> VerificationReport:
    """Assemble the requested checks into a reproducible report, naming the
    solver ("shooting" or "picard") whose solution the checks read."""
    if suite not in SUITES:
        raise ParameterError(f"unknown suite {suite!r}; choose from {SUITES}")
    checks: list[CheckEntry] = []
    needs_solution = suite in ("all", "rates", "integrability")
    result, why_none = solve_result, ""
    if needs_solution and result is None:
        result, why_none = _obtain_solution(params)
    if suite in ("all", "rates"):
        if result is None:
            checks.append(_skipped("fast_rate_u", "fast decay-rate trichotomy", why_none))
        else:
            checks.extend(check_fast_rates(result, params))
    if suite in ("all", "integrability"):
        if result is None:
            checks.append(_skipped("integrability", "optimal integrability interval", why_none))
        else:
            checks.extend(check_integrability(result, params))
    if suite in ("all", "loglimit"):
        checks.extend(check_log_limit(params, lam=1.0))
        checks.extend(check_log_limit(params, lam=2.0))
    if suite in ("all", "inequalities"):
        checks.extend(check_inequalities(seed, params))
    read = needs_solution and result is not None
    return VerificationReport(
        params=params,
        checks=checks,
        solver=result.solver if read else None,
        solver_config=result.config if read else None,
    )


def _obtain_solution(params: Parameters) -> tuple[Optional[SolveResult], str]:
    """Ground state via shooting when available (beta = 1), else the Picard
    solver; without one, the error each solver raised."""
    from .quasilinear import find_fast_ground_state
    from .solver import SolveConfig, solve_system

    failures = []
    if abs(params.beta - 1.0) <= 1e-12:
        try:
            return find_fast_ground_state(params), ""
        except WolffkitError as exc:
            failures.append(f"shooting raised {type(exc).__name__}: {exc}")
    try:
        return solve_system(params, SolveConfig(max_iters=25)), ""
    except WolffkitError as exc:
        failures.append(f"picard raised {type(exc).__name__}: {exc}")
    return None, "no solution: " + "; ".join(failures)
