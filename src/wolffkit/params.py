"""Exponent algebra and decay-regime classification.

Everything in this module is computable from the parameter tuple
(n, beta, gamma, p, q, sigma1, sigma2) alone.  The central quantities are
the integrable-solution exponents

    q0 = (beta*gamma*(gamma-1+q) + (gamma-1)*sigma1 + sigma2*q) / (p*q - (gamma-1)^2)
    p0 = (beta*gamma*(gamma-1+p) + (gamma-1)*sigma2 + sigma1*p) / (p*q - (gamma-1)^2)

with r0 = n/q0 and s0 = n/p0, the fast decay rate (n - beta*gamma)/(gamma-1),
and the threshold p*(n-beta*gamma)/(gamma-1) - sigma2 whose position relative
to n selects one of three tail regimes for the second component.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any

from .errors import InterchangeWarning, ParameterError

# Equality of codimension-one conditions (criticality, log regime) is decided
# within this absolute tolerance on the defining difference.
EQUALITY_TOL = 1e-12


class Subcriticality(Enum):
    SUBCRITICAL = "Subcritical"
    CRITICAL = "Critical"
    SUPERCRITICAL = "Supercritical"


class Regime(Enum):
    FAST_FAST = "FastFast"
    LOGARITHMIC = "Logarithmic"
    INTERMEDIATE = "Intermediate"


PARAM_KEYS = ("n", "beta", "gamma", "p", "q", "sigma1", "sigma2")


@dataclass(frozen=True)
class Parameters:
    """Admissible parameter tuple of the weighted potential system.

    n is the space dimension; beta, gamma index the nonlinear potential;
    p, q are the nonlinearity powers; sigma1, sigma2 are the Hardy-weight
    exponents attached to the v- and u-nonlinearities respectively.
    """

    n: int
    beta: float
    gamma: float
    p: float
    q: float
    sigma1: float = 0.0
    sigma2: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {k: getattr(self, k) for k in PARAM_KEYS}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Parameters":
        missing = [k for k in PARAM_KEYS if k not in data]
        if missing:
            raise ParameterError(f"missing parameter keys: {missing}")
        return cls(int(data["n"]), *(float(data[k]) for k in PARAM_KEYS[1:]))

    def swapped(self) -> "Parameters":
        """Interchange (p, sigma2) <-> (q, sigma1), i.e. swap the roles of u and v."""
        return replace(self, p=self.q, q=self.p, sigma1=self.sigma2, sigma2=self.sigma1)


@dataclass(frozen=True)
class Exponents:
    """Closed-form exponents derived from a validated Parameters tuple."""

    q0: float
    p0: float
    r0: float  # n / q0
    s0: float  # n / p0
    fast_rate_u: float           # (n - beta*gamma)/(gamma - 1)
    v_threshold: float           # p*fast_rate_u - sigma2, compared against n
    intermediate_rate_v: float   # (p*fast_rate_u - (beta*gamma + sigma2))/(gamma - 1)
    slow_endpoint_u: float       # (q*fast_rate_u - (beta*gamma + sigma1))/(gamma - 1)
    slow_endpoint_v: float       # (p*fast_rate_u - (beta*gamma + sigma2))/(gamma - 1)


@dataclass(frozen=True)
class RegimeReport:
    """Predicted tail behavior of a fast-decaying solution pair."""

    regime: Regime
    predicted_u_exponent: float
    predicted_v_exponent: float
    v_log_power: float
    subcriticality: Subcriticality
    interchanged: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "regime": self.regime.value,
            "u_exponent": self.predicted_u_exponent,
            "v_exponent": self.predicted_v_exponent,
            "v_log_power": self.v_log_power,
            "subcriticality": self.subcriticality.value,
        }


def validate_operator(n: int, beta: float, gamma: float) -> None:
    """Admissibility of the Wolff operator W_{beta,gamma} on R^n.

    Raises ParameterError naming the first violated constraint.
    """
    if not (isinstance(n, int) and n >= 3):
        raise ParameterError(f"n >= 3 violated (n = {n})")
    if not (1.0 < gamma <= 2.0):
        raise ParameterError(f"gamma out of (1,2] (gamma = {gamma})")
    if not beta > 0.0:
        raise ParameterError(f"beta > 0 violated (beta = {beta})")
    if not beta * gamma < n:
        raise ParameterError(f"beta*gamma < n violated (beta*gamma = {beta * gamma}, n = {n})")


def validate(params: Parameters) -> Parameters:
    """Return the tuple unchanged iff every admissibility constraint holds.

    Raises ParameterError naming the first violated constraint.
    """
    n, beta, gamma = params.n, params.beta, params.gamma
    p, q, s1, s2 = params.p, params.q, params.sigma1, params.sigma2
    validate_operator(n, beta, gamma)
    if not p > 1.0:
        raise ParameterError(f"p > 1 violated (p = {p})")
    if not q > 1.0:
        raise ParameterError(f"q > 1 violated (q = {q})")
    bg = beta * gamma
    for name, s in (("sigma1", s1), ("sigma2", s2)):
        if not (-bg < s <= 0.0):
            raise ParameterError(f"{name} out of (-beta*gamma, 0] ({name} = {s})")
    if not p * q > (gamma - 1.0) ** 2:
        raise ParameterError(
            f"p*q > (gamma-1)^2 violated (p*q = {p * q}, (gamma-1)^2 = {(gamma - 1.0) ** 2})"
        )
    return params


def exponents(params: Parameters) -> Exponents:
    """Evaluate all closed-form exponents for a validated tuple."""
    validate(params)
    n, bg, g = params.n, params.beta * params.gamma, params.gamma - 1.0
    p, q, s1, s2 = params.p, params.q, params.sigma1, params.sigma2
    den = p * q - g * g
    q0 = (bg * (g + q) + g * s1 + s2 * q) / den
    p0 = (bg * (g + p) + g * s2 + s1 * p) / den
    fast = (n - bg) / g
    return Exponents(
        q0=q0,
        p0=p0,
        r0=n / q0,
        s0=n / p0,
        fast_rate_u=fast,
        v_threshold=p * fast - s2,
        intermediate_rate_v=(p * fast - (bg + s2)) / g,
        slow_endpoint_u=(q * fast - (bg + s1)) / g,
        slow_endpoint_v=(p * fast - (bg + s2)) / g,
    )


def subcriticality(params: Parameters, tol: float = EQUALITY_TOL) -> Subcriticality:
    """Compare (n+sigma1)/(gamma-1+q) + (n+sigma2)/(gamma-1+p) with the fast rate.

    Equality within ``tol`` is Critical; strictly greater is Subcritical
    (no ground states expected); strictly less is Supercritical.
    """
    validate(params)
    n, g = params.n, params.gamma - 1.0
    lhs = (n + params.sigma1) / (g + params.q) + (n + params.sigma2) / (g + params.p)
    fast = (n - params.beta * params.gamma) / g
    if abs(lhs - fast) <= tol:
        return Subcriticality.CRITICAL
    return Subcriticality.SUBCRITICAL if lhs > fast else Subcriticality.SUPERCRITICAL


def classify_regime(params: Parameters, tol: float = EQUALITY_TOL) -> RegimeReport:
    """Classify the tail regime of the second component and predict both exponents.

    The classification assumes q >= p and sigma1 <= sigma2.  If the input is
    ordered the other way it is relabeled (with a warning) and the report then
    refers to the relabeled pair; if neither labeling satisfies both
    orderings, the tuple is classified as given.
    """
    validate(params)
    sub = subcriticality(params, tol=tol)
    interchanged = False
    work = params
    if params.q < params.p or params.sigma1 > params.sigma2:
        swapped = params.swapped()
        if swapped.q >= swapped.p and swapped.sigma1 <= swapped.sigma2:
            warnings.warn(
                "interchanging (p, sigma2) <-> (q, sigma1) to obtain q >= p and "
                "sigma1 <= sigma2; the report refers to the relabeled pair",
                InterchangeWarning,
                stacklevel=2,
            )
            work = swapped
            interchanged = True
        else:
            warnings.warn(
                "neither labeling satisfies q >= p and sigma1 <= sigma2; "
                "classifying the tuple as given",
                InterchangeWarning,
                stacklevel=2,
            )
    exps = exponents(work)
    if exps.v_threshold > work.n + tol:
        regime, v_exp, v_log = Regime.FAST_FAST, exps.fast_rate_u, 0.0
    elif abs(exps.v_threshold - work.n) <= tol:
        regime, v_exp, v_log = Regime.LOGARITHMIC, exps.fast_rate_u, 1.0 / (work.gamma - 1.0)
    else:
        regime, v_exp, v_log = Regime.INTERMEDIATE, exps.intermediate_rate_v, 0.0
    return RegimeReport(
        regime=regime,
        predicted_u_exponent=exps.fast_rate_u,
        predicted_v_exponent=v_exp,
        v_log_power=v_log,
        subcriticality=sub,
        interchanged=interchanged,
    )


def integrability_interval(params: Parameters) -> tuple[tuple[float, float], tuple[float, float]]:
    """Open lower endpoints of the optimal integrability ranges for (u, v).

    Returns ((u_low, inf), (v_low, inf)) where membership holds for every
    exponent strictly above the lower endpoint, and fails at the endpoint.
    """
    exps = exponents(params)
    n, g = params.n, params.gamma - 1.0
    bg = params.beta * params.gamma
    u_low = n * g / (n - bg)
    den = params.p * exps.fast_rate_u - (bg + params.sigma2)
    if den <= 0.0:
        raise ParameterError(
            f"degenerate endpoint denominator p*(n-beta*gamma)/(gamma-1) - "
            f"(beta*gamma + sigma2) = {den} <= 0"
        )
    v_low = max(u_low, n * g / den)
    return (u_low, math.inf), (v_low, math.inf)
