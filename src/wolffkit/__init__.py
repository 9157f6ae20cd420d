"""wolffkit: weighted nonlinear potential operators and radial ground states.

Numerical evaluation of the Wolff and Riesz potentials of radial sources,
fixed-point and shooting solvers for the associated coupled systems, and a
verification harness for the decay-rate trichotomy, optimal integrability,
and potential inequalities.
"""

from .errors import (
    DegenerateIterationError,
    DivergentIntegralError,
    NoBracketError,
    NotConvergedError,
    ParameterError,
    ProfileFormatError,
    WolffkitError,
)
from .geometry import CapKernel, ball_mass, cap_fraction
from .params import (
    Exponents,
    Parameters,
    Regime,
    RegimeReport,
    Subcriticality,
    classify_regime,
    exponents,
    integrability_interval,
    subcriticality,
    validate,
)
from .potential import PotentialConfig, riesz_eval, weighted_source, wolff_eval
from .quasilinear import (
    GroundStateConfig,
    ShootConfig,
    Trajectory,
    find_fast_ground_state,
    shoot,
)
from .radial import (
    INFINITE,
    RadialFunction,
    RadialGrid,
    RateFit,
    fit_decay_rate,
    is_infinite,
    lp_norm,
    read_profile,
    sphere_surface,
    unit_ball_volume,
    write_profile,
)
from .solver import (
    SolveConfig,
    SolveResult,
    bubble_profile,
    exact_bubble,
    make_ansatz,
    solve_system,
    system_residual,
)
from .verify import (
    CheckEntry,
    VerificationReport,
    check_fast_rates,
    check_inequalities,
    check_integrability,
    check_log_limit,
    run_suite,
)

__version__ = "0.1.0"
