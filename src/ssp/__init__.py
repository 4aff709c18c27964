"""Oscillation period of a mass centered on a stretched elastic string.

Three independent routes to the exact period (a trapezoid rule on the
half-oscillation integral, a closed form built from Carlson symmetric
elliptic integrals, and direct simulation of the equation of motion), plus
the small-amplitude approximation and a-priori bounds that sandwich the
period for every amplitude.
"""

from .bounds import (
    PeriodBounds,
    SandwichReport,
    check_sandwich,
    compute_bounds,
    lower_bound_corrected,
    lower_bound_printed,
    rel_error_bound_printed,
    relative_error_bounds,
    upper_bound,
)
from .elliptic import (
    QuarticRoots,
    period_elliptic,
    quartic_coefficients,
    quartic_roots,
    rc,
    rf,
    rj,
    to_z_space,
)
from .errors import (
    ConvergenceFailure,
    DegenerateAmplitude,
    EngineFailure,
    InsufficientEvents,
    InvalidParameters,
    MaxStepsExceeded,
    SspError,
    StepFailure,
)
from .model import (
    Oscillation,
    StringParams,
    acceleration,
    energy,
    rayleigh_period,
    rayleigh_solution,
    tension,
    vertical_force,
)
from .odesim import SimConfig, Trajectory, integrate, measure_period, simulate
from .quadrature import (
    Method,
    PeriodEstimate,
    QuadratureConfig,
    exact_period,
    radicand_g,
    speed,
)
from .verify import CheckResult, VerifyReport, run_invariant_suite

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConvergenceFailure",
    "DegenerateAmplitude",
    "EngineFailure",
    "InsufficientEvents",
    "InvalidParameters",
    "MaxStepsExceeded",
    "Method",
    "Oscillation",
    "PeriodBounds",
    "PeriodEstimate",
    "QuadratureConfig",
    "QuarticRoots",
    "SandwichReport",
    "SimConfig",
    "SspError",
    "StepFailure",
    "StringParams",
    "Trajectory",
    "VerifyReport",
    "acceleration",
    "check_sandwich",
    "compute_bounds",
    "energy",
    "exact_period",
    "integrate",
    "lower_bound_corrected",
    "lower_bound_printed",
    "measure_period",
    "period_elliptic",
    "quartic_coefficients",
    "quartic_roots",
    "radicand_g",
    "rayleigh_period",
    "rayleigh_solution",
    "rc",
    "rel_error_bound_printed",
    "relative_error_bounds",
    "rf",
    "rj",
    "run_invariant_suite",
    "simulate",
    "speed",
    "tension",
    "to_z_space",
    "upper_bound",
    "vertical_force",
]
