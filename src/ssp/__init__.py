"""Oscillation period of a mass centered on a stretched elastic string.

Three independent routes to the exact period (a trapezoid rule on the
half-oscillation integral, a closed form built from one Bulirsch generalized
complete elliptic integral, and direct simulation of the equation of motion),
plus the small-amplitude approximation and a-priori bounds that sandwich the
period for every amplitude, all fields of one compute_bounds record. Kernels
(radicand_g, quartic_roots, ...) are imported from their own modules.
"""

from .bounds import PeriodBounds, SandwichReport, check_sandwich, compute_bounds
from .elliptic import period_elliptic
from .errors import EngineFailure, InvalidParameters, SspError
from .model import Oscillation, StringParams, rayleigh_period
from .odesim import SimConfig, Trajectory, integrate, measure_period, simulate
from .quadrature import Method, PeriodEstimate, exact_period
from .verify import CheckResult, VerifyReport, run_invariant_suite

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "EngineFailure",
    "InvalidParameters",
    "Method",
    "Oscillation",
    "PeriodBounds",
    "PeriodEstimate",
    "SandwichReport",
    "SimConfig",
    "SspError",
    "StringParams",
    "Trajectory",
    "VerifyReport",
    "check_sandwich",
    "compute_bounds",
    "exact_period",
    "integrate",
    "measure_period",
    "period_elliptic",
    "rayleigh_period",
    "run_invariant_suite",
    "simulate",
]
