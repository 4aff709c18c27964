"""A-priori period bounds and the relative-error corollary.

The linear-limit period is an upper bound for every amplitude. Two lower
bounds are provided. The corrected one is the period of a linear spring of
stiffness omega0^2 + sigma*y0^2/(m*l0*l^2). It is rigorous for all
amplitudes because that stiffness bounds the chord stiffness
F(y0)/(m*y0) = omega0^2 + 2*sigma*y0^2/(m*l*L*(L+l)), L = hypot(l, y0), from
above, and the chord stiffness is the largest F(y)/(m*y) on the orbit; the
added term exceeds the chord's excess by a factor of at least l/l0. The
other is a lighter variant kept for reporting because it circulates in that
form; it is dimensionally inconsistent and is never asserted against.

The corrected bounds confine the relative deviation of the period from its
linear limit to [-sigma*y0^2 / (4*T*l0*l), 0], which shrinks quadratically
in the amplitude. Once y0*y0 overflows, the lower bounds read 0 and the
relative-error bounds -inf: still true, where y0**2 would raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import TWO_PI, Oscillation, StringParams, rayleigh_period
from .quadrature import PeriodEstimate

__all__ = [
    "PeriodBounds",
    "SandwichReport",
    "upper_bound",
    "lower_bound_corrected",
    "lower_bound_printed",
    "relative_error_bounds",
    "rel_error_bound_printed",
    "compute_bounds",
    "check_sandwich",
]


@dataclass(frozen=True)
class PeriodBounds:
    lower_corrected: float
    lower_printed: float
    upper: float
    rel_error_bound_corrected: float
    rel_error_bound_printed: float


def upper_bound(params: StringParams) -> float:
    """The linear-limit period; the exact period never exceeds it."""
    return rayleigh_period(params)


def lower_bound_corrected(osc: Oscillation) -> float:
    """Rigorous lower bound 2*pi / sqrt(omega0^2 + sigma*y0^2/(m*l0*l^2))."""
    p = osc.params
    y0_sq = osc.y0 * osc.y0
    stiff = p.linear_stiffness + p.sigma * y0_sq / (p.mass * p.l0 * (p.l * p.l))
    return TWO_PI / math.sqrt(stiff)


def lower_bound_printed(osc: Oscillation) -> float:
    """Reported-only variant with sigma*y0^2/(l*l0) in place of the corrected
    stiffness excess. Not dimensionally consistent; never asserted against."""
    p = osc.params
    stiff = p.linear_stiffness + p.sigma * (osc.y0 * osc.y0) / (p.l * p.l0)
    return TWO_PI / math.sqrt(stiff)


def relative_error_bounds(osc: Oscillation) -> tuple[float, float]:
    """Bounds on (P - P_lin)/P: within [-sigma*y0^2/(4*T*l0*l), 0]."""
    p = osc.params
    low = -p.sigma * (osc.y0 * osc.y0) / (4.0 * p.rest_tension * p.l0 * p.l)
    return low, 0.0


def rel_error_bound_printed(osc: Oscillation) -> float:
    """Reported-only lower bound -y0^2*m / (4*T*l0); see lower_bound_printed."""
    p = osc.params
    return -(osc.y0 * osc.y0) * p.mass / (4.0 * p.rest_tension * p.l0)


def compute_bounds(osc: Oscillation) -> PeriodBounds:
    low, _ = relative_error_bounds(osc)
    return PeriodBounds(
        lower_corrected=lower_bound_corrected(osc),
        lower_printed=lower_bound_printed(osc),
        upper=upper_bound(osc.params),
        rel_error_bound_corrected=low,
        rel_error_bound_printed=rel_error_bound_printed(osc),
    )


@dataclass(frozen=True)
class SandwichReport:
    """Outcome of checking one period estimate against the a-priori bounds.

    slack absorbs the engine's own error estimate plus a relative margin for
    the non-strict inequalities. strict_upper_ok additionally demands a
    genuine gap below the upper bound whenever the amplitude is finite; it is
    a plain float comparison because the engines resolve the period orders of
    magnitude more finely than the gap ever shrinks over valid inputs.
    """

    lower: float
    upper: float
    value: float
    slack: float
    lower_ok: bool
    upper_ok: bool
    strict_upper_ok: bool

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok and self.strict_upper_ok


def check_sandwich(
    osc: Oscillation,
    estimate: PeriodEstimate,
    rel_slack: float = 1e-9,
) -> SandwichReport:
    lower = lower_bound_corrected(osc)
    upper = upper_bound(osc.params)
    slack = rel_slack * upper + estimate.err_estimate
    value = estimate.value
    lower_ok = value >= lower - slack
    upper_ok = value <= upper + slack
    strict = upper_ok if osc.is_degenerate else value < upper
    return SandwichReport(lower, upper, value, slack, lower_ok, upper_ok, strict)
