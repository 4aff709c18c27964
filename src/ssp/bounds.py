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

check_sandwich demands value < upper only where the gap below upper is
resolvable. The potential is convex in y^2, so its chord through 0 gives a
second upper bound, the secant-energy period
2*pi/sqrt((2*sigma/m)*(1/l0 - 2/(r+l))) with r = hypot(l, y0). It lies
below the linear-limit period by about (y0/l)^2/(8*(l/l0 - 1)) of it. Where
that distance exceeds the estimate's error plus two ulps of upper, a
correct estimate must fall below upper. Elsewhere the strict test is the
slack test: the gap drops under the engines' resolution near y0/l = 4e-9
at l/l0 = 1.01 and near 1e-5 at l/l0 = 1e5. Below the degeneracy threshold
(y0 < 1e-9*l) the engines return the linear-limit period itself with zero
error, so the strict side is waived there whatever the secant says: near
l/l0 = 1 the true gap is still above two ulps at those amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    TWO_PI,
    Oscillation,
    StringParams,
    _from_unit_scale,
    _linear_stiffness,
    rayleigh_period,
)
from .quadrature import PeriodEstimate, radicand_g

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
    stiff = p._unit_stiffness + p._unit_sigma * y0_sq / (
        p._unit_mass * p.l0 * (p.l * p.l)
    )
    return _from_unit_scale(p, TWO_PI / math.sqrt(stiff))


def lower_bound_printed(osc: Oscillation) -> float:
    """Reported-only variant with sigma*y0^2/(l*l0) in place of the corrected
    stiffness excess. Not dimensionally consistent; never asserted against."""
    p = osc.params
    # proportional to sigma but not to 1/mass: scale sigma alone
    lin = _linear_stiffness(p.l0, p.l, p._unit_sigma, p.mass)
    stiff = lin + p._unit_sigma * (osc.y0 * osc.y0) / (p.l * p.l0)
    return math.ldexp(TWO_PI / math.sqrt(stiff), -p._sigma_exp)


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
    the non-strict inequalities. strict_upper_ok demands value < upper
    where the amplitude is not degenerate and the gap below upper is
    resolvable (see the module docstring), and equals upper_ok elsewhere.
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


def _secant_upper(osc: Oscillation) -> float:
    """Secant-energy bound 2*pi/sqrt((2*sigma/m)*g(0)) >= P.

    speed^2 = (2*sigma/m)*(y0^2 - y^2)*g(y) and g rises with |y|, so g(0) =
    1/l0 - 2/(l + hypot(l, y0)) bounds the period from above.
    """
    p = osc.params
    stiff = (2.0 * p._unit_sigma / p._unit_mass) * radicand_g(osc, 0.0)
    return _from_unit_scale(p, TWO_PI / math.sqrt(stiff))


# Rounding allowance of the strictness test, in ulps of the upper bound.
_STRICT_ULPS = 2.0


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
    # the period lies at or below the secant bound, so a correct estimate
    # may reach upper only where that bound sits within err of it; degenerate
    # amplitudes are reported as the harmonic limit itself
    strict = value < upper or (
        upper_ok
        and (
            osc.is_degenerate
            or upper - _secant_upper(osc)
            <= estimate.err_estimate + _STRICT_ULPS * math.ulp(upper)
        )
    )
    return SandwichReport(lower, upper, value, slack, lower_ok, upper_ok, strict)
