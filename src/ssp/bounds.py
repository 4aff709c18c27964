"""A-priori period bounds and the relative-error corollary.

compute_bounds forms every bound of one oscillation in one body and returns
them as the fields of PeriodBounds, which says which are rigorous; that
record is the only public way to them. check_sandwich states how far an
estimate lies outside rigorous bounds, in slacks, passing at most 1.

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
linear limit to [-sigma*y0^2 / (4*T*l0*l), 0] = [-y0^2 / (4*(l-l0)*l), 0],
which shrinks quadratically in the amplitude. The paper prints this
corollary as -y0^2*m/(4*T*l0), which goes as a period squared where a
relative deviation is free of units, so it is not formed. Every bound is
formed on the unit values of model.StringParams and scaled back. Both lower
bounds are formed by _lower, without y0*y0 where their stiffness sum
overflows, and the relative-error bound with y0's binade taken out before
it is squared: it reads -inf only where it overflows, still true, where
y0**2 would raise.

check_sandwich tests an estimate against the corrected lower bound and the
secant-energy period 2*pi/sqrt((2*sigma/m)*g(0)), g(0) = 1/l0 - 2/(l +
hypot(l, y0)), the upper bound from the potential's chord through 0 (it is
convex in y^2). That lies below the linear-limit period, at small amplitude
by about (y0/l)^2/(8*(l/l0 - 1)) of it, and is that period at y0 = 0, so
one inequality covers every amplitude: an estimate at the linear-limit
period fails wherever the secant bound lies beyond the slack below it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import TWO_PI, Oscillation, StringParams, _scaled, rayleigh_period
from .quadrature import PeriodEstimate

__all__ = ["PeriodBounds", "SandwichReport", "compute_bounds", "check_sandwich"]


class PeriodBounds(NamedTuple):
    """The a-priori bounds of one oscillation, omega0^2 = 2*T/(m*l) and
    T = sigma*(l - l0)/l0 the rest tension:

    lower_corrected            2*pi/sqrt(omega0^2 + sigma*y0^2/(m*l0*l^2)), rigorous
    lower_printed              2*pi/sqrt(omega0^2 + sigma*y0^2/(l*l0)), report-only
    upper                      2*pi/omega0, the linear-limit period, rigorous
    rel_error_bound_corrected  -y0^2/(4*(l - l0)*l) <= (P - upper)/P, rigorous
    """

    lower_corrected: float
    lower_printed: float
    upper: float
    rel_error_bound_corrected: float


def _lower(p: StringParams, y0: float, den: float, n: int) -> float:
    """2*pi/sqrt(w + sigma*(y0*2**n)**2/den) on the unit values, scaled back,
    w the unit stiffness. Where that sum overflows, both stiffness roots,
    sqrt(w) and y0*sqrt(4*q)*2**n with q = sigma/(4*den), which cannot
    overflow, are divided exactly by 2**(e + n + 1), e the exponent of y0,
    and summed by hypot (Blue, ACM TOMS 4 (1978) 15-23): nothing squares y0,
    and the bound reads 0 only where it is below the floats."""
    ys = _scaled(y0, n)
    stiff = p._unit_stiffness + p._unit_sigma * (ys * ys) / den
    if stiff < math.inf:
        return _scaled(TWO_PI / math.sqrt(stiff), p._period_exp)
    frac, e = math.frexp(y0)
    q = 0.25 * p._unit_sigma / den
    root = math.hypot(math.ldexp(math.sqrt(p._unit_stiffness), -e - n - 1), frac * math.sqrt(q))
    return _scaled(TWO_PI / root, p._period_exp - e - n - 1)


def _lower_corrected(p: StringParams, y0: float) -> float:
    """PeriodBounds.lower_corrected on the unit values, y0 the unit amplitude."""
    return _lower(p, y0, p._unit_mass * p._unit_l0 * (p._unit_l * p._unit_l), 0)


def compute_bounds(osc: Oscillation) -> PeriodBounds:
    p = osc.params
    l0, l, y0 = p._unit_l0, p._unit_l, osc._unit_y0
    # sigma cancels from the relative bound -sigma*y0^2/(4*T*l0*l), free of
    # units. y0's binade is taken out before the square and put back with the
    # scaling, as y0*y0 on the unit values underflows where the bound is a
    # normal float; it is read off the physical y0, as the unit one underflows
    # where y0/l is below about 1e-308. 0.0 - x, not -x, reads 0.0 at y0 = 0
    frac, k = math.frexp(osc.y0)
    k -= 2 * p._length_exp
    return PeriodBounds(
        _lower_corrected(p, y0),
        # the printed excess is formed on the unit stiffness's scale, y0 first
        _lower(p, y0, l * l0, p._sigma_exp + p._period_exp),
        rayleigh_period(p),
        _scaled(0.0 - frac * frac / (4.0 * (l - l0) * l), 2 * k),
    )


class SandwichReport(NamedTuple):
    """Outcome of checking one period estimate against the rigorous bounds:
    lower is PeriodBounds.lower_corrected and upper the secant-energy bound
    (see the module docstring), at or below PeriodBounds.upper.

    slack is the engine's own error estimate plus the bounds' rounding,
    _BOUND_ULPS ulps of upper. deviation is max(lower - value, value -
    upper)/slack, signed: negative inside the bounds, above 1 beyond the
    slack, NaN for a NaN value.
    """

    lower: float
    upper: float
    value: float
    slack: float
    deviation: float

    @property
    def passed(self) -> bool:
        return self.deviation <= 1.0


# Rounding of the bounds, in ulps of the secant bound. Each is a chain of
# roundings on exact unit values that never cancels: l - l0 has exact
# operands and sums add positive terms. Count TWO_PI and each +, -, *, / and
# sqrt as one, hypot as two and power-of-two scalings as none; a product or
# quotient adds its operands' counts, a sum takes the larger, sqrt halves.
# lower_corrected counts 6.5 (8 past its overflow), the secant bound 11: z0 -
# l0 8, + (l - l0) 9, over l + z0 and l0 14, times 0.5*sigma/m 16, root 9,
# 2*pi over it 11. A count n bounds the relative error by gamma_n = n*u/(1 -
# n*u) (Higham, Accuracy and Stability, 3.1), under n ulps of the secant bound.
# The comparisons are exact (see check_sandwich); a 12th ulp rounds slack's sum.
_BOUND_ULPS = 12.0


def check_sandwich(osc: Oscillation, estimate: PeriodEstimate) -> SandwichReport:
    p, y0 = osc.params, osc._unit_y0
    l0, l = p._unit_l0, p._unit_l
    # speed^2 = (2*sigma/m)*(y0^2 - y^2)*g(y) and g rises with |y|, so g(0)
    # bounds the period from above; g(0) = ((l - l0) + (z0 - l0))/((l + z0)*l0)
    # with z0 - l0 as in elliptic._root_gaps, free of cancellation and of y0**2.
    # A quarter of the stiffness stays finite, and the period is doubled back.
    z0 = math.hypot(l, y0)
    dz0 = (l - l0) * (l + l0) / (z0 + l0) + y0 * (y0 / (z0 + l0))
    stiff = (0.5 * p._unit_sigma / p._unit_mass) * (((l - l0) + dz0) / (l + z0) / l0)
    upper = _scaled(TWO_PI / math.sqrt(stiff), p._period_exp - 1)
    lower = _lower_corrected(p, y0)
    slack = estimate.err_estimate + _BOUND_ULPS * math.ulp(upper)
    value = estimate.value
    # near a bound value's difference from it is exact (Sterbenz), and so is
    # a rounded quotient's test against 1: passed is lower - slack <= value
    # <= upper + slack summed exactly. A NaN value makes both terms NaN.
    below, above = lower - value, value - upper
    return SandwichReport(lower, upper, value, slack, (below if below > above else above) / slack)
