"""A-priori period bounds and the relative-error corollary.

compute_bounds forms every bound of one oscillation in one body and returns
them as the fields of PeriodBounds, which says which are rigorous; that
record is the only public way to them. check_sandwich tests an estimate
against the rigorous ones.

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
which shrinks quadratically in the amplitude. Every bound is formed on the
unit values of model.StringParams and scaled back. Where y0*y0 overflows,
the corrected lower bound is formed without it, the printed one reads 0 and
the relative-error bounds -inf: still true, where y0**2 would raise.

check_sandwich demands value < upper only where the gap below upper is
resolvable. The potential is convex in y^2, so its chord through 0 gives a
second upper bound, the secant-energy period
2*pi/sqrt((2*sigma/m)*(1/l0 - 2/(r+l))) with r = hypot(l, y0). It lies
below the linear-limit period by about (y0/l)^2/(8*(l/l0 - 1)) of it. Where
that distance exceeds the sandwich's slack, a correct estimate must fall
below upper. Elsewhere the strict test is the slack test: the gap drops
under the engines' resolution near y0/l = 4e-9 at l/l0 = 1.01 and near
1e-5 at l/l0 = 1e5, and at y0 = 0 the secant bound is the linear-limit
period itself.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import TWO_PI, Oscillation, StringParams, _scaled, rayleigh_period
from .quadrature import PeriodEstimate, _unit_radicand

__all__ = ["PeriodBounds", "SandwichReport", "compute_bounds", "check_sandwich"]


class PeriodBounds(NamedTuple):
    """The a-priori bounds of one oscillation, omega0^2 = 2*T/(m*l) and
    T = sigma*(l - l0)/l0 the rest tension:

    lower_corrected            2*pi/sqrt(omega0^2 + sigma*y0^2/(m*l0*l^2)), rigorous
    lower_printed              2*pi/sqrt(omega0^2 + sigma*y0^2/(l*l0)), report-only
    upper                      2*pi/omega0, the linear-limit period, rigorous
    rel_error_bound_corrected  -y0^2/(4*(l - l0)*l) <= (P - upper)/P, rigorous
    rel_error_bound_printed    -y0^2*m/(4*T*l0), report-only
    """

    lower_corrected: float
    lower_printed: float
    upper: float
    rel_error_bound_corrected: float
    rel_error_bound_printed: float


def _lower_corrected(p: StringParams, y0: float) -> float:
    """PeriodBounds.lower_corrected on the unit values, y0 the unit
    amplitude. Where the stiffness sum overflows, its root is formed as
    hypot(omega0, y0*sqrt(sigma/(m*l0))/l), which never squares y0; the bound
    reads 0, still true, only where that overflows too."""
    l0, l, w = p._unit_l0, p._unit_l, p._unit_stiffness
    stiff = w + p._unit_sigma * (y0 * y0) / (p._unit_mass * l0 * (l * l))
    if stiff < math.inf:
        root = math.sqrt(stiff)
    else:
        root = math.hypot(math.sqrt(w), y0 * math.sqrt(p._unit_sigma / (p._unit_mass * l0)) / l)
    return _scaled(TWO_PI / root, p._period_exp)


def compute_bounds(osc: Oscillation) -> PeriodBounds:
    p = osc.params
    l0, l, y0 = p._unit_l0, p._unit_l, osc._unit_y0
    y0_sq = y0 * y0
    # the printed excess goes as sigma alone; it is brought to the unit
    # stiffness's scale, below an ulp of it where that overflows
    excess = p._unit_sigma * y0_sq / (l * l0)
    scaled = _scaled(excess, 2 * (p._sigma_exp + p._period_exp))
    if scaled < math.inf:
        lower_printed = _scaled(TWO_PI / math.sqrt(p._unit_stiffness + scaled), p._period_exp)
    else:
        lower_printed = _scaled(TWO_PI / math.sqrt(excess), -p._sigma_exp)
    # sigma cancels from the corrected -sigma*y0^2/(4*T*l0*l), which is free
    # of units; the printed one goes as a period squared and is scaled back
    tension = p._unit_sigma * (l - l0) / l0
    return PeriodBounds(
        _lower_corrected(p, y0),
        lower_printed,
        rayleigh_period(p),
        -y0_sq / (4.0 * (l - l0) * l),
        _scaled(-y0_sq * p._unit_mass / (4.0 * tension * l0), 2 * p._period_exp),
    )


class SandwichReport(NamedTuple):
    """Outcome of checking one period estimate against the a-priori bounds.

    slack is the engine's own error estimate plus the bounds' rounding,
    _BOUND_ULPS ulps of upper; it widens both inequalities. strict_upper_ok
    demands value < upper where the secant bound lies more than slack below
    upper (see the module docstring), and equals upper_ok elsewhere.
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

    @property
    def violation(self) -> float:
        """How far value lies outside what the verdict allows, over upper."""
        strictness = 0.0 if self.strict_upper_ok else self.value - self.upper
        below = self.lower - self.slack - self.value
        return max(below, self.value - self.upper - self.slack, 0.0, strictness) / self.upper


def _secant_upper(osc: Oscillation) -> float:
    """Secant-energy bound 2*pi/sqrt((2*sigma/m)*g(0)) >= P.

    speed^2 = (2*sigma/m)*(y0^2 - y^2)*g(y) and g rises with |y|, so g(0) =
    1/l0 - 2/(l + hypot(l, y0)) bounds the period from above.
    """
    p = osc.params
    stiff = (2.0 * p._unit_sigma / p._unit_mass) * _unit_radicand(p, osc._unit_y0)(0.0)
    return _scaled(TWO_PI / math.sqrt(stiff), p._period_exp)


# Rounding of the bounds, in ulps of upper. Each is a chain of roundings on
# exact unit values that never cancels: l - l0 has exact operands and sums
# add positive terms. Count TWO_PI and each +, -, *, / and sqrt as one, hypot
# as two and the power-of-two scalings as none; a product or quotient adds
# its operands' counts, a sum takes the larger, sqrt halves. upper counts 5.5,
# lower_corrected 6.5, _secant_upper 11, and a count n bounds the relative
# error by gamma_n = n*u/(1 - n*u) (Higham, Accuracy and Stability, 3.1),
# under n ulps of upper; one more ulp covers the rounding of the comparisons.
_BOUND_ULPS = 12.0


def check_sandwich(osc: Oscillation, estimate: PeriodEstimate) -> SandwichReport:
    lower = _lower_corrected(osc.params, osc._unit_y0)
    upper = rayleigh_period(osc.params)
    slack = estimate.err_estimate + _BOUND_ULPS * math.ulp(upper)
    value = estimate.value
    lower_ok = value >= lower - slack
    upper_ok = value <= upper + slack
    # the period lies at or below the secant bound, so a correct estimate
    # may reach upper only where that bound sits within slack of it
    strict = value < upper or (upper_ok and upper - _secant_upper(osc) <= slack)
    return SandwichReport(lower, upper, value, slack, lower_ok, upper_ok, strict)
