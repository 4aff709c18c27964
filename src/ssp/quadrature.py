"""Exact period by a nested trapezoid ladder.

Releasing the mass from rest at amplitude y0, energy conservation gives

    speed(y)^2 = (2*sigma/m) * (y0^2 - y^2) * g(y),
    g(y) = 1/l0 - 2/(sqrt(l^2+y^2) + sqrt(l^2+y0^2)),

so the period is 4*sqrt(m/(2*sigma)) * int_0^y0 dy / (sqrt(y0^2-y^2)*sqrt(g)).
The substitution y = l*sinh(s), s = S*sin(psi), S = asinh(y0/l), with psi in
[0, pi/2], removes the inverse-square-root endpoint singularity and, unlike
y = y0*sin(theta) alone, keeps the integrand smooth at every amplitude:

    P = 4*sqrt(m/(2*sigma)) * int_0^{pi/2} (1 + e^{-2s}) * e^{-x}
        * sqrt(q(x)*q(S+s)/g(l*sinh(s))) dpsi,   q(u) = u/(1 - e^{-2u}),

where a = pi/4 - psi/2 and x = S - s = 2*S*sin(a)^2 are formed without
cancellation. Since 1 + sin(psi) = 2*cos(a)^2, S drops out of the Jacobian
exactly: at y0 = 0 the integrand is 1/sqrt(g(0)), with q(0) = 1/2, and the
ladder returns the linear-limit period. The integrand is analytic and even
about both ends of [0, pi/2], so the trapezoid rule with half-weighted
endpoints is the trapezoid rule over a whole period, and it converges
geometrically: each halving of the step roughly squares the error
(Trefethen & Weideman, SIAM Review 56 (2014) 385-458). Above y0/l = 2**60
the period is taken at y0 = 2**60*l, which it matches to under 1/64 of an
ulp (model._Y0_CAP), so S stays below 42.3. At rel_tol = 1e-12 the ladder
stops at 4 to 16 intervals for y0/l <= 1 and at 8 to 64 beyond, where the
integrand's feature near psi = pi/2 narrows like 1/sqrt(S).
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple

from .errors import EngineFailure, InvalidParameters
from .model import _Y0_CAP, Oscillation, StringParams, _from_unit_scale, _scaled

__all__ = [
    "Method",
    "PeriodEstimate",
    "radicand_g",
    "speed",
    "exact_period",
]


class Method(enum.Enum):
    """Which engine produced a period estimate."""

    QUADRATURE = "quadrature"
    ELLIPTIC = "elliptic"
    ODE_SIM = "ode"
    # no longer produced; perfbench --trace still looks this member up
    ELLIPTIC_FALLBACK = "elliptic-fallback"


class PeriodEstimate(NamedTuple):
    """A period value plus the method tag and an error estimate.

    err_estimate is an estimated absolute numerical error (same unit as
    value), not a rigorous bound.
    """

    value: float
    method: Method
    err_estimate: float


def radicand_g(osc: Oscillation, y: float) -> float:
    """g(y) = 1/l0 - 2/(sqrt(l^2+y^2) + sqrt(l^2+y0^2)), evaluated stably.

    g goes as 1/length: it is formed on the unit lengths (model.StringParams),
    y scaled in and the result scaled back, exactly (see _unit_radicand); it
    reads +inf where g is beyond the float range. Where y/l is beyond the
    float range, g is 1/l0 to within rounding.
    """
    e = osc.params._length_exp
    y = _scaled(y, -2 * e)
    if math.isinf(y):
        return 1.0 / osc.params.l0
    return _scaled(_unit_radicand(osc.params, osc._unit_y0)(0.5 * y), -2 * e)


def _unit_radicand(p: StringParams, y0: float) -> Callable[[float], float]:
    """radicand_g on the unit lengths of p, y0 among them, as a function of
    hy = y/2. The terms that do not depend on y are formed once. g is
    rewritten as ((z-l0) + (z0-l0)) / (l0*(z+z0)) with
    z - l0 = (l^2 - l0^2)/(z + l0) + y*(y/(z + l0)): no cancellation even for
    l/l0 - 1 near machine epsilon, and no square of y that could overflow.
    Every length is halved first, exactly: z + z0 and dz + dz0 themselves
    overflow once y and y0 near the top of the float range, and so does
    l0*(z + z0)/2 where l0 > 1. The numerator is then half of dz + dz0 and
    the denominator a quarter of l0*(z + z0), so the quotient is halved.
    """
    hl0, hl, hy0 = 0.5 * p._unit_l0, 0.5 * p._unit_l, 0.5 * y0
    hz0 = math.hypot(hl, hy0)
    quarter_gap = (hl - hl0) * (hl + hl0)
    hdz0 = quarter_gap / (hz0 + hl0) + hy0 * (hy0 / (hz0 + hl0))
    hypot = math.hypot

    def g(hy: float) -> float:
        hz = hypot(hl, hy)
        hzl = hz + hl0
        return 0.5 * ((quarter_gap / hzl + hy * (hy / hzl) + hdz0) / (hl0 * (hz + hz0)))

    return g


def speed(osc: Oscillation, y: float) -> float:
    """|dy/dt| at displacement y for release from rest at y0."""
    if not abs(y) <= osc.y0:
        raise InvalidParameters(
            f"|y| must not exceed the amplitude (|y|={abs(y)!r}, y0={osc.y0!r})"
        )
    # a product of square roots: the radicand itself overflows at large
    # sigma/m or y0 while the speed is still finite. It is formed on the unit
    # values, since 2*sigma alone may overflow, and goes as length/period;
    # amplitudes above 1 are quartered, exactly, since y0 + |y| may overflow;
    # a speed beyond the float range reads inf
    p = osc.params
    y0, y = osc._unit_y0, math.ldexp(y, -2 * p._length_exp)
    c = 0.25 if y0 > 1.0 else 1.0
    ay = c * abs(y)
    return _scaled(
        math.sqrt(2.0 * p._unit_sigma) / math.sqrt(p._unit_mass)
        * math.sqrt(c * y0 - ay)
        * math.sqrt(c * y0 + ay)
        * math.sqrt(_unit_radicand(p, osc._unit_y0)(0.5 * y)) / c,
        2 * p._length_exp - p._period_exp,
    )


# The finest level has 2**_TOP intervals on [0, pi/2].
_TOP = 9
# Rounding floor of err_estimate: this many ulps of the value per node.
_ULPS_PER_NODE = 4.0


def _node(k: int, n: int) -> tuple[float, float]:
    """(sin(psi), sin(a)^2) at psi = k*pi/(2n), a = pi/4 - psi/2."""
    a = 0.25 * math.pi * (n - k) / n
    return math.sin(0.5 * math.pi * k / n), math.sin(a) ** 2


# _NODES[0] holds the two endpoints; _NODES[j] the nodes that level 2**j adds.
_NODES = [[_node(0, 1), _node(1, 1)]] + [
    [_node(k, 2**j) for k in range(1, 2**j, 2)] for j in range(1, _TOP + 1)
]


# tracer-only: perfbench --trace wraps it here and as elliptic.rf and elliptic.rj
def adaptive_gk(*args, **kwargs):
    raise NotImplementedError("a removed engine: this name is kept only for tracing")


def trapezoid_ladder(f, rel_tol: float) -> tuple[float, float]:
    """Integral of f(sin(psi), sin(a)^2) over psi in [0, pi/2].

    f must be even about both ends. The levels N = 1, 2, 4, ... intervals
    reuse every node. The ladder stops at the first N with |T_N - T_{N/2}| <=
    rel_tol*T_N and |T_{N/2} - T_{N/4}| <= sqrt(rel_tol)*T_N, so one
    accidental agreement of two levels cannot end it, and raises
    EngineFailure past N = 2**_TOP. Returns (T_N, error estimate): the
    last level difference plus a rounding floor of a few ulps per node.
    """
    acc = 0.5 * (f(*_NODES[0][0]) + f(*_NODES[0][1]))
    h = 0.5 * math.pi
    total = acc * h
    diff = prev_diff = math.inf
    nodes = 2
    for level in _NODES[1:]:
        for node in level:
            acc += f(*node)
        nodes += len(level)
        h *= 0.5
        prev_diff, diff = diff, abs(acc * h - total)
        total = acc * h
        if diff <= rel_tol * total and prev_diff <= math.sqrt(rel_tol) * total:
            return total, diff + _ULPS_PER_NODE * nodes * math.ulp(total)
    raise EngineFailure(
        f"trapezoid ladder did not converge at {nodes - 1} intervals: "
        f"level difference {diff:.3e} of {total:.6e}"
    )


def exact_period(osc: Oscillation, rel_tol: float = 1e-12) -> PeriodEstimate:
    """Exact period by the trapezoid ladder on the sinh-substituted integral.

    rel_tol, in (0, 1), is the ladder's relative tolerance. The same
    formula covers every amplitude down to y0 = 0, where it gives the
    linear-limit period. It runs on the unit values (see model.StringParams).
    """
    if not (0.0 < rel_tol < 1.0):
        raise InvalidParameters(f"rel_tol must be in (0, 1), got {rel_tol!r}")
    p = osc.params
    # above the amplitude cap the period is its value at the cap (see
    # model._Y0_CAP, which also says why err_estimate stands as it is)
    hl, y0 = 0.5 * p._unit_l, min(osc._unit_y0, _Y0_CAP * p._unit_l)
    g = _unit_radicand(p, y0)
    exp, expm1, sinh, sqrt = math.exp, math.expm1, math.sinh, math.sqrt
    big_s = math.asinh(y0 / p._unit_l)
    two_s = 2.0 * big_s

    def integrand(sin_psi: float, sin2_a: float) -> float:
        # J/sqrt(g) with cosh(s), sinh(x) and sinh(S+s) written through
        # exp(-...) and expm1 so that nothing overflows as S grows;
        # q(u) = u/(1 - exp(-2u)) with its limit 1/2 at u = 0
        s = big_s * sin_psi
        x = two_s * sin2_a
        u = big_s + s
        q2 = (x / -expm1(-2.0 * x) if x > 0.0 else 0.5) * (
            u / -expm1(-2.0 * u) if u > 0.0 else 0.5
        )
        return (1.0 + exp(-2.0 * s)) * exp(-x) * sqrt(q2 / g(hl * sinh(s)))

    integral, err = trapezoid_ladder(integrand, rel_tol)
    # 2*sigma alone may overflow: the prefactor is formed on the unit scale
    pref = 4.0 * math.sqrt(p._unit_mass) / math.sqrt(2.0 * p._unit_sigma)
    value = _from_unit_scale(p, pref * integral)
    if not 0.0 < value < math.inf:
        raise EngineFailure(
            f"quadrature left the float range at l={p.l!r}, y0={osc.y0!r}: {value!r}"
        )
    return PeriodEstimate(value, Method.QUADRATURE, _from_unit_scale(p, pref * err))
