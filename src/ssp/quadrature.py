"""Exact period by a nested trapezoid ladder.

Releasing the mass from rest at amplitude y0, energy conservation gives

    (dy/dt)^2 = (2*sigma/m) * (y0^2 - y^2) * g(y),
    g(y) = 1/l0 - 2/(z + z0),   z = sqrt(l^2+y^2),  z0 = sqrt(l^2+y0^2),

so the period is 4*sqrt(m/(2*sigma)) * int_0^y0 dy / (sqrt(y0^2-y^2)*sqrt(g)).
The substitution y = l*sinh(s), s = S*sin(psi), S = asinh(y0/l), with psi in
[0, pi/2], removes the inverse-square-root endpoint singularity and, unlike
y = y0*sin(theta) alone, keeps the integrand smooth at every amplitude.
Then z = l*cosh(s), dy = z*ds, y0^2 - y^2 = (z0 - z)*(z0 + z) and z0 - z =
2*l*sinh(v)*sinh(w), with v = (S+s)/2 and w = (S-s)/2 = S*sin(a)^2 for
a = pi/4 - psi/2, free of cancellation; S*cos(psi) = 2*sqrt(v*w). As
g = d/(l0*(z + z0)) with d = (z - l0) + (z0 - l0), the factor z + z0 cancels:

    P = 4*sqrt(m/(2*sigma)) * sqrt(2*l0/l)
        * int_0^{pi/2} z * sqrt(r(v)*r(w)/d) dpsi,   r(u) = u/sinh(u),

with r(0) = 1 and d formed as radicand_g forms its numerator. At y0 = 0 the
integrand is l/sqrt(2*(l - l0)) and the ladder returns the linear-limit
period. sqrt(2*l0/l) stays in the prefactor: inside the integrand's sqrt its
product with r(v)*r(w) underflows where l/l0 is huge. The integrand is
analytic and even about both ends of [0, pi/2], so the trapezoid rule with
half-weighted endpoints is the trapezoid rule over a whole period, and it
converges geometrically: each halving of the step roughly squares the error
(Trefethen & Weideman, SIAM Review 56 (2014) 385-458). Above y0/l = 2**60
the period is taken at y0 = 2**60*l, which it matches to under 1/64 of an
ulp (model._Y0_CAP), so S stays below 42.3 and no sinh overflows. At
rel_tol = 1e-12 the ladder stops at 4 to 16 intervals for y0/l <= 1 and at
8 to 64 beyond, where the integrand's feature near psi = pi/2 narrows like
1/sqrt(S).
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import EngineFailure, InvalidParameters
from .model import _Y0_CAP, Oscillation, _scaled

__all__ = [
    "Method",
    "PeriodEstimate",
    "radicand_g",
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

    err_estimate is the engine's bound on the absolute error of value (same
    unit), from its own arithmetic: the closed form counts its roundings, the
    quadrature adds a rounding floor to its last level difference and the ODE
    sums its steps' local error estimates (odesim.measure_period says where
    that falls short). check_sandwich widens the bounds by it, and verify
    holds two estimates of one period within the sum of theirs.
    """

    value: float
    method: Method
    err_estimate: float


def radicand_g(osc: Oscillation, y: float) -> float:
    """g(y) = 1/l0 - 2/(sqrt(l^2+y^2) + sqrt(l^2+y0^2)), evaluated stably on
    the unit lengths (model.StringParams), y scaled in and g scaled back
    exactly; +inf where g is beyond the float range. |y| and y0 are taken at
    most at model._Y0_CAP*l, as both closed forms take y0: g lies within
    2**-59 of its value there. g is rewritten as ((z-l0) + (z0-l0)) /
    (l0*(z+z0)) with z - l0 = (l^2 - l0^2)/(z + l0) + y*(y/(z + l0)): no
    cancellation even for l/l0 - 1 near machine epsilon, and no square of y
    that could overflow."""
    p, cap = osc.params, _Y0_CAP * osc.params._unit_l
    l0, l, y0 = p._unit_l0, p._unit_l, min(osc._unit_y0, cap)
    y = min(abs(_scaled(y, -2 * p._length_exp)), cap)
    z0, z = math.hypot(l, y0), math.hypot(l, y)
    gap = (l - l0) * (l + l0)
    dz0 = gap / (z0 + l0) + y0 * (y0 / (z0 + l0))
    zl = z + l0
    g = (gap / zl + y * (y / zl) + dz0) / (l0 * (z + z0))
    return _scaled(g, -2 * p._length_exp)


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
    l0, l = p._unit_l0, p._unit_l
    y0 = min(osc._unit_y0, _Y0_CAP * l)
    # the node-free terms of radicand_g's numerator d = (z - l0) + (z0 - l0)
    z0 = math.hypot(l, y0)
    gap = (l - l0) * (l + l0)
    dz0 = gap / (z0 + l0) + y0 * (y0 / (z0 + l0))
    hypot, sinh, sqrt = math.hypot, math.sinh, math.sqrt
    big_s = math.asinh(y0 / l)

    def integrand(sin_psi: float, sin2_a: float) -> float:
        # z*sqrt(r(v)*r(w)/d), r(u) = u/sinh(u) with its limit 1 at u = 0
        s = big_s * sin_psi
        w = big_s * sin2_a
        v = 0.5 * (big_s + s)
        y = l * sinh(s)
        z = hypot(l, y)
        zl = z + l0
        d = gap / zl + y * (y / zl) + dz0
        rw = w / sinh(w) if w > 0.0 else 1.0
        rv = v / sinh(v) if v > 0.0 else 1.0
        return z * sqrt(rv * rw / d)

    integral, err = trapezoid_ladder(integrand, rel_tol)
    # 2*sigma alone may overflow: the prefactor is formed on the unit scale;
    # sqrt(2*l0/l) is the integral's constant factor (see the module docstring)
    pref = 4.0 * math.sqrt(p._unit_mass) / math.sqrt(2.0 * p._unit_sigma) * sqrt(2.0 * l0 / l)
    value = _scaled(pref * integral, p._period_exp)
    if not 0.0 < value < math.inf:
        raise EngineFailure(
            f"quadrature left the float range at l={p.l!r}, y0={osc.y0!r}: {value!r}"
        )
    return PeriodEstimate(value, Method.QUADRATURE, _scaled(pref * err, p._period_exp))
