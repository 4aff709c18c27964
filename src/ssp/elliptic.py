"""Closed-form period via complete elliptic integrals.

The substitution z = sqrt(l^2 + y^2) turns the period integral into

    P = 4*sqrt(m/(2*sigma)) * int_l^z0 z dz / sqrt(Q(z)),
    Q(z) = (1/l0) * (z^2 - l^2) * (z0 - z) * (z + z0 - 2*l0),

a quartic radicand with roots {-l, 2*l0 - z0, l, z0} summing to 2*l0. The
integration interval [l, z0] lies between the two largest roots a = z0 and
b = l for every amplitude, and the integral reduces to complete Legendre
integrals (Byrd & Friedman, Handbook of Elliptic Integrals (1971)):

    int = g * (d*K(k) + (a-d)*Pi(n, k)),   a,b,c,d = z0, l, 2*l0-z0, -l
    g = 2/sqrt((a-c)*(b-d)),  k^2 = (a-b)*(c-d)/((a-c)*(b-d)),
    n = -(a-b)/(b-d)  (circular case, no principal value needed).

The reduction needs only c < b and d < b, not c > d. Under the standard
ordering -l < 2*l0 - z0 < l < z0 (z0 < 2*l0 + l) it has 0 <= k^2 < 1.
Beyond it c < d and k^2 < 0; the Carlson forms below take 1 - k^2 > 1 as
they stand, so one formula covers every amplitude.

K and Pi are evaluated through Carlson's symmetric forms

    K(k)     = R_F(0, 1-k^2, 1)
    Pi(n, k) = R_F(0, 1-k^2, 1) + (n/3)*R_J(0, 1-k^2, 1, 1-n)

with R_F and R_J computed by the duplication algorithm (Carlson, Numerical
Algorithms 10 (1995) 13-26). The engine shares no numerical code with the
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceFailure, InvalidParameters
from .model import Oscillation, _from_unit_scale
from .quadrature import Method, PeriodEstimate
from .quadrature import exact_period  # noqa: F401  no longer called; perfbench --trace wraps this name

__all__ = [
    "QuarticRoots",
    "to_z_space",
    "quartic_roots",
    "quartic_coefficients",
    "rc",
    "rf",
    "rj",
    "period_elliptic",
]

_MAX_DUPLICATIONS = 200


def _rc1(s: float) -> float:
    """R_C(1, 1 + s) for s > -1, stable as s -> 0.

    Both sign branches share the expansion sum((-s)^k / (2k+1)); the inverse
    trig closed forms lose half the working digits near s = 0 (acos of an
    argument near 1), so small s switches to the series.
    """
    if s <= -1.0:
        raise ConvergenceFailure(f"rc domain: second argument {1.0 + s!r} <= 0")
    if abs(s) < 3e-4:
        u = -s
        return 1.0 + u * (
            1.0 / 3.0 + u * (1.0 / 5.0 + u * (1.0 / 7.0 + u * (1.0 / 9.0)))
        )
    if s > 0.0:
        r = math.sqrt(s)
        return math.atan(r) / r
    r = math.sqrt(-s)
    return math.atanh(r) / r


def rc(x: float, y: float) -> float:
    """Degenerate case R_C(x, y) = R_F(x, y, y), for x >= 0, y > 0."""
    if y <= 0.0 or x < 0.0:
        raise ConvergenceFailure(f"rc domain: x={x!r}, y={y!r}")
    if x == 0.0:
        return 0.5 * math.pi / math.sqrt(y)
    if y < 0.5 * x:
        # The atanh form amplifies rounding as y/x -> 0; the equivalent log
        # form stays conditioned.
        d = math.sqrt(x - y)
        return math.log((math.sqrt(x) + d) / math.sqrt(y)) / d
    return _rc1((y - x) / x) / math.sqrt(x)


def rf(x: float, y: float, z: float, rtol: float = 1e-13) -> float:
    """Symmetric elliptic integral of the first kind, duplication algorithm.

    Arguments must be nonnegative with at most one zero. Each duplication
    quarters the argument spread; the loop stops once the spread is small
    enough that the fifth-order Taylor tail sits below rtol.
    """
    if min(x, y, z) < 0.0 or sorted((x, y, z))[1] == 0.0:
        raise ConvergenceFailure(f"rf domain: ({x!r}, {y!r}, {z!r})")
    if x == y == z:
        return 1.0 / math.sqrt(x)
    xm, ym, zm = x, y, z
    a0 = am = (x + y + z) / 3.0
    q = (3.0 * rtol) ** (-1.0 / 6.0) * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    pow4 = 1.0
    for _ in range(_MAX_DUPLICATIONS):
        sx, sy, sz = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm)
        lam = sx * sy + sx * sz + sy * sz
        am1 = 0.25 * (am + lam)
        xm, ym, zm = 0.25 * (xm + lam), 0.25 * (ym + lam), 0.25 * (zm + lam)
        if pow4 * q < abs(am):
            break
        am = am1
        pow4 *= 0.25
    else:
        raise ConvergenceFailure("rf duplication exceeded its iteration budget")
    t = pow4 / am
    big_x = (a0 - x) * t
    big_y = (a0 - y) * t
    big_z = -big_x - big_y
    e2 = big_x * big_y - big_z * big_z
    e3 = big_x * big_y * big_z
    series = 9240.0 - 924.0 * e2 + 385.0 * e2 * e2 + 660.0 * e3 - 630.0 * e2 * e3
    return series / (9240.0 * math.sqrt(am))


def rj(x: float, y: float, z: float, p: float, rtol: float = 1e-13) -> float:
    """Symmetric elliptic integral of the third kind, duplication algorithm.

    Real case only: x, y, z nonnegative with at most one zero, p positive.
    """
    if min(x, y, z) < 0.0 or sorted((x, y, z))[1] == 0.0 or p <= 0.0:
        raise ConvergenceFailure(f"rj domain: ({x!r}, {y!r}, {z!r}, {p!r})")
    xm, ym, zm, pm = x, y, z, p
    a0 = am = (x + y + z + 2.0 * p) / 5.0
    delta = (p - x) * (p - y) * (p - z)
    q = (0.25 * rtol) ** (-1.0 / 6.0) * max(
        abs(a0 - x), abs(a0 - y), abs(a0 - z), abs(a0 - p)
    )
    pow4 = 1.0
    acc = 0.0
    for _ in range(_MAX_DUPLICATIONS):
        sx, sy, sz, sp = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm), math.sqrt(pm)
        lam = sx * sy + sx * sz + sy * sz
        am1 = 0.25 * (am + lam)
        xm, ym, zm = 0.25 * (xm + lam), 0.25 * (ym + lam), 0.25 * (zm + lam)
        pm = 0.25 * (pm + lam)
        dm = (sp + sx) * (sp + sy) * (sp + sz)
        em = delta * pow4**3 / (dm * dm)
        if pow4 * q < abs(am):
            break
        acc += pow4 / dm * _rc1(em)
        pow4 *= 0.25
        am = am1
    else:
        raise ConvergenceFailure("rj duplication exceeded its iteration budget")
    t = pow4 / am
    big_x = (a0 - x) * t
    big_y = (a0 - y) * t
    big_z = (a0 - z) * t
    big_p = -0.5 * (big_x + big_y + big_z)
    e2 = big_x * big_y + big_x * big_z + big_y * big_z - 3.0 * big_p * big_p
    e3 = big_x * big_y * big_z + 2.0 * e2 * big_p + 4.0 * big_p**3
    e4 = (2.0 * big_x * big_y * big_z + e2 * big_p + 3.0 * big_p**3) * big_p
    e5 = big_x * big_y * big_z * big_p * big_p
    series = (
        24024.0
        - 5148.0 * e2
        + 2457.0 * e2 * e2
        + 4004.0 * e3
        - 4158.0 * e2 * e3
        - 3276.0 * e4
        + 2772.0 * e5
    ) / 24024.0
    return pow4 * am ** (-1.5) * series + 6.0 * acc


@dataclass(frozen=True)
class QuarticRoots:
    """Roots of the z-space quartic, ascending, plus its leading coefficient.

    The quartic is presented with leading coefficient -1/(2*l0); the period
    integrand's radicand (1/l0)*(z^2-l^2)*(z0-z)*(z+z0-2*l0) is exactly twice
    it. ``evaluate`` gives the quartic, ``radicand`` the doubled form the
    integrand actually uses.
    """

    roots: tuple[float, float, float, float]
    leading: float

    def evaluate(self, z: float) -> float:
        r1, r2, r3, r4 = self.roots
        return self.leading * (z - r1) * (z - r2) * (z - r3) * (z - r4)

    def radicand(self, z: float) -> float:
        """Radicand of the period integrand: twice the quartic value."""
        return 2.0 * self.evaluate(z)


def to_z_space(osc: Oscillation) -> tuple[float, float]:
    """Map the oscillation to stretched coordinates: returns (l, z0).

    z0 = sqrt(l^2 + y0^2) is the turning-point half-length; z0 = l at y0 = 0.
    """
    return osc.params.l, math.hypot(osc.params.l, osc.y0)


def quartic_roots(osc: Oscillation) -> QuarticRoots:
    """Roots {-l, 2*l0 - z0, l, z0} in ascending order.

    Their sum telescopes to 2*l0 exactly. The ascending order shown here is
    the standard one; for z0 >= 2*l0 + l the second root drops below -l and
    the tuple is sorted accordingly.
    """
    l, z0 = to_z_space(osc)
    l0 = osc.params.l0
    roots = sorted((-l, 2.0 * l0 - z0, l, z0))
    return QuarticRoots(tuple(roots), -0.5 / l0)


def quartic_coefficients(osc: Oscillation) -> tuple[float, float, float, float, float]:
    """Expanded coefficients (z^4 first) of the -1/(2*l0)-normalized quartic.

    Independent of the root-product form; exists so a generic polynomial
    root-finder can cross-check quartic_roots.
    """
    l, z0 = to_z_space(osc)
    l0 = osc.params.l0
    return (
        -0.5 / l0,
        1.0,
        (l * l + z0 * z0) / (2.0 * l0) - z0,
        -l * l,
        l * l * z0 - l * l * z0 * z0 / (2.0 * l0),
    )


def period_elliptic(osc: Oscillation, rel_tol: float = 1e-13) -> PeriodEstimate:
    """Exact period via the Carlson-evaluated closed form, for every amplitude.

    rel_tol, in (0, 1), is the duplication tolerance of R_F and R_J.
    Both root orderings go through the same arithmetic; past z0 = 2*l0 + l
    the modulus parameter k^2 turns negative. At y0 = 0, k^2 = n = 0 and
    the closed form is the linear-limit period.
    """
    if not (0.0 < rel_tol < 1.0):
        raise InvalidParameters(f"rel_tol must be in (0, 1), got {rel_tol!r}")
    p = osc.params
    l, z0 = to_z_space(osc)
    l0 = p.l0
    # pairwise differences of the roots a=z0, b=l, c=2*l0-z0, d=-l, each
    # formed without cancellation (dz0 = z0 - l0 via its square gap)
    dz0 = ((l - l0) * (l + l0) + osc.y0 * osc.y0) / (z0 + l0)
    ab = osc.y0 * osc.y0 / (z0 + l)
    ac = 2.0 * dz0
    ad = z0 + l
    bc = dz0 + (l - l0)
    bd = 2.0 * l

    k2c = ad * bc / (ac * bd)  # 1 - k^2, formed directly; > 1 when c < d
    n = -ab / bd
    big_k = rf(0.0, k2c, 1.0, rel_tol)
    big_pi = big_k + (n / 3.0) * rj(0.0, k2c, 1.0, 1.0 - n, rel_tol)
    bracket = (-l) * big_k + ad * big_pi
    integral = 2.0 / math.sqrt(ac * bd) * bracket
    value = 4.0 * math.sqrt(p._unit_mass * l0 / (2.0 * p._unit_sigma)) * integral
    value = _from_unit_scale(p, value)
    return PeriodEstimate(value, Method.ELLIPTIC, abs(value) * (4.0 * rel_tol + 1e-15))
