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
Beyond it c < d and k^2 < 0, so kc = sqrt(1 - k^2) > 1; cel below takes
either as it stands, so one formula covers every amplitude.

The bracket is a single generalized complete elliptic integral,

    d*K(k) + (a-d)*Pi(n, k) = cel(kc, 1 - n, a, a - (a-b)/2),

evaluated by Bulirsch's Landen/AGM iteration, which converges
quadratically. The engine shares no numerical code with the quadrature.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import EngineFailure
from .model import _Y0_CAP, Oscillation, _from_unit_scale
from .quadrature import Method, PeriodEstimate
from .quadrature import adaptive_gk as rf, adaptive_gk as rj, exact_period  # noqa: F401  tracer-only

__all__ = [
    "QuarticRoots",
    "quartic_roots",
    "quartic_coefficients",
    "period_elliptic",
]

# Each step of the AGM doubles the digits. period_elliptic's kc lies in
# [sqrt(1/2), about 2**29] (y0/l is at most model._Y0_CAP) and takes at most 8
# steps. An overflowed or NaN input never meets the stop test.
_MAX_AGM_STEPS = 40
# AGM stop test: its truncation error _CA**2/8 = 2**-53 is half an ulp
_CA = 2.0**-25
# err_estimate of period_elliptic, relative to the period: about 400 times
# the worst error measured against 40-digit mpmath, so it stays honest
_REL_ERR = 4.01e-13


def _cel(kc: float, p: float, a: float, b: float) -> float:
    """Bulirsch's generalized complete elliptic integral, for kc > 0, p > 0:

        cel(kc, p, a, b) = int_0^{pi/2} (a*cos^2 + b*sin^2)
                           / ((cos^2 + p*sin^2) * sqrt(cos^2 + kc^2*sin^2)).

    The Landen/AGM loop stops once its two means agree to _CA, which leaves a
    relative truncation error of about _CA^2/8, half an ulp (R. Bulirsch,
    Numer. Math. 13 (1969) 305-315; Numerical Recipes, 2nd ed., section 6.11).
    """
    qc = e = kc
    em = 1.0
    p = math.sqrt(p)
    b /= p
    for _ in range(_MAX_AGM_STEPS):
        f = a
        a += b / p
        g = e / p
        b = 2.0 * (b + f * g)
        p += g
        g = em
        em += qc
        if abs(g - qc) <= g * _CA:
            return 0.5 * math.pi * (b + a * em) / (em * (em + p))
        qc = 2.0 * math.sqrt(e)
        e = qc * em
    raise EngineFailure(f"cel AGM did not converge at kc={kc!r}")


class QuarticRoots(NamedTuple):
    """Roots of the z-space quartic, ascending, plus its leading coefficient.

    The quartic is presented with leading coefficient -1/(2*l0); the period
    integrand's radicand (1/l0)*(z^2-l^2)*(z0-z)*(z+z0-2*l0) is exactly twice
    the value ``evaluate`` gives.
    """

    roots: tuple[float, float, float, float]
    leading: float

    def evaluate(self, z: float) -> float:
        r1, r2, r3, r4 = self.roots
        return self.leading * (z - r1) * (z - r2) * (z - r3) * (z - r4)


def quartic_roots(osc: Oscillation) -> QuarticRoots:
    """Roots {-l, 2*l0 - z0, l, z0} in ascending order.

    Their sum telescopes to 2*l0 exactly. The ascending order shown here is
    the standard one; for z0 >= 2*l0 + l the second root drops below -l and
    the tuple is sorted accordingly.
    """
    l0, l = osc.params.l0, osc.params.l
    # z0 = sqrt(l^2 + y0^2), the turning-point half-length
    z0 = math.hypot(l, osc.y0)
    roots = sorted((-l, 2.0 * l0 - z0, l, z0))
    return QuarticRoots(tuple(roots), -0.5 / l0)


def quartic_coefficients(osc: Oscillation) -> tuple[float, float, float, float, float]:
    """Expanded coefficients (z^4 first) of the -1/(2*l0)-normalized quartic.

    Independent of the root-product form; exists so a generic polynomial
    root-finder can cross-check quartic_roots.
    """
    l0, l = osc.params.l0, osc.params.l
    z0 = math.hypot(l, osc.y0)
    return (
        -0.5 / l0,
        1.0,
        (l * l + z0 * z0) / (2.0 * l0) - z0,
        -l * l,
        l * l * z0 - l * l * z0 * z0 / (2.0 * l0),
    )


def _root_gaps(l0: float, l: float, y0: float) -> tuple[float, ...]:
    """z0 and the differences ab, ac, ad, bc, bd of the roots a = z0, b = l,
    c = 2*l0 - z0, d = -l, each formed without cancellation and without
    squaring y0."""
    z0 = math.hypot(l, y0)
    dz0 = (l - l0) * (l + l0) / (z0 + l0) + y0 * (y0 / (z0 + l0))
    return z0, y0 * (y0 / (z0 + l)), 2.0 * dz0, z0 + l, dz0 + (l - l0), 2.0 * l


def period_elliptic(osc: Oscillation) -> PeriodEstimate:
    """Exact period via the closed form, one cel call for every amplitude.

    The AGM runs to half an ulp (see _cel). Both root orderings go through
    the same arithmetic; past z0 = 2*l0 + l the complementary modulus kc
    exceeds 1. At y0 = 0, kc = p = 1 and the closed form is the linear-limit
    period. It runs on the unit values (see model.StringParams).
    """
    p = osc.params
    # above the amplitude cap the period is its value at the cap (see
    # model._Y0_CAP, which also says why the error estimate stands as it is)
    y0 = min(osc._unit_y0, _Y0_CAP * p._unit_l)
    z0, ab, ac, ad, bc, bd = _root_gaps(p._unit_l0, p._unit_l, y0)
    # d*K + (a-d)*Pi = cel(kc, 1 - n, z0, z0 - ab/2) with n = -ab/bd <= 0;
    # cel is linear in its last two arguments, so z0 is factored out
    kc = math.sqrt(ad / ac) * math.sqrt(bc / bd)
    c = _cel(kc, 1.0 + ab / bd, 1.0, 1.0 - ab / (2.0 * z0))
    integral = 2.0 * (z0 / math.sqrt(ac)) / math.sqrt(bd) * c
    value = 4.0 * math.sqrt(p._unit_mass * p._unit_l0 / (2.0 * p._unit_sigma)) * integral
    value = _from_unit_scale(p, value)
    if not 0.0 < value < math.inf:
        raise EngineFailure(f"closed form left the float range at y0={osc.y0!r}: {value!r}")
    return PeriodEstimate(value, Method.ELLIPTIC, abs(value) * _REL_ERR)
