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

from .errors import EngineFailure
from .model import _Y0_CAP, Oscillation, _scaled
from .quadrature import Method, PeriodEstimate
from .quadrature import adaptive_gk as rf, adaptive_gk as rj, exact_period  # noqa: F401  tracer-only

__all__ = ["period_elliptic"]

# Each step of the AGM doubles the digits. period_elliptic's kc lies in
# [sqrt(1/2), about 2**29] (y0/l is at most model._Y0_CAP) and takes at most 8
# steps. An overflowed or NaN input never meets the stop test.
_MAX_AGM_STEPS = 40
# AGM stop test: its truncation error _CA**2/8 = 2**-53 is half an ulp
_CA = 2.0**-25
# err_estimate of period_elliptic, in ulps of the period: its roundings, each
# at most u = 2**-53 relative. Every quantity it forms is positive and free of
# cancellation, so relative errors add through products and quotients, halve
# through square roots and do not grow through sums.
#  30    cel's arguments: kc errs by 14u, p by 7u and b by 9u (b > 1/2), from
#        z0 (hypot) 2u, ab 5u, ac 8u, ad 3u, bc 9u and bd exact. cel's
#        integrand has a log-derivative in [-1, 1] in each of kc, p and b.
# 138.5  cel, whose loop keeps its J fixed (see _cel). J's log-derivative is
#        at most 1 in a, b and qc, 2 in p and 3 in em, so: 3u before the loop,
#        16.5u for each AGM step's nine roundings, 12u for the last of at most
#        8 steps, 1u of truncation, 7u for the closing quotient with math.pi.
#  14    the factors 2*z0/(sqrt(ac)*sqrt(bd)) 11u, 4*sqrt(m*l0/(2*sigma)) 3u.
# 182.5u in all, and u*|value| < ulp(value); 1.5 more ulps cover the cap's
# 2**-59, a subnormal period's rounding in _scaled and second-order terms.
_ERR_ULPS = 184


def _cel(kc: float, p: float, a: float, b: float) -> float:
    """Bulirsch's generalized complete elliptic integral, for kc > 0, p > 0:

        cel(kc, p, a, b) = int_0^{pi/2} (a*cos^2 + b*sin^2)
                           / ((cos^2 + p*sin^2) * sqrt(cos^2 + kc^2*sin^2)).

    The Landen/AGM loop stops once its two means agree to _CA, which leaves a
    relative truncation error of about _CA^2/8, half an ulp (R. Bulirsch,
    Numer. Math. 13 (1969) 305-315; Numerical Recipes, 2nd ed., section 6.11).
    Each step keeps J = int_0^{pi/2} (a*em^2*cos^2 + b*p*sin^2) / ((em^2*cos^2
    + p^2*sin^2)*sqrt(em^2*cos^2 + qc^2*sin^2)) fixed, with e = qc*em. J is cel
    once p and b are divided as below, and pi/2*(b + a*em)/(em*(em + p)) at
    qc = em.
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


def _root_gaps(l0: float, l: float, y0: float) -> tuple[float, ...]:
    """z0 and the differences ab, ac, ad, bc, bd of the roots a = z0, b = l,
    c = 2*l0 - z0, d = -l, each formed without cancellation and without
    squaring y0."""
    z0 = math.hypot(l, y0)
    dz0 = (l - l0) * (l + l0) / (z0 + l0) + y0 * (y0 / (z0 + l0))
    return z0, y0 * (y0 / (z0 + l)), 2.0 * dz0, z0 + l, dz0 + (l - l0), 2.0 * l


def period_elliptic(osc: Oscillation) -> PeriodEstimate:
    """Exact period via the closed form, one cel call for every amplitude.

    The AGM runs to half an ulp (see _cel); _ERR_ULPS counts the roundings.
    Both root orderings go through the same arithmetic; past z0 = 2*l0 + l
    the complementary modulus kc exceeds 1. At y0 = 0, kc = p = 1 and the
    closed form is the linear-limit period. It runs on the unit values (see
    model.StringParams).
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
    value = _scaled(value, p._period_exp)
    if not 0.0 < value < math.inf:
        raise EngineFailure(f"closed form left the float range at y0={osc.y0!r}: {value!r}")
    return PeriodEstimate(value, Method.ELLIPTIC, _ERR_ULPS * math.ulp(value))
