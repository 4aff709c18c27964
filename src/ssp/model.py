"""Physical model of a point mass riding the midpoint of a stretched string.

A mass ``m`` sits halfway along an elastic string clamped at both ends. Each
half has unstretched length ``l0`` and stretched rest length ``l > l0``; the
string constant is ``sigma`` (force per relative elongation of a half). For a
transverse displacement ``y`` each half has length ``sqrt(l^2 + y^2)``, so the
restoring force is nonlinear in ``y`` even though the string itself is
Hookean. All quantities assume one coherent unit system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import InvalidParameters

TWO_PI = 2.0 * math.pi
# the smallest positive (subnormal) float, 5e-324
_TINY = math.ulp(0.0)


@dataclass(frozen=True, slots=True)
class StringParams:
    """Static parameters of the string-mass system.

    l0    unstretched half-length, > 0
    l     stretched half-length at rest, > l0
    sigma string constant (tension per unit relative elongation), > 0
    mass  midpoint mass, > 0
    """

    l0: float
    l: float
    sigma: float
    mass: float
    # Set once in __post_init__: sigma = _unit_sigma * 4**_sigma_exp and
    # mass = _unit_mass * 4**_mass_exp with both unit values in [0.5, 2),
    # and _unit_stiffness is linear_stiffness formed from the unit values.
    # See _from_unit_scale. The class is slotted so that these cached
    # fields do not add a per-instance __dict__ to the parameter pools.
    _unit_sigma: float = field(init=False, repr=False, compare=False)
    _unit_mass: float = field(init=False, repr=False, compare=False)
    _sigma_exp: int = field(init=False, repr=False, compare=False)
    _mass_exp: int = field(init=False, repr=False, compare=False)
    _unit_stiffness: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("l0", "l", "sigma", "mass"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidParameters(f"{name} must be finite, got {v!r}")
        if self.l0 <= 0.0:
            raise InvalidParameters(f"l0 must be positive, got {self.l0!r}")
        if self.l <= self.l0:
            raise InvalidParameters(
                f"l must exceed l0 (got l={self.l!r}, l0={self.l0!r})"
            )
        if self.sigma <= 0.0:
            raise InvalidParameters(f"sigma must be positive, got {self.sigma!r}")
        if self.mass <= 0.0:
            raise InvalidParameters(f"mass must be positive, got {self.mass!r}")
        s, a = _unit_scale(self.sigma)
        m, b = _unit_scale(self.mass)
        object.__setattr__(self, "_unit_sigma", s)
        object.__setattr__(self, "_unit_mass", m)
        object.__setattr__(self, "_sigma_exp", a)
        object.__setattr__(self, "_mass_exp", b)
        w = _linear_stiffness(self.l0, self.l, s, m)
        object.__setattr__(self, "_unit_stiffness", w)

    @property
    def rest_tension(self) -> float:
        """Tension of either half at y = 0: sigma * (l - l0) / l0."""
        return self.sigma * (self.l - self.l0) / self.l0

    @property
    def linear_stiffness(self) -> float:
        """Squared angular frequency of the linearized motion, 2T/(m*l)."""
        return _linear_stiffness(self.l0, self.l, self.sigma, self.mass)


def _linear_stiffness(l0: float, l: float, sigma: float, mass: float) -> float:
    return 2.0 * (sigma * (l - l0) / l0) / (mass * l)


def _unit_scale(x: float) -> tuple[float, int]:
    """(u, e) with x = u * 4**e and u in [0.5, 2); exact for every x > 0."""
    e = math.frexp(x)[1] // 2
    return math.ldexp(x, -2 * e), e


def _from_unit_scale(p: StringParams, period: float) -> float:
    """A period formed with p._unit_sigma and p._unit_mass in place of sigma
    and mass, in the units of p.

    A period is proportional to sqrt(mass/sigma), so the scaled one is
    2**(_sigma_exp - _mass_exp) times the true one. All scalings are by
    powers of two, so where every intermediate of both formulas is a normal
    float the result keeps its bits. The scaled formula's intermediates
    depend on the lengths and the amplitude alone, as at sigma = mass = 1,
    so sigma/mass may overflow or underflow without harm.
    """
    return math.ldexp(period, p._mass_exp - p._sigma_exp)


@dataclass(frozen=True)
class Oscillation:
    """A release-from-rest oscillation: parameters plus initial amplitude.

    Negative amplitudes are mapped to their absolute value (the force is odd,
    so the motion is mirror symmetric).
    """

    params: StringParams
    y0: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.y0):
            raise InvalidParameters(f"y0 must be finite, got {self.y0!r}")
        object.__setattr__(self, "y0", abs(self.y0))


def tension(p: StringParams, y: float) -> float:
    """Tension of one half at displacement y: sigma*(sqrt(l^2+y^2)-l0)/l0."""
    return p.sigma * (math.hypot(p.l, y) - p.l0) / p.l0


def _force_law(l0: float, l: float, k: float, mass: float) -> Callable[[float], float]:
    """y -> k*((r - l0)/r)*y/mass with r = hypot(l, y), as a closure over its
    constants.

    The stretch r - l0 is formed as (l-l0)*(l+l0)/(r+l0) + y*(y/(r+l0)),
    the form radicand_g uses, which does not cancel near l = l0 as
    hypot(l, y) - l0 does. y is the last factor, so a subnormal y is not
    lost to an underflowing y / r. Where the exact product is below half the
    smallest subnormal it rounds to 0; it is then taken as that subnormal,
    signed against y, so a restoring force (k < 0) keeps its direction.
    """
    hypot, copysign = math.hypot, math.copysign
    gap = (l - l0) * (l + l0)

    def force(y: float) -> float:
        r = hypot(l, y)
        s = r + l0
        f = k * ((gap / s + y * (y / s)) / r) * y
        if f == 0.0 and y != 0.0:
            f = -copysign(_TINY, y)
        return f / mass

    return force


def vertical_force(p: StringParams, y: float) -> float:
    """Net transverse force on the mass (both halves), restoring for y != 0."""
    return _force_law(p.l0, p.l, -2.0 * p.sigma / p.l0, 1.0)(y)


def acceleration(p: StringParams, y: float) -> float:
    return vertical_force(p, y) / p.mass


def _bound_acceleration(p: StringParams) -> Callable[[float], float]:
    """acceleration(p, .) with p._unit_sigma and p._unit_mass in place of
    sigma and mass, bound once. Where no intermediate is subnormal each value
    is acceleration(p, y) times 4**(_mass_exp - _sigma_exp), exactly."""
    return _force_law(p.l0, p.l, -2.0 * p._unit_sigma / p.l0, p._unit_mass)


def energy(p: StringParams, y: float, v: float) -> float:
    """Conserved energy per unit mass of the transverse motion.

    E = v^2/2 + (2*sigma/m) * (y^2/(2*l0) - sqrt(l^2+y^2)); the potential
    term's derivative is -acceleration(y).
    """
    return 0.5 * v * v + (2.0 * p.sigma / p.mass) * (
        y * y / (2.0 * p.l0) - math.hypot(p.l, y)
    )


def rayleigh_period(p: StringParams) -> float:
    """Period of the linearized (harmonic) motion, 2*pi/sqrt(2T/(m*l)).

    Exact in the y0 -> 0 limit and a strict upper bound on the true period
    for any finite amplitude. Finite also where sigma/mass itself would
    overflow or underflow a float.
    """
    return _from_unit_scale(p, TWO_PI / math.sqrt(p._unit_stiffness))


def rayleigh_solution(p: StringParams, y0: float, t: float) -> float:
    """Harmonic-approximation trajectory y(t) = y0*cos(omega0*t)."""
    return y0 * math.cos(math.sqrt(p.linear_stiffness) * t)
