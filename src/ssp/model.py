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
from typing import Callable

from .errors import InvalidParameters

TWO_PI = 2.0 * math.pi
# the smallest positive (subnormal) float, 5e-324
_TINY = math.ulp(0.0)
# The closed-form engines evaluate every period above y0 = _Y0_CAP*l at
# y0 = _Y0_CAP*l. For y0 > 2*l0, z + z0 > y0 on [0, y0], so
# (1 - 2*l0/y0)/l0 < g(y) <= 1/l0 and P_inf <= P(y0) < P_inf/sqrt(1 - 2*l0/y0),
# P_inf = pi*sqrt(2*m*l0/sigma): above the cap, all periods lie within 2**-59
# of P_inf, under 1/64 of an ulp. That is far below both engines' error
# floors (4 ulps per node, elliptic._ERR_ULPS), so neither estimate changes.
_Y0_CAP = 2.0**60


class _Frozen:
    """An immutable value object with slots that pickles, copies, compares,
    hashes and prints as the call that rebuilds it: its class on its public
    fields, named in _fields. Other slots hold values derived from those."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self.__reduce__() == other.__reduce__() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"


class StringParams(_Frozen):
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
    # Set once in __init__, the unit values: l0 and l are _unit_l0 and
    # _unit_l times 4**_length_exp, sigma and mass _unit_sigma times
    # 4**_sigma_exp and _unit_mass times 4**b, with _unit_l, _unit_sigma,
    # _unit_mass in [0.5, 2) and _period_exp = b - _sigma_exp + _length_exp.
    # A period goes as sqrt(length*mass/sigma), so one formed on the unit
    # values (y0 among them) is the physical one over 2**_period_exp, and
    # _scaled(period, _period_exp) keeps its bits wherever no intermediate
    # is subnormal. The intermediates depend on the ratios l0 : l : y0
    # alone, so the lengths' scale and sigma/mass may leave the float range.
    # Slots keep a per-instance __dict__ off the parameter pools.
    _fields = ("l0", "l", "sigma", "mass")
    __slots__ = _fields + ("_unit_l0", "_unit_l", "_unit_sigma", "_unit_mass", "_length_exp",
                           "_sigma_exp", "_period_exp", "_unit_stiffness")

    def __init__(self, l0: float, l: float, sigma: float, mass: float) -> None:
        object.__setattr__(self, "l0", l0)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "mass", mass)
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
        l, e = _unit_scale(self.l)
        l0 = math.ldexp(self.l0, -2 * e)
        s, a = _unit_scale(self.sigma)
        m, b = _unit_scale(self.mass)
        object.__setattr__(self, "_unit_l0", l0)
        object.__setattr__(self, "_unit_l", l)
        object.__setattr__(self, "_unit_sigma", s)
        object.__setattr__(self, "_unit_mass", m)
        object.__setattr__(self, "_length_exp", e)
        object.__setattr__(self, "_sigma_exp", a)
        object.__setattr__(self, "_period_exp", b - a + e)
        # l0 and l share one power of four, so an l/l0 beyond the float range
        # leaves the unit l0 subnormal or the unit stiffness inf; either way
        # the unit linear period, and with it the linear period, reads 0
        w = 2.0 * (s * (l - l0) / l0) / (m * l) if l0 >= 2.0**-1022 else math.inf
        object.__setattr__(self, "_unit_stiffness", w)
        # every period lies in [P_inf, linear], P_inf = pi*sqrt(2*m*l0/sigma)
        # (see _Y0_CAP), so while linear is finite and P_inf a normal float
        # no engine's period leaves the float range
        linear = rayleigh_period(self)
        if not 0.0 < linear < math.inf:
            raise InvalidParameters(
                f"the linear-limit period at l0={self.l0!r}, l={self.l!r}, "
                f"sigma={self.sigma!r}, mass={self.mass!r} is not a positive "
                f"finite float (got {linear!r}); it reads 0 from l/l0 ~ 2**1021 up"
            )
        p_inf = _scaled(math.pi * math.sqrt(2.0 * m * l0 / s), self._period_exp)
        if p_inf < 2.0**-1022:
            raise InvalidParameters(
                f"the large-amplitude period pi*sqrt(2*mass*l0/sigma) at l0={self.l0!r}, "
                f"sigma={self.sigma!r}, mass={self.mass!r} is below the normal floats "
                f"(got {p_inf!r})"
            )


def _unit_scale(x: float) -> tuple[float, int]:
    """(u, e) with x = u * 4**e and u in [0.5, 2); exact for every x > 0."""
    e = math.frexp(x)[1] // 2
    return math.ldexp(x, -2 * e), e


def _scaled(x: float, n: int) -> float:
    """x * 2**n: exact where the result is a normal float, +-inf where it
    overflows (math.ldexp raises there)."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


class Oscillation(_Frozen):
    """A release-from-rest oscillation: parameters plus initial amplitude.

    Negative amplitudes are mapped to their absolute value (the force is odd,
    so the motion is mirror symmetric). _unit_y0 is y0 over 4**_length_exp.
    """

    params: StringParams
    y0: float
    _fields = ("params", "y0")
    __slots__ = _fields + ("_unit_y0",)

    def __init__(self, params: StringParams, y0: float) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "y0", y0)
        if not math.isfinite(self.y0):
            raise InvalidParameters(f"y0 must be finite, got {self.y0!r}")
        object.__setattr__(self, "y0", abs(self.y0))
        unit = _scaled(self.y0, -2 * self.params._length_exp)
        if unit == math.inf:
            raise InvalidParameters(
                f"y0/l is beyond the float range at y0={self.y0!r}, l={self.params.l!r}"
            )
        object.__setattr__(self, "_unit_y0", unit)


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


def acceleration(p: StringParams, y: float) -> float:
    """Net transverse force on the mass (both halves) over its mass,
    restoring for y != 0."""
    return _force_law(p.l0, p.l, -2.0 * p.sigma / p.l0, p.mass)(y)


def _bound_acceleration(p: StringParams) -> Callable[[float], float]:
    """acceleration(p, .) on the unit values of p (see StringParams), bound
    once. Where no intermediate is subnormal its value at y/4**_length_exp
    is acceleration(p, y) times 4**(_period_exp - _length_exp), exactly."""
    return _force_law(p._unit_l0, p._unit_l, -2.0 * p._unit_sigma / p._unit_l0, p._unit_mass)


def rayleigh_period(p: StringParams) -> float:
    """Period of the linearized (harmonic) motion, 2*pi/sqrt(2T/(m*l)).

    Exact in the y0 -> 0 limit and a strict upper bound on the true period
    for any finite amplitude. Finite also where sigma/mass itself would
    overflow or underflow a float.
    """
    return _scaled(TWO_PI / math.sqrt(p._unit_stiffness), p._period_exp)

