"""Exact period by adaptive quadrature.

Releasing the mass from rest at amplitude y0, energy conservation gives

    speed(y)^2 = (2*sigma/m) * (y0^2 - y^2) * g(y),
    g(y) = 1/l0 - 2/(sqrt(l^2+y^2) + sqrt(l^2+y0^2)),

so the period is 4*sqrt(m/(2*sigma)) * int_0^y0 dy / (sqrt(y0^2-y^2)*sqrt(g)).
The inverse-square-root endpoint singularity is removed exactly by
y = y0*sin(theta); the theta integrand 1/sqrt(g(y0*sin(theta))) is smooth,
positive, and even about both endpoints, so a nested Gauss-Kronrod rule
converges extremely fast.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ConvergenceFailure, InvalidParameters
from .model import Oscillation, rayleigh_period

__all__ = [
    "Method",
    "PeriodEstimate",
    "QuadratureConfig",
    "radicand_g",
    "speed",
    "exact_period",
]


class Method(enum.Enum):
    """Which engine produced a period estimate."""

    QUADRATURE = "quadrature"
    ELLIPTIC = "elliptic"
    ODE_SIM = "ode"
    RAYLEIGH_APPROX = "rayleigh"
    # no longer produced; perfbench --trace still looks this member up
    ELLIPTIC_FALLBACK = "elliptic-fallback"


@dataclass(frozen=True)
class PeriodEstimate:
    """A period value plus the method tag and an error estimate.

    err_estimate is an estimated absolute numerical error (same unit as
    value), not a rigorous bound.
    """

    value: float
    method: Method
    err_estimate: float


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the adaptive integrator.

    abs_tol is a raw floor; the effective absolute budget is
    max(abs_tol, rel_tol * |K15|), K15 being the first whole-interval panel's
    value, so that rel_tol is the knob that matters for any nonzero
    integral. max_refinements caps the interval bisection depth.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-300
    max_refinements: int = 30

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise InvalidParameters(f"rel_tol must be in (0, 1), got {self.rel_tol!r}")
        if self.abs_tol < 0.0:
            raise InvalidParameters(f"abs_tol must be >= 0, got {self.abs_tol!r}")
        if self.max_refinements < 1:
            raise InvalidParameters(
                f"max_refinements must be >= 1, got {self.max_refinements!r}"
            )


def radicand_g(osc: Oscillation, y: float) -> float:
    """g(y) = 1/l0 - 2/(sqrt(l^2+y^2) + sqrt(l^2+y0^2)), evaluated stably.

    Rewritten as ((z-l0) + (z0-l0)) / (l0*(z+z0)) with
    z - l0 = (l^2 - l0^2 + y^2)/(z + l0): no cancellation even for l/l0 - 1
    near machine epsilon.
    """
    p = osc.params
    z = math.hypot(p.l, y)
    z0 = math.hypot(p.l, osc.y0)
    gap = (p.l - p.l0) * (p.l + p.l0)
    dz = (gap + y * y) / (z + p.l0)
    dz0 = (gap + osc.y0 * osc.y0) / (z0 + p.l0)
    return (dz + dz0) / (p.l0 * (z + z0))


def speed(osc: Oscillation, y: float) -> float:
    """|dy/dt| at displacement y for release from rest at y0."""
    if abs(y) > osc.y0:
        raise InvalidParameters(
            f"|y| must not exceed the amplitude (|y|={abs(y)!r}, y0={osc.y0!r})"
        )
    p = osc.params
    rad = (2.0 * p.sigma / p.mass) * (osc.y0 - y) * (osc.y0 + y) * radicand_g(osc, y)
    return math.sqrt(max(rad, 0.0))


# 15-point Kronrod abscissae (positive half) and weights, with the embedded
# 7-point Gauss weights on the odd-indexed abscissae. QUADPACK dqk15 values.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 panel: (kronrod value, |kronrod - gauss|)."""
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    fc = f(c)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        fsum = f(c - hw * _XGK[i]) + f(c + hw * _XGK[i])
        kron += _WGK[i] * fsum
        if i % 2 == 1:
            gauss += _WG[i // 2] * fsum
    return kron * hw, abs(kron - gauss) * abs(hw)


def adaptive_gk(
    f, a: float, b: float, cfg: QuadratureConfig
) -> tuple[float, float]:
    """Adaptive bisection on G7/K15 panels with a width-proportional budget.

    The whole-interval panel is evaluated first; its Kronrod value sets the
    absolute budget max(abs_tol, rel_tol*|K15|) and, if its error fits,
    is the result (15 evaluations). Otherwise panels are bisected, each
    child evaluated once when it is pushed. Returns (integral, error
    estimate); raises ConvergenceFailure if some subinterval still misses its
    share of the budget at max_refinements depth. Deterministic for fixed
    inputs.
    """
    width = b - a
    val, err = _gk15(f, a, b)
    budget = max(cfg.abs_tol, cfg.rel_tol * abs(val))

    total = 0.0
    total_err = 0.0
    stack = [(a, b, 0, val, err)]
    while stack:
        lo, hi, depth, val, err = stack.pop()
        local = budget * (hi - lo) / width
        if err <= local or (hi - lo) <= 16.0 * math.ulp(max(abs(lo), abs(hi))):
            total += val
            total_err += err
        elif depth >= cfg.max_refinements:
            raise ConvergenceFailure(
                f"quadrature stalled on [{lo!r}, {hi!r}] at depth {depth}: "
                f"panel error {err:.3e} > budget {local:.3e}"
            )
        else:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi, depth + 1, *_gk15(f, mid, hi)))
            stack.append((lo, mid, depth + 1, *_gk15(f, lo, mid)))
    return total, total_err


def exact_period(
    osc: Oscillation, cfg: QuadratureConfig = QuadratureConfig()
) -> PeriodEstimate:
    """Exact period by adaptive quadrature on the sin-substituted integral.

    Amplitudes below the degeneracy threshold return the linear-limit period
    (to which the integral tends continuously) with zero error estimate.
    """
    p = osc.params
    if osc.is_degenerate:
        return PeriodEstimate(rayleigh_period(p), Method.QUADRATURE, 0.0)

    y0 = osc.y0

    def integrand(theta: float) -> float:
        return 1.0 / math.sqrt(radicand_g(osc, y0 * math.sin(theta)))

    integral, err = adaptive_gk(integrand, 0.0, 0.5 * math.pi, cfg)
    pref = 4.0 * math.sqrt(p.mass / (2.0 * p.sigma))
    return PeriodEstimate(pref * integral, Method.QUADRATURE, pref * err)
