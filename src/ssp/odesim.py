"""Period measurement by direct simulation of the equation of motion.

A Dormand-Prince 5(4) embedded pair (FSAL) integrates (y, v) with
proportional-integral step-size control. Turning points (v = 0) are located
inside accepted steps by cubic Hermite interpolation of v, using the stage
derivatives already available at both step ends, then polished by bisection.
Consecutive turning times are half periods, so the span from the first to the
last turning time over the number of periods between them gives the period.
Its error estimate is the sum of the embedded local error estimates of the
accepted steps, relative to the amplitude, read as a phase error (see
measure_period).

The run is in unit time, in which sigma and mass are replaced by their
unit-scaled values (model._from_unit_scale), so sigma/mass may lie outside
the float range. The default force is bound once per run as a closure over
the string's constants (model._bound_acceleration), because each step makes
six force evaluations and the calls through `acceleration` and
`vertical_force` cost more than their arithmetic; it does the same
operations in the same order, so every force value is the model's, scaled
by a power of two.

Every accepted step is recorded. The error weights of (y, v) are
rel_tol * |value| plus an absolute floor of 1e-12 * y_scale for y and the
same floor times the linear angular frequency for v, where y_scale is the
larger of y0 and the initial displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConvergenceFailure,
    InsufficientEvents,
    InvalidParameters,
    MaxStepsExceeded,
    StepFailure,
)
from .model import TWO_PI, Oscillation, _bound_acceleration, rayleigh_period
from .model import acceleration  # noqa: F401  no longer called; perfbench --trace wraps this name
from .quadrature import Method, PeriodEstimate

__all__ = ["SimConfig", "Trajectory", "simulate", "integrate", "measure_period"]

# Dormand-Prince 5(4) coefficients (Dormand & Prince 1980). Stage 7 equals
# the fifth-order result, so its derivative is reused as stage 1 of the next
# step (FSAL).
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0,
    -25360.0 / 2187.0,
    64448.0 / 6561.0,
    -212.0 / 729.0,
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
# fifth-order minus embedded fourth-order weights
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0  # proportional exponent
_PI_BETA = 0.4 / 5.0  # integral exponent (previous error feedback)
# absolute error floor of y, relative to the displacement scale
_ABS_FLOOR = 1e-12
# attempted steps (accepted plus rejected) before MaxStepsExceeded
_MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class SimConfig:
    """Relative step tolerance and run length of `simulate`.

    The default run is one period. A longer run reads the same period, to
    within its error estimate, at proportionally more steps.
    """

    rel_tol: float = 1e-10
    n_periods: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1e-2):
            raise InvalidParameters(f"rel_tol must be in (0, 1e-2), got {self.rel_tol!r}")
        if self.n_periods < 1:
            raise InvalidParameters(f"n_periods must be >= 1, got {self.n_periods!r}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one integration run. Arrays are read-only views.

    t, y, v are the sample times, displacements, and velocities, one sample
    per accepted step plus the initial state; e holds the conserved energy of
    the full nonlinear model at each sample (meaningful when the acceleration
    was not overridden), +-inf where it is beyond the float range. events
    are the turning times. local_err is the sum over accepted steps of the
    embedded local error estimates |err_y| + |err_v|/omega_c, relative to the
    displacement scale, where omega_c is the chord frequency at that scale
    (see measure_period).
    """

    t: np.ndarray
    y: np.ndarray
    v: np.ndarray
    e: np.ndarray
    events: np.ndarray
    n_accepted: int
    n_rejected: int
    local_err: float


def _hermite_v(s: float, h: float, v0: float, a0: float, v1: float, a1: float) -> float:
    """Cubic Hermite value of v at fraction s of a step of width h."""
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * v0
        + (s3 - 2.0 * s2 + s) * h * a0
        + (-2.0 * s3 + 3.0 * s2) * v1
        + (s3 - s2) * h * a1
    )


def _locate_turning(
    t: float, h: float, v0: float, a0: float, v1: float, a1: float
) -> float:
    """Bisect the Hermite interpolant of v for its sign change in (0, 1)."""
    lo, hi = 0.0, 1.0
    flo = v0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = _hermite_v(mid, h, v0, a0, v1, a1)
        if fm == 0.0:
            lo = hi = mid
            break
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return t + 0.5 * (lo + hi) * h


def _run(
    osc: Oscillation,
    t_span: tuple[float, float],
    state0: tuple[float, float],
    rel_tol: float,
    accel: Callable[[float], float] | None,
    max_events: int | None = None,
) -> Trajectory:
    """Integrate (y, v) from state0 over t_span, stopping early once
    max_events (at least 2) turning events are recorded. accel None means
    the model's force law, bound once per run.

    A step below 32 ulps of max(|t0|, |t_end|) raises StepFailure. Every t
    of the run lies between t0 and t_end, so this floor is never below 32
    ulps of max(|t|, |t_end|). For simulate, which runs from 0 up to its
    horizon, the two are equal on every step; on spans where |t| falls
    below |t0|, StepFailure comes in the same cases or earlier.

    The run is in unit time tau = t * 2**-shift, shift = _mass_exp -
    _sigma_exp, where the force has p._unit_sigma and p._unit_mass in place
    of sigma and mass (see model._from_unit_scale): velocities are scaled by
    2**shift and accelerations by 4**shift on the way in, and times,
    velocities and energies back on the way out. Every scaling is by a power
    of two, so where no intermediate is subnormal the run keeps its bits,
    and sigma/mass may overflow or underflow a float.
    """
    p = osc.params
    shift = p._mass_exp - p._sigma_exp
    if accel is None:
        accel = _bound_acceleration(p)
    else:
        physical = accel

        def accel(y: float) -> float:
            return math.ldexp(physical(y), 2 * shift)

    t, t_end = math.ldexp(t_span[0], -shift), math.ldexp(t_span[1], -shift)
    y, v = state0[0], math.ldexp(state0[1], shift)
    y_scale = max(osc.y0, abs(y))
    if y_scale == 0.0:
        raise InvalidParameters("simulation needs a nonzero amplitude or displacement")
    omega0 = math.sqrt(p._unit_stiffness)
    abs_y = _ABS_FLOOR * y_scale
    abs_v = abs_y * omega0
    if abs_y == 0.0 or abs_v == 0.0:
        raise InvalidParameters(
            f"cannot simulate at amplitude {y_scale!r} with l0 = {p.l0!r}, "
            f"l = {p.l!r}: an absolute error floor underflows to 0"
        )

    direction = 1.0 if t_end >= t else -1.0
    h = direction * min(abs(t_end - t), TWO_PI / omega0 / 500.0)
    h_floor = 32.0 * math.ulp(max(abs(t), abs(t_end)))
    # y' = v, so the y-stage slopes are the stage velocities; only the
    # v-stage slope k1v is carried over from the last stage (FSAL)
    k1v = accel(y)
    if not math.isfinite(k1v):
        raise StepFailure(
            f"the force per unit mass at y = {y!r} is {k1v!r} "
            f"(sigma = {p.sigma!r}, mass = {p.mass!r})"
        )
    ay, av = abs(y), abs(v)
    # velocity errors count as displacement errors at the chord frequency
    # sqrt(|F(y_scale)|/(m*y_scale)), the root of the model's largest
    # F(y)/(m*y) on the orbit; omega0 where the force there is 0, overflows
    # or is NaN
    omega_c = math.sqrt(abs(accel(y_scale)) / y_scale)
    if not 0.0 < omega_c < math.inf:
        omega_c = omega0

    ts, ys, vs = [t], [y], [v]
    local = 0.0
    events: list[float] = [t] if v == 0.0 else []
    err_prev = 1e-4
    n_acc = 0
    n_rej = 0
    just_rejected = False

    while (t - t_end) * direction < 0.0:
        if n_acc + n_rej >= _MAX_STEPS:
            raise MaxStepsExceeded(
                f"no result after {_MAX_STEPS} steps (t = {t!r} of {t_end!r})"
            )
        if abs(h) < h_floor:
            raise StepFailure(f"step size underflowed at t = {t!r} (h = {h!r})")
        if (t + h - t_end) * direction > 0.0:
            h = t_end - t

        y2 = y + h * (_A21 * v)
        v2 = v + h * (_A21 * k1v)
        k2v = accel(y2)
        y3 = y + h * (_A31 * v + _A32 * v2)
        v3 = v + h * (_A31 * k1v + _A32 * k2v)
        k3v = accel(y3)
        y4 = y + h * (_A41 * v + _A42 * v2 + _A43 * v3)
        v4 = v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
        k4v = accel(y4)
        y5 = y + h * (_A51 * v + _A52 * v2 + _A53 * v3 + _A54 * v4)
        v5 = v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
        k5v = accel(y5)
        y6 = y + h * (_A61 * v + _A62 * v2 + _A63 * v3 + _A64 * v4 + _A65 * v5)
        v6 = v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
        k6v = accel(y6)
        y_new = y + h * (_B1 * v + _B3 * v3 + _B4 * v4 + _B5 * v5 + _B6 * v6)
        v_new = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
        k7v = accel(y_new)

        err_y = h * (_E1 * v + _E3 * v3 + _E4 * v4 + _E5 * v5 + _E6 * v6 + _E7 * v_new)
        err_v = h * (
            _E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v
        )
        # |y| and |v| of the step start carry over from the last accepted step
        ay_new, av_new = abs(y_new), abs(v_new)
        sc_y = abs_y + rel_tol * (ay_new if ay_new > ay else ay)
        sc_v = abs_v + rel_tol * (av_new if av_new > av else av)
        err = math.sqrt(0.5 * ((err_y / sc_y) ** 2 + (err_v / sc_v) ** 2))

        if err <= 1.0:
            t_new = t + h
            if (v < 0.0 and v_new > 0.0) or (v > 0.0 and v_new < 0.0):
                event = _locate_turning(t, h, v, k1v, v_new, k7v)
            elif v_new == 0.0:
                event = t_new
            else:
                event = None
            n_acc += 1
            local += abs(err_y) + abs(err_v) / omega_c
            t, y, v, k1v = t_new, y_new, v_new, k7v
            ay, av = ay_new, av_new
            ts.append(t)
            ys.append(y)
            vs.append(v)
            if event is not None:
                events.append(event)
                if len(events) == max_events:
                    break
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev**_PI_BETA
            if just_rejected and factor > 1.0:
                factor = 1.0
            if factor > _MAX_FACTOR:
                factor = _MAX_FACTOR
            elif factor < _MIN_FACTOR:
                factor = _MIN_FACTOR
            h *= factor
            err_prev = err if err > 1e-4 else 1e-4
            just_rejected = False
        else:
            n_rej += 1
            h *= min(1.0, max(0.1, _SAFETY * err**-0.2))
            just_rejected = True

    ya, va = np.asarray(ys), np.asarray(vs)
    e = 0.5 * va * va + (2.0 * p._unit_sigma / p._unit_mass) * (
        ya * ya / (2.0 * p.l0) - np.hypot(p.l, ya)
    )
    with np.errstate(over="ignore"):
        e = np.ldexp(e, -2 * shift)
    arrays = (np.ldexp(ts, shift), ya, np.ldexp(va, -shift), e, np.ldexp(events, shift))
    for a in arrays:
        a.flags.writeable = False
    return Trajectory(*arrays, n_acc, n_rej, local / y_scale)


def simulate(
    osc: Oscillation,
    cfg: SimConfig = SimConfig(),
    accel: Callable[[float], float] | None = None,
) -> Trajectory:
    """Release from rest at y0 and integrate until n_periods have elapsed.

    Each period contributes two turning events; the run stops once
    2*n_periods events follow the initial one, so the default run ends at
    the third event (t = 0, P/2, P). The true period never exceeds
    the linear-limit period, so the time horizon (n_periods + 2) linear
    periods always suffices. `accel` overrides the force law (test hook for
    the linearized system); it must map y to d2y/dt2.
    """
    horizon = (cfg.n_periods + 2) * rayleigh_period(osc.params)
    want = 2 * cfg.n_periods + 1
    traj = _run(osc, (0.0, horizon), (osc.y0, 0.0), cfg.rel_tol, accel, want)
    if traj.events.size < want:
        raise ConvergenceFailure(
            f"expected {want} turning events within {horizon!r} time units, "
            f"found {traj.events.size}"
        )
    return traj


def integrate(
    osc: Oscillation, t_span: tuple[float, float], state0: tuple[float, float]
) -> Trajectory:
    """Integrate an arbitrary initial state over t_span (backward allowed)
    at the default SimConfig tolerance.

    Turning events are recorded but never stop the run; the trajectory always
    reaches t_span[1] exactly.
    """
    return _run(osc, t_span, state0, SimConfig().rel_tol, None)


def measure_period(traj: Trajectory) -> PeriodEstimate:
    """Period from turning events: the time from the first to the last
    over the number of periods between them, n_periods = (events.size - 1)/2.
    Needs at least three events (one full period).

    The error estimate is value * local_err / n_periods. local_err sums the
    embedded estimates |err_y| + |err_v|/omega_c of the accepted steps,
    relative to the displacement scale: local errors of the fourth-order
    solution, which exceed those of the fifth-order one that is carried
    forward. Over a period an oscillator carries a state error forward by an
    O(1) factor, and a relative state error e moves the phase by about e
    radians, e/(2*pi) of a period, so the estimate covers the accumulated
    phase error (Hairer, Norsett & Wanner, Solving ODEs I, II.3-II.4).
    omega_c, the chord frequency sqrt(|F(y_scale)|/(m*y_scale)), sizes the
    velocity term by the motion's own time scale, so the estimate stays
    tight where the period falls far below the linear one.
    """
    events = traj.events
    if events.size < 3:
        raise InsufficientEvents(
            f"need >= 3 turning events to estimate a period, got {events.size}"
        )
    n_periods = 0.5 * (events.size - 1)
    value = float(events[-1] - events[0]) / n_periods
    return PeriodEstimate(value, Method.ODE_SIM, value * traj.local_err / n_periods)
