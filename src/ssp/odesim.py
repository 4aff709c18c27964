"""Period measurement by direct simulation of the equation of motion.

Hairer's Dormand-Prince 8(5,3) pair (code DOP853) integrates y'' = a(y) in
Nystrom form (ssp._dop853): y' = v, so the stage velocities are never
formed, and the stage displacements, the update of y and its error
estimates are weighted sums of the force values alone. The force at the
step end is the next step's first stage (FSAL), so an accepted step costs
twelve force values. A proportional-integral controller sizes the steps on
Hairer's combined error norm e5^2/sqrt(e5^2 + 0.01*e3^2) of the embedded
fifth- and third-order estimates e5 and e3.

Turning points (v = 0) are located inside accepted steps. The root of the
cubic Hermite interpolant of v, from the forces at both step ends, is the
first guess; Newton on v(s) itself refines it, each iterate one partial step
of width s*h from the step start (see _turning_fraction). Consecutive
turning times are half periods, so the span from the first to the last
turning time over the number of periods between them gives the period. Its
error estimate sums over accepted steps the fifth-order local error
estimate as the combined norm weighs it, relative to the amplitude, read as
a phase error (see measure_period).

The run is in unit time, in which sigma and mass are replaced by their
unit-scaled values (model._from_unit_scale), so sigma/mass may lie outside
the float range. The default force is bound once per run as a closure over
the string's constants (model._bound_acceleration), because each step makes
twelve force evaluations and the calls through `acceleration` and
`vertical_force` cost more than their arithmetic; it does the same
operations in the same order, so every force value is the model's, scaled
by a power of two.

Every accepted step is recorded, in plain lists; `simulate` and `integrate`
import numpy where they turn them into a Trajectory's arrays, and the period
alone (`_simulated_period`, which `ssp period` runs) needs no numpy. The
error weights of (y, v) are rel_tol * |value| plus an absolute floor of
1e-12 * y_scale for y and the same floor times the linear angular frequency
for v, where y_scale is the larger of y0 and the initial displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import _dop853
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

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SimConfig", "Trajectory", "simulate", "integrate", "measure_period"]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 8.0  # proportional exponent
_PI_BETA = 0.4 / 8.0  # integral exponent (previous error feedback)
# root mean square over the two components (y, v)
_RMS = math.sqrt(0.5)
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
    fifth-order local error estimates |err5_y| + |err5_v|/omega_c, each
    times the factor e5/sqrt(e5^2 + 0.01*e3^2) by which the combined norm
    weighs it, relative to the displacement scale, where omega_c is the
    chord frequency at that scale (see measure_period).
    """

    t: np.ndarray
    y: np.ndarray
    v: np.ndarray
    e: np.ndarray
    events: np.ndarray
    n_accepted: int
    n_rejected: int
    local_err: float


def _turning_fraction(
    accel: Callable[[float], float],
    y: float,
    v: float,
    k0: float,
    h: float,
    v1: float,
    k1: float,
) -> float:
    """Fraction s of the accepted step of width h from (y, v) at which v
    changes sign on its way to v1 (k0, k1 the forces at the step ends).

    The first guess is the root of the cubic Hermite interpolant of v, by
    Newton from the secant root. Newton on v(s) itself follows: each iterate
    is one partial step of width s*h from the step start, whose force at
    its end gives dv/ds = h*a(y(s)). A partial step with s = 1 is the step.
    """
    # the Hermite cubic is v + s*(c1 + s*(c2 + s*c3))
    c1 = h * k0
    c2 = 3.0 * (v1 - v) - h * (2.0 * k0 + k1)
    c3 = 2.0 * (v - v1) + h * (k0 + k1)
    s = v / (v - v1)
    for _ in range(3):
        slope = c1 + s * (2.0 * c2 + 3.0 * s * c3)
        if slope == 0.0:
            break
        s = min(1.0, max(0.0, s - (v + s * (c1 + s * (c2 + s * c3))) / slope))
    for _ in range(4):
        y_s, v_s, *_ = _dop853.step(accel, y, v, k0, s * h)
        slope = h * accel(y_s)
        if slope == 0.0:
            break
        ds = v_s / slope
        s = min(1.0, max(0.0, s - ds))
        if abs(ds) <= 1e-15:
            break
    return s


class _Run(NamedTuple):
    """What _run records, in unit time: the samples, the turning times, the
    step counts and local_err (see Trajectory). Physical time is unit time
    times 2**shift."""

    t: list[float]
    y: list[float]
    v: list[float]
    events: list[float]
    n_accepted: int
    n_rejected: int
    local_err: float
    shift: int


def _run(
    osc: Oscillation,
    t_span: tuple[float, float],
    state0: tuple[float, float],
    rel_tol: float,
    accel: Callable[[float], float] | None,
    max_events: int | None = None,
) -> _Run:
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
    2**shift and accelerations by 4**shift on the way in, and the callers
    scale times, velocities and energies back. Every scaling is by a power
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
    h = direction * min(abs(t_end - t), TWO_PI / omega0 / 100.0)
    h_floor = 32.0 * math.ulp(max(abs(t), abs(t_end)))
    # the force at the step end is the next step's first stage (FSAL)
    k0 = accel(y)
    if not math.isfinite(k0):
        raise StepFailure(
            f"the force per unit mass at y = {y!r} is {k0!r} "
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

        y_new, v_new, err5_y, err5_v, err3_y, err3_v = _dop853.step(accel, y, v, k0, h)
        # |y| and |v| of the step start carry over from the last accepted step
        ay_new, av_new = abs(y_new), abs(v_new)
        sc_y = abs_y + rel_tol * (ay_new if ay_new > ay else ay)
        sc_v = abs_v + rel_tol * (av_new if av_new > av else av)
        e5 = math.hypot(err5_y / sc_y, err5_v / sc_v)
        e3 = math.hypot(err3_y / sc_y, err3_v / sc_v)
        # Hairer's combined norm: the fifth-order estimate, shrunk by
        # e5/sqrt(e5^2 + 0.01*e3^2) where the third-order one is larger
        shrink = e5 / math.hypot(e5, 0.1 * e3) if e5 > 0.0 else 0.0
        err = e5 * shrink * _RMS

        if err <= 1.0:
            t_new = t + h
            k_new = accel(y_new)
            if (v < 0.0 and v_new > 0.0) or (v > 0.0 and v_new < 0.0):
                event = t + h * _turning_fraction(accel, y, v, k0, h, v_new, k_new)
            elif v_new == 0.0:
                event = t_new
            else:
                event = None
            n_acc += 1
            local += (abs(err5_y) + abs(err5_v) / omega_c) * shrink
            t, y, v, k0 = t_new, y_new, v_new, k_new
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
            h *= min(1.0, max(0.1, _SAFETY * err ** (-1.0 / 8.0)))
            just_rejected = True

    return _Run(ts, ys, vs, events, n_acc, n_rej, local / y_scale, shift)


def _trajectory(osc: Oscillation, run: _Run) -> Trajectory:
    """The run in physical time, with the energy of each sample, as
    read-only arrays."""
    import numpy as np

    p, shift = osc.params, run.shift
    ya, va = np.asarray(run.y), np.asarray(run.v)
    e = 0.5 * va * va + (2.0 * p._unit_sigma / p._unit_mass) * (
        ya * ya / (2.0 * p.l0) - np.hypot(p.l, ya)
    )
    with np.errstate(over="ignore"):
        e = np.ldexp(e, -2 * shift)
    arrays = (np.ldexp(run.t, shift), ya, np.ldexp(va, -shift), e, np.ldexp(run.events, shift))
    for a in arrays:
        a.flags.writeable = False
    return Trajectory(*arrays, run.n_accepted, run.n_rejected, run.local_err)


def _release(
    osc: Oscillation, cfg: SimConfig, accel: Callable[[float], float] | None
) -> _Run:
    """simulate's run, before its arrays are built."""
    horizon = (cfg.n_periods + 2) * rayleigh_period(osc.params)
    want = 2 * cfg.n_periods + 1
    run = _run(osc, (0.0, horizon), (osc.y0, 0.0), cfg.rel_tol, accel, want)
    if len(run.events) < want:
        raise ConvergenceFailure(
            f"expected {want} turning events within {horizon!r} time units, "
            f"found {len(run.events)}"
        )
    return run


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
    return _trajectory(osc, _release(osc, cfg, accel))


def integrate(
    osc: Oscillation, t_span: tuple[float, float], state0: tuple[float, float]
) -> Trajectory:
    """Integrate an arbitrary initial state over t_span (backward allowed)
    at the default SimConfig tolerance.

    Turning events are recorded but never stop the run; the trajectory always
    reaches t_span[1] exactly.
    """
    return _trajectory(osc, _run(osc, t_span, state0, SimConfig().rel_tol, None))


def _period(events: Sequence[float], local_err: float) -> PeriodEstimate:
    """The period estimate from physical turning times and local_err (see
    measure_period)."""
    if len(events) < 3:
        raise InsufficientEvents(
            f"need >= 3 turning events to estimate a period, got {len(events)}"
        )
    n_periods = 0.5 * (len(events) - 1)
    value = float(events[-1] - events[0]) / n_periods
    return PeriodEstimate(value, Method.ODE_SIM, value * local_err / n_periods)


def measure_period(traj: Trajectory) -> PeriodEstimate:
    """Period from turning events: the time from the first to the last
    over the number of periods between them, n_periods = (events.size - 1)/2.
    Needs at least three events (one full period).

    The error estimate is value * local_err / n_periods. local_err sums the
    embedded estimates |err5_y| + |err5_v|/omega_c of the accepted steps, as
    the step-size control weighs them, relative to the displacement scale:
    local errors of the fifth-order solution, which exceed those of the
    eighth-order one that is carried forward. Over a period an oscillator carries a state error forward by an
    O(1) factor, and a relative state error e moves the phase by about e
    radians, e/(2*pi) of a period, so the estimate covers the accumulated
    phase error (Hairer, Norsett & Wanner, Solving ODEs I, II.3-II.4).
    omega_c, the chord frequency sqrt(|F(y_scale)|/(m*y_scale)), sizes the
    velocity term by the motion's own time scale, so the estimate stays
    tight where the period falls far below the linear one.
    """
    return _period(traj.events, traj.local_err)


def _simulated_period(osc: Oscillation, cfg: SimConfig) -> PeriodEstimate:
    """measure_period(simulate(osc, cfg)), bit for bit, without the
    trajectory's arrays (and so without numpy)."""
    run = _release(osc, cfg, None)
    return _period([math.ldexp(t, run.shift) for t in run.events], run.local_err)
