"""Period measurement by direct simulation of the equation of motion.

Hairer's Dormand-Prince 8(5,3) pair (code DOP853) integrates y'' = a(y) in
Nystrom form (ssp._dop853): y' = v, so the stage velocities are never
formed, and the stage displacements, the update of y and its error
estimates are weighted sums of the force values alone. The force at the
step end is the next step's first stage (FSAL), so an accepted step costs
twelve force values. A proportional-integral controller sizes the steps on
Hairer's combined error norm e5^2/sqrt(e5^2 + 0.01*e3^2) of the embedded
fifth- and third-order estimates e5 and e3.

Events are roots, inside accepted steps, of one polynomial in the step
fraction: DOP853's seventh-order continuous extension of v over the step,
expanded once at three force values (_dop853._extension). A turning point
(v = 0) is its root (_dop853.velocity_root); turning times are half a
period apart. The force is odd in y, so a release from rest at y0 is
mirror-symmetric about its first zero crossing t_q, at exactly a quarter
period: y(t_q + s) = -y(t_q - s) and v(t_q + s) = v(t_q - s), and it
first turns at -y0 at 2*t_q. The default run stops on the step where y
first changes sign, locates t_q as the root of the polynomial's
antiderivative (_dop853.position_root), and records the turning at 2*t_q
as its second event. measure_period reads the period off the events; its
error estimate sums the accepted steps' fifth-order local error estimates
as the combined norm weighs them, read as a phase error.

The run is on the unit values of model.StringParams, in unit time (see
model._from_unit_scale), so the lengths' scale and sigma/mass may lie
outside the float range. The force is the model's, bound once per run as a
closure over the string's constants (model._bound_acceleration), because
each step makes twelve force evaluations and the calls through
`acceleration` and `vertical_force` cost more than their arithmetic; it
does the same operations in the same order, so every force value is the
model's, scaled by a power of two.

Every accepted step is recorded, in plain lists, the turning times in
physical time; `simulate` and `integrate` import numpy where they turn them
into a Trajectory's arrays, and complete the default run's half period
with the mirror images of the samples before t_q. measure_period reads the
period off the lists, so it needs neither numpy nor the mirror images. The
error weights of (y, v) are rel_tol * |value| plus an absolute floor of
1e-12 * y_scale for y and the same floor times the linear angular frequency
for v, where y_scale is the larger of y0 and the initial displacement.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from . import _dop853
from .errors import (
    ConvergenceFailure,
    InsufficientEvents,
    InvalidParameters,
    MaxStepsExceeded,
    StepFailure,
)
from .model import TWO_PI, Oscillation, _bound_acceleration, _Frozen, _scaled, rayleigh_period
from .model import acceleration  # noqa: F401  tracer-only: perfbench --trace wraps it
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


class SimConfig(_Frozen):
    """Relative step tolerance and run length of `simulate`.

    n_periods is a positive multiple of 1/2. The default run is half a
    period: its second event is the first turning after release, at twice
    the first zero crossing, where the run stops. The model's force is odd,
    so a half period is the span between opposite turning points (and,
    for n_periods = 0.5, twice the time to the first zero crossing). A
    longer run reads the same period, to within its error estimate, at
    proportionally more steps.
    """

    __slots__ = _fields = ("rel_tol", "n_periods")

    def __init__(self, rel_tol: float = 1e-10, n_periods: float = 0.5) -> None:
        object.__setattr__(self, "rel_tol", rel_tol)
        object.__setattr__(self, "n_periods", n_periods)
        if not (0.0 < self.rel_tol < 1e-2):
            raise InvalidParameters(f"rel_tol must be in (0, 1e-2), got {self.rel_tol!r}")
        # refuses nan and inf too: nan fails both tests, inf % 1 is nan
        twice = 2 * self.n_periods
        if not (twice >= 1 and twice % 1 == 0):
            raise InvalidParameters(
                f"n_periods must be a positive multiple of 0.5, got {self.n_periods!r}"
            )


class Trajectory(NamedTuple):
    """Recorded samples of one integration run. Arrays are read-only views.

    t, y, v are the sample times, displacements, and velocities: one
    sample per accepted step plus the initial state, except on the
    n_periods = 0.5 run, which keeps the samples before its zero crossing
    t_q and appends their mirror images (2*t_q - t, -y, v) in reverse
    order, ending at its last event; e holds the conserved energy of the
    full nonlinear model at each sample, +-inf where it is beyond the float
    range. events are the turning times. local_err is the sum over accepted
    steps of the fifth-order local error estimates
    |err5_y| + |err5_v|/omega_c, each times the factor
    e5/sqrt(e5^2 + 0.01*e3^2) by which the combined norm weighs it,
    relative to the displacement scale, where omega_c is the chord
    frequency at that scale (see measure_period).
    """

    t: np.ndarray
    y: np.ndarray
    v: np.ndarray
    e: np.ndarray
    events: np.ndarray
    n_accepted: int
    n_rejected: int
    local_err: float


class _Run(NamedTuple):
    """What _run records: the samples on the unit values, where physical time
    is unit time times 2**_period_exp, the turning times in physical time,
    the step counts, local_err (see Trajectory) and, where the run stopped
    at its first zero crossing, the unit time t_q of that crossing."""

    t: list[float]
    y: list[float]
    v: list[float]
    events: list[float]
    n_accepted: int
    n_rejected: int
    local_err: float
    t_q: float | None


def _run(
    osc: Oscillation,
    t_span: tuple[float, float],
    state0: tuple[float, float],
    rel_tol: float,
    max_events: int | None = None,
) -> _Run:
    """Integrate (y, v) under the model's force from state0 over t_span,
    stopping early once max_events (at least 2) turning events are recorded.

    max_events = 2 is half a period of a release from rest at y0 > 0: the
    force is odd, so the run stops on the step where y first reaches 0, at
    t_q, and records the turning at 2*t_q, its mirror image, as its second
    event and t_q (in unit time) as _Run.t_q. t_q and the turning points
    are roots of the step's one polynomial extension (see _dop853).

    A step below 32 ulps of max(|t0|, |t_end|) raises StepFailure, and a
    nonempty span whose first step is already below it InvalidParameters.
    Every t of the run lies between t0 and t_end, so this floor is never
    below 32 ulps of max(|t|, |t_end|). For simulate, which runs from 0 up
    to its horizon, the two are equal on every step; on spans where |t|
    falls below |t0|, StepFailure comes in the same cases or earlier.

    The run is on the unit values of p (model.StringParams), in unit time
    tau = t * 2**-shift, shift = _period_exp: displacements are scaled by
    4**-_length_exp, velocities by 2**(shift - 2*_length_exp) and
    accelerations by 4**(shift - _length_exp) on the way in, and turning
    times are recorded in physical time; the callers scale the samples and
    energies back. Every scaling is by a power of two, so where no
    intermediate is subnormal the run keeps its bits.
    """
    p = osc.params
    e, shift = p._length_exp, p._period_exp
    accel = _bound_acceleration(p)
    t, t_end = _scaled(t_span[0], -shift), _scaled(t_span[1], -shift)
    y, v = _scaled(state0[0], -2 * e), _scaled(state0[1], shift - 2 * e)
    if not all(map(math.isfinite, (t, t_end, y, v))):
        raise InvalidParameters(
            f"t_span {t_span!r} or state {state0!r} leaves the float range on the unit scale"
        )
    y_scale = max(osc._unit_y0, abs(y))
    if y_scale == 0.0:
        raise InvalidParameters("simulation needs a nonzero amplitude or displacement")
    omega0 = math.sqrt(p._unit_stiffness)
    abs_y = _ABS_FLOOR * y_scale
    abs_v = abs_y * omega0
    if abs_y == 0.0 or abs_v == 0.0:
        raise InvalidParameters(
            f"cannot simulate at amplitude {max(osc.y0, abs(state0[0]))!r} with "
            f"l0 = {p.l0!r}, l = {p.l!r}: an absolute error floor underflows to 0"
        )

    direction = 1.0 if t_end >= t else -1.0
    h = direction * min(abs(t_end - t), TWO_PI / omega0 / 100.0)
    h_floor = 32.0 * math.ulp(max(abs(t), abs(t_end)))
    if t != t_end and abs(h) < h_floor:
        raise InvalidParameters(
            f"t_span {t_span!r} cannot be stepped: its first step, {_scaled(h, shift)!r}, "
            f"is below the step floor of 32 ulps of its larger end"
        )
    # the force at the step end is the next step's first stage (FSAL)
    k0 = accel(y)
    if not math.isfinite(k0):
        raise StepFailure(
            f"the force per unit mass at y = {state0[0]!r} is {k0!r} "
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
    events: list[float] = [_scaled(t, shift)] if v == 0.0 else []
    err = err_prev = 1e-4
    n_acc = 0
    n_rej = 0
    just_rejected = False
    t_q = None

    while (t - t_end) * direction < 0.0:
        if n_acc + n_rej >= _MAX_STEPS:
            raise MaxStepsExceeded(
                f"no result after {_MAX_STEPS} steps (t = {t!r} of {t_end!r})"
            )
        if abs(h) < h_floor:
            # a last trial step that is not finite had its stage sums overflow
            why = "step size underflowed" if math.isfinite(err) else (
                f"the trial steps were not finite (the force per unit mass at the "
                f"step start, y = {_scaled(y, 2 * e)!r}, is {_scaled(k0, 2 * (e - shift))!r})"
            )
            raise StepFailure(f"{why} at t = {_scaled(t, shift)!r} (h = {_scaled(h, shift)!r})")
        if (t + h - t_end) * direction > 0.0:
            h = t_end - t

        y_new, v_new, err5_y, err5_v, err3_y, err3_v, ks = _dop853.step(accel, y, v, k0, h)
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
            if max_events == 2 and y_new <= 0.0:
                if y_new == 0.0:
                    t_q = t_new
                else:
                    t_q = t + h * _dop853.position_root(accel, y, v, h, y_new, v_new, ks, k_new)
                event = t_q + t_q
            elif (v < 0.0 and v_new > 0.0) or (v > 0.0 and v_new < 0.0):
                event = t + h * _dop853.velocity_root(accel, y, v, h, v_new, ks, k_new)
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
                events.append(_scaled(event, shift))
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

    return _Run(ts, ys, vs, events, n_acc, n_rej, local / y_scale, t_q)


def _trajectory(osc: Oscillation, run: _Run) -> Trajectory:
    """The run in physical time, with the energy of each sample, as
    read-only arrays. A run that stopped at its zero crossing t_q keeps its
    samples with t < t_q and appends their mirror images
    (2*t_q - t, -y, v) in reverse order, so it ends on its event, at
    (2*t_q, -y0, 0)."""
    import numpy as np

    p, shift, le = osc.params, osc.params._period_exp, osc.params._length_exp
    ts, ys, vs = run.t, run.y, run.v
    if run.t_q is not None:
        n = len(ts)
        while ts[n - 1] >= run.t_q:
            n -= 1
        ts, ys, vs = ts[:n], ys[:n], vs[:n]
        two_t_q = run.t_q + run.t_q
        ts += [two_t_q - t for t in reversed(ts)]
        ys += [-y for y in reversed(ys)]
        vs += vs[::-1]
    ya, va = np.asarray(ys), np.asarray(vs)
    # energy goes as velocity squared, 4**(2*_length_exp - shift)
    with np.errstate(over="ignore"):
        e = 0.5 * va * va + (2.0 * p._unit_sigma / p._unit_mass) * (
            ya * ya / (2.0 * p._unit_l0) - np.hypot(p._unit_l, ya)
        )
        e = np.ldexp(e, 4 * le - 2 * shift)
        y, v = np.ldexp(ya, 2 * le), np.ldexp(va, 2 * le - shift)
        arrays = (np.ldexp(ts, shift), y, v, e, np.asarray(run.events))
    for a in arrays:
        a.flags.writeable = False
    return Trajectory(*arrays, run.n_accepted, run.n_rejected, run.local_err)


def _release(osc: Oscillation, cfg: SimConfig) -> _Run:
    """simulate's run, before its arrays are built."""
    horizon = (cfg.n_periods + 2) * rayleigh_period(osc.params)
    want = int(2 * cfg.n_periods) + 1
    run = _run(osc, (0.0, horizon), (osc.y0, 0.0), cfg.rel_tol, want)
    if len(run.events) < want:
        raise ConvergenceFailure(
            f"expected {want} turning events within {horizon!r} time units, "
            f"found {len(run.events)}"
        )
    return run


def simulate(osc: Oscillation, cfg: SimConfig = SimConfig()) -> Trajectory:
    """Release from rest at y0 and integrate until n_periods have elapsed.

    Each period contributes two turning events; the run stops once
    2*n_periods events follow the initial one. The default run
    (n_periods = 0.5) stops at its first zero crossing t_q = P/4 instead,
    records the turning at 2*t_q as its second event (t = 0, P/2), and its
    samples after t_q are the mirror images of those before it. The true
    period never exceeds the linear-limit period, so the time horizon
    (n_periods + 2) linear periods always suffices.
    """
    return _trajectory(osc, _release(osc, cfg))


def integrate(
    osc: Oscillation, t_span: tuple[float, float], state0: tuple[float, float]
) -> Trajectory:
    """Integrate an arbitrary initial state over t_span (backward allowed)
    at the default SimConfig tolerance.

    Turning events are recorded but never stop the run; the trajectory always
    reaches t_span[1] exactly.
    """
    return _trajectory(osc, _run(osc, t_span, state0, SimConfig().rel_tol))


def measure_period(traj: Trajectory | _Run) -> PeriodEstimate:
    """Period from turning events: the time from the first to the last
    over the number of periods between them, n_periods = (events.size - 1)/2.
    Needs at least two events. The default run has two, the second at
    twice its first zero crossing, so the period is 2*(e1 - e0): two events
    span half a period, as the force is odd in y (see SimConfig).

    The error estimate is value * local_err / n_periods, 2*value*local_err
    on the default run. local_err sums the embedded estimates
    |err5_y| + |err5_v|/omega_c of the accepted steps, as the step-size
    control weighs them, relative to the displacement scale:
    local errors of the fifth-order solution, which exceed those of the
    eighth-order one that is carried forward. Over a period an oscillator carries a state error forward by an
    O(1) factor, and a relative state error e moves the phase by about e
    radians, e/(2*pi) of a period, so the estimate covers the accumulated
    phase error (Hairer, Norsett & Wanner, Solving ODEs I, II.3-II.4).
    omega_c, the chord frequency sqrt(|F(y_scale)|/(m*y_scale)), sizes the
    velocity term by the motion's own time scale, so the estimate stays
    tight where the period falls far below the linear one. traj may also be
    simulate's run before its arrays are built (_release).
    """
    events = traj.events
    if len(events) < 2:
        raise InsufficientEvents(
            f"need >= 2 turning events to estimate a period, got {len(events)}"
        )
    n_periods = 0.5 * (len(events) - 1)
    value = float(events[-1] - events[0]) / n_periods
    return PeriodEstimate(value, Method.ODE_SIM, value * traj.local_err / n_periods)
