"""Period measurement by direct simulation of the equation of motion.

Hairer's Dormand-Prince 8(5,3) pair (code DOP853) integrates y'' = a(y) in
Nystrom form (ssp._dop853): y' = v, so the stage velocities are never
formed, and the stage displacements, the update of y and its error
estimates are weighted sums of the force values alone. The force at the
step end is the next step's first stage (FSAL), so an accepted step costs
twelve force values. The steps are sized on Hairer's combined error norm
e = e5^2/sqrt(e5^2 + 0.01*e3^2) of the embedded fifth- and third-order
estimates e5 and e3 (Hairer, Norsett & Wanner, Solving ODEs I, II.4 and
II.10), each the local error on the orbit's scale, |err_y| + |err_v|/omega_c
with omega_c the chord frequency at y0 (see measure_period). A step is
accepted where err = e/(2*rel_tol*y0) is at most 1, the mean of its two
components at most rel_tol*y0, and the error estimate sums the same e. The
first step is a hundredth of the linear period. It has no error history, so
the second step is the first times the elementary factor 0.9*err**(-1/8);
from the second accepted step on, Gustafsson's proportional-integral factor
0.9*err**(-0.7/8)*err_prev**(0.4/8) takes over, err_prev the previous
accepted step's err, at least 1e-4 (ACM TOMS 17 (1991) 533-554). Either
factor is at most 5, and at most 1 right after a rejected step.

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
as its second event. Where y0 is far above l the crossing step jumps the
force's turn within about l of y = 0, and no error estimate of that step
covers the interior point t_q. So the run takes one more step, from the
crossing step's start to t_q (eleven force values), whose end point
(y_q, v_q) misses y = 0 by t_q's error, and corrects t_q by the Newton step
dt = -y_q/v_q. measure_period reads the period off the events; its error
estimate sums the accepted steps' e, plus the rounding of y and of the
force per step, read as a phase error, and on the default run adds 4*|dt|,
the correction's size in the period.

The run is on the unit values of model.StringParams, in unit time (see
its slot comment), so the lengths' scale and sigma/mass may lie outside
the float range. The force is the model's, bound once per run as a closure
over the string's constants (model._bound_acceleration), because each step
makes twelve force evaluations and the call through `acceleration` costs
more than its arithmetic; it does the same operations in the same order,
so every force value is the model's, scaled by a power of two.

Every accepted step is recorded, in plain lists, the turning times in
physical time; `simulate` imports numpy where it turns them into a
Trajectory's arrays, and completes the default run's half period with the
mirror images of the samples before t_q. measure_period reads the period
off the lists, so it needs neither numpy nor the mirror images.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from . import _dop853
from .errors import EngineFailure, InvalidParameters
from .model import _TINY, TWO_PI, Oscillation, _bound_acceleration, _Frozen, _scaled
from .model import acceleration  # noqa: F401  tracer-only: perfbench --trace wraps it
from .quadrature import Method, PeriodEstimate

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SimConfig", "Trajectory", "simulate", "measure_period"]

_SAFETY = 0.9
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 8.0  # proportional exponent
_PI_BETA = 0.4 / 8.0  # integral exponent (previous error feedback)
# attempted steps (accepted plus rejected) before the run gives up
_MAX_STEPS = 10_000_000


class SimConfig(_Frozen):
    """Relative step tolerance and run length of `simulate`.

    rel_tol bounds each accepted step's mean local error on the orbit's
    scale by rel_tol*y0 (see the module docstring), so Trajectory.local_err
    is at most 2*rel_tol*n_accepted plus its rounding and crossing terms.

    n_periods is a positive multiple of 1/2. The default run is half a
    period: its second event is the first turning after release, at twice
    the first zero crossing, where the run stops, and the crossing time is
    corrected by one extra step to it (see the module docstring), which its
    error estimate counts. The model's force is odd,
    so a half period is the span between opposite turning points (and,
    for n_periods = 0.5, twice the time to the first zero crossing). A
    longer run reads the same period, to within its error estimate, at
    proportionally more steps. The run's horizon is n_periods + 1/2 linear
    periods: its last event comes at n_periods periods, none longer than
    the linear-limit period, and the extra half covers the step that
    reaches it. It is formed in unit time, so it may exceed the float range
    in physical time where the run's events do not.
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
    """Recorded samples of one release from rest. Arrays are read-only views.

    t, y, v are the sample times, displacements, and velocities: one
    sample per accepted step plus the initial state, except on the
    n_periods = 0.5 run, which keeps the samples before its zero crossing
    t_q and appends their mirror images (2*t_q - t, -y, v) in reverse
    order, ending at its last event; e holds the conserved energy of the
    full nonlinear model at each sample, +-inf where it is beyond the float
    range. events are the turning times. local_err, relative to y0, sums
    over accepted steps the combined norm's e (see the module docstring)
    and the rounding of y and of the force, ulp(y0)/y0 + ulp(F)/|F| at the
    release force F, which is the run's error near the bottom of the float
    range; the n_periods = 0.5 run adds |dt|/(2*t_q), the correction of its
    zero crossing time relative to the half period.
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
    """What _release records: the samples on the unit values, where
    physical time is unit time times 2**_period_exp, the turning times in
    physical time, the step counts, local_err (see Trajectory) and, where
    the run stopped at its first zero crossing, the unit time t_q of that
    crossing."""

    t: list[float]
    y: list[float]
    v: list[float]
    events: list[float]
    n_accepted: int
    n_rejected: int
    local_err: float
    t_q: float | None


def _release(osc: Oscillation, cfg: SimConfig) -> _Run:
    """simulate's run, before its arrays are built: (y, v) from (y0, 0) at
    t = 0 under the model's force, forward until 2*n_periods turning events
    follow the one at t = 0. A run that reaches the horizon first,
    n_periods + 1/2 linear periods (see SimConfig), raises EngineFailure. The
    force is odd, so the default run (n_periods = 0.5) stops on the step
    where y first reaches 0, at t_q, and records the turning at 2*t_q, the
    mirror image of the release, as its second event and t_q (in unit
    time) as _Run.t_q. t_q and the turning points are roots of the step's
    one polynomial extension (see _dop853); t_q is then corrected by a step
    to it (see the module docstring).

    A step below 32 ulps of the horizon raises EngineFailure, and a first
    step already below it InvalidParameters, as does a horizon beyond the
    float range in unit time, whose floor is inf, and a run whose
    rel_tol*y0 or rel_tol*|F(y0)| on the unit values is below 5e-324.

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
    rel_tol = cfg.rel_tol
    want = int(2 * cfg.n_periods) + 1
    y0 = osc._unit_y0
    if y0 == 0.0:
        raise InvalidParameters("simulation needs a nonzero amplitude")
    omega0 = math.sqrt(p._unit_stiffness)
    t, t_end = 0.0, (cfg.n_periods + 0.5) * (TWO_PI / omega0)

    h = TWO_PI / omega0 / 100.0
    h_floor = 32.0 * math.ulp(t_end)
    if h < h_floor:
        raise InvalidParameters(
            f"n_periods = {cfg.n_periods!r} cannot be run: the first step, "
            f"{_scaled(h, shift)!r}, is below the step floor of 32 ulps of its "
            f"horizon, {_scaled(t_end, shift)!r} (n_periods + 1/2 linear periods)"
        )
    # the force at the step end is the next step's first stage (FSAL)
    y, v = y0, 0.0
    k0 = accel(y)
    if not math.isfinite(k0):
        raise EngineFailure(
            f"the force per unit mass at y = {osc.y0!r} is {k0!r} "
            f"(sigma = {p.sigma!r}, mass = {p.mass!r})"
        )
    if rel_tol * min(y0, abs(k0)) < _TINY:
        raise InvalidParameters(
            f"cannot simulate at amplitude {osc.y0!r} with l0 = {p.l0!r}, "
            f"l = {p.l!r}: rel_tol times the amplitude or the release force, "
            f"on the unit values, is below the smallest float"
        )
    # velocity errors count as displacement errors at the chord frequency
    # sqrt(|F(y0)|/(m*y0)), the root of the model's largest F(y)/(m*y) on
    # the orbit, from the first stage's force; omega0 where the quotient
    # underflows or overflows
    omega_c = math.sqrt(abs(k0) / y0)
    if not 0.0 < omega_c < math.inf:
        omega_c = omega0
    # a step's error budget, rel_tol*y0 per component, and its rounding
    tol = 2.0 * rel_tol * y0
    rounding = math.ulp(y0) + y0 * (math.ulp(k0) / abs(k0))

    ts, ys, vs = [t], [y], [v]
    local = 0.0
    events = [0.0]
    n_acc = 0
    n_rej = 0
    just_rejected = False
    t_q = None

    while t < t_end:
        if n_acc + n_rej >= _MAX_STEPS:
            raise EngineFailure(
                f"no result after {_MAX_STEPS} steps (t = {t!r} of {t_end!r})"
            )
        if h < h_floor:
            # a last trial step that is not finite had its stage sums overflow
            why = "step size underflowed" if math.isfinite(err) else (
                f"the trial steps were not finite (the force per unit mass at the "
                f"step start, y = {_scaled(y, 2 * e)!r}, is {_scaled(k0, 2 * (e - shift))!r})"
            )
            raise EngineFailure(f"{why} at t = {_scaled(t, shift)!r} (h = {_scaled(h, shift)!r})")
        if t + h > t_end:
            h = t_end - t

        y_new, v_new, err5_y, err5_v, err3_y, err3_v, ks = _dop853.step(accel, y, v, k0, h)
        # the local error on the orbit's scale
        e5 = abs(err5_y) + abs(err5_v) / omega_c
        e3 = abs(err3_y) + abs(err3_v) / omega_c
        # Hairer's combined norm: the fifth-order estimate, shrunk by
        # e5/sqrt(e5^2 + 0.01*e3^2) where the third-order one is larger
        e5 *= e5 / math.hypot(e5, 0.1 * e3) if e5 > 0.0 else 1.0
        err = e5 / tol

        if err <= 1.0:
            t_new = t + h
            k_new = accel(y_new)
            if want == 2 and y_new <= 0.0:
                t_q = t_new
                if y_new < 0.0:
                    # the step's error estimates do not cover the extension's
                    # root: a step from t to it ends at y_q, off 0 by the
                    # root's error, and one Newton step in time, dt, corrects
                    # t_q and counts into local_err relative to the half
                    # period 2*t_q
                    h_q = h * _dop853.position_root(accel, y, v, h, y_new, v_new, ks, k_new)
                    y_q, v_q, *_ = _dop853.step(accel, y, v, k0, h_q)
                    dt = -y_q / v_q
                    t_q = t + h_q + dt
                    local += y0 * (abs(dt) / (t_q + t_q))
                event = t_q + t_q
            elif (v < 0.0 and v_new > 0.0) or (v > 0.0 and v_new < 0.0):
                event = t + h * _dop853.velocity_root(accel, y, v, h, v_new, ks, k_new)
            elif v_new == 0.0:
                event = t_new
            else:
                event = None
            n_acc += 1
            local += e5 + rounding
            t, y, v, k0 = t_new, y_new, v_new, k_new
            ts.append(t)
            ys.append(y)
            vs.append(v)
            if event is not None:
                events.append(_scaled(event, shift))
                if len(events) == want:
                    return _Run(ts, ys, vs, events, n_acc, n_rej, local / y0, t_q)
            if err == 0.0:
                factor = _MAX_FACTOR
            elif n_acc == 1:
                # no error history yet: the elementary controller
                factor = _SAFETY * err ** (-1.0 / 8.0)
            else:
                factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev**_PI_BETA
            # err <= 1 and err_prev >= 1e-4 keep factor above 0.9*1e-4**0.05 > 0.5
            if just_rejected and factor > 1.0:
                factor = 1.0
            if factor > _MAX_FACTOR:
                factor = _MAX_FACTOR
            h *= factor
            err_prev = err if err > 1e-4 else 1e-4
            just_rejected = False
        else:
            n_rej += 1
            # err > 1, inf or nan (max keeps 0.1 against nan): a factor in [0.1, 0.9)
            h *= max(0.1, _SAFETY * err ** (-1.0 / 8.0))
            just_rejected = True

    raise EngineFailure(
        f"expected {want} turning events within {_scaled(t_end, shift)!r} time units, "
        f"found {len(events)}"
    )


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


def simulate(osc: Oscillation, cfg: SimConfig = SimConfig()) -> Trajectory:
    """Release from rest at y0 and integrate until n_periods have elapsed.

    Each period contributes two turning events; the run stops once
    2*n_periods events follow the initial one. The default run
    (n_periods = 0.5) stops at its first zero crossing t_q = P/4 instead,
    records the turning at 2*t_q as its second event (t = 0, P/2), and its
    samples after t_q are the mirror images of those before it. The true
    period never exceeds the linear-limit period, so the time horizon,
    n_periods + 1/2 linear periods (see SimConfig), always suffices.
    """
    return _trajectory(osc, _release(osc, cfg))


def measure_period(traj: Trajectory | _Run) -> PeriodEstimate:
    """Period from turning events: the time from the first to the last
    over the number of periods between them, n_periods = (events.size - 1)/2.
    Needs at least two events. The default run has two, the second at
    twice its first zero crossing, so the period is 2*(e1 - e0): two events
    span half a period, as the force is odd in y (see SimConfig).

    The error estimate is value * local_err / n_periods, 2*value*local_err
    on the default run, where local_err's crossing term adds 4*|dt|, the
    size in the period of the correction dt of the zero crossing time
    (see the module docstring). local_err sums the embedded estimates
    |err5_y| + |err5_v|/omega_c of the accepted steps, the numbers the
    step-size control bounds, relative to y0: local errors of the fifth-order
    solution, which exceed those of the eighth-order one that is carried
    forward. Over a period an oscillator carries a state error forward by an
    O(1) factor, and a relative state error e moves the phase by about e
    radians, e/(2*pi) of a period, so the estimate covers the accumulated
    phase error (Hairer, Norsett & Wanner, Solving ODEs I, II.3-II.4).
    omega_c, the chord frequency sqrt(|F(y0)|/(m*y0)), sizes the
    velocity term by the motion's own time scale, so the estimate stays
    tight where the period falls far below the linear one. traj may also be
    simulate's run before its arrays are built (_release).
    """
    events = traj.events
    if len(events) < 2:
        raise EngineFailure(
            f"need >= 2 turning events to estimate a period, got {len(events)}"
        )
    n_periods = 0.5 * (len(events) - 1)
    value = float(events[-1] - events[0]) / n_periods
    return PeriodEstimate(value, Method.ODE_SIM, value * traj.local_err / n_periods)
