"""Period measurement by direct simulation of the equation of motion.

Hairer's Dormand-Prince 8(5,3) pair (code DOP853) integrates y'' = a(y) in
Nystrom form (ssp._dop853): y' = v, so the stage velocities are never
formed, and the stage displacements, the update of y and its error
estimates are weighted sums of the force values alone. The force at the
step end is the next step's first stage (FSAL), so an accepted step costs
twelve force values. The steps are sized on Hairer's combined norm e of
the step's embedded error estimates, which _dop853.step returns on the
orbit's scale at omega_c, the chord frequency at y0 (see measure_period;
Hairer, Norsett & Wanner, Solving ODEs I, II.4 and II.10). A step is
accepted where err = e/(2*rel_tol*y0) is at most 1, the mean of its two
components at most rel_tol*y0, and the error estimate sums the same e. The
first step is sized on the problem's own scale (Hairer, Norsett & Wanner I,
II.4): it is the step the controller would accept on the run's
linearisation y'' = -omega_c**2*y, on which e is about _K*(omega_c*h)**8*y0,
h = min(1, 0.9*(2*rel_tol/_K)**(1/8))/omega_c. The cap at one radian keeps
h where that leading term holds. Each accepted step sizes the next by
DOP853's elementary factor 0.9*err**(-1/8), and from the second accepted
step on by the smaller of that and Gustafsson's predictive factor
0.9*(h/h_prev)*(err_prev/err**2)**(1/8), as RADAU5 does (ACM TOMS 20 (1994)
496-517); h_prev and err_prev are the previous accepted step's width and
err, the latter at least 1e-4. The factor is at most 5, and at most 1 right
after a rejected step.

The force is odd in y, bit for bit, and the run starts from rest, so the
motion is an image of its first quarter period: with t_q the first zero
crossing, y(2*t_q - t) = -y(t) and v(2*t_q - t) = v(t), and
y(t + 2*t_q) = -y(t) and v(t + 2*t_q) = -v(t). So every run integrates one
quarter period: it stops on the step where y first reaches 0 and finds t_q
on the quintic Hermite polynomial of y over that step, which matches y, v
and the force at both ends and costs no force value
(_dop853.hermite_root). Where y0 is far above l the crossing step jumps the
force's turn within about l of y = 0, and no error estimate of that step
covers the interior point t_q. So the run takes one more step, from the
crossing step's start to t_q (eleven force values), whose end point
(y_q, v_q) misses y = 0 by t_q's error, and corrects t_q by the Newton step
dt = -y_q/v_q. The turning events are k*2*t_q for k in 0..2*n_periods.
measure_period reads the period as 4*t_q; its error estimate sums the
accepted steps' e, plus the rounding of y and of the force per step, read
as a phase error, and adds 4*|dt|, the correction's size in the period.

The run is on the unit values of model.StringParams, in unit time (see
its slot comment), so the lengths' scale and sigma/mass may lie outside
the float range. The force is the model's, bound once per run as a closure
over the string's constants (model._bound_acceleration), because each step
makes twelve force evaluations and the call through `acceleration` costs
more than its arithmetic; it does the same operations in the same order,
so every force value is the model's, scaled by a power of two.

Every accepted step before t_q is recorded, in plain lists, with the turning
times 0 and 2*t_q in physical time; measure_period reads the period off
these. `simulate` adds, in plain floats, the mirror images of the samples
before t_q and the images of that half period for each further one, and
imports numpy only to wrap the finished lists as a Trajectory's arrays.
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


# the leading coefficient of the norm of a step from rest on y'' = -y: e is
# _K*(omega*h)**8 of the amplitude to within 25% for omega*h in 1/32..1
# (e/(omega*h)**8 reads 4.37e-7 as omega*h -> 0 until rounding takes over,
# 4.22e-7 at 1/16, where _K is taken, and 3.42e-7 at 1)
_K = _dop853.step(lambda y: -y, 1.0, 0.0, -1.0, 1.0 / 16.0, 1.0)[2] * 16.0**8

# attempted steps (accepted plus rejected) before the run gives up, and the
# most samples a run's Trajectory may hold
_MAX_STEPS = 10_000_000


class SimConfig(_Frozen):
    """Relative step tolerance and run length of `simulate`.

    rel_tol bounds each accepted step's mean local error on the orbit's
    scale by rel_tol*y0 (see the module docstring), so Trajectory.local_err
    is at most 2*rel_tol*n_accepted plus its rounding and crossing terms.

    n_periods is a positive multiple of 1/2, the span of the Trajectory.
    Every run integrates the same quarter period, to the first zero crossing
    t_q, and tiles its 2*n_periods half periods from it (see the module
    docstring), so n_periods changes neither the steps nor the period that
    measure_period reads.
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

    t, y, v are the sample times, displacements, and velocities: the initial
    state and one sample per accepted step before the first zero crossing
    t_q, then their mirror images (2*t_q - t, -y, v) in reverse order, which
    end at (2*t_q, -y0, 0) and complete the first half period; half period
    j >= 1 is the image (t + 2*j*t_q, (-1)**j*y, (-1)**j*v) of the first's
    samples after t = 0, and ends on its turning event. e holds the
    conserved energy of the full nonlinear model at each sample, +-inf where
    it is beyond the float range, formed with math.hypot once per sample
    before t_q and copied to its images, as it is even in y and in v. events
    are the turning times k*2*t_q for k in 0..2*n_periods. n_accepted and
    n_rejected count the quarter period's steps. local_err, relative to y0,
    sums over accepted steps the combined norm e that _dop853.step returns
    and the rounding of y and of the force, ulp(y0)/y0 + ulp(F)/|F| at the
    release force F, which is the run's error near the bottom of the float
    range, and adds |dt|/(2*t_q), the correction of the zero crossing time
    relative to the half period.
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
    """What _release records: the samples before the first zero crossing on
    the unit values, where physical time is unit time times 2**_period_exp,
    the turning times 0 and 2*t_q in physical time, the step counts,
    local_err (see Trajectory) and the unit time t_q of the crossing."""

    t: list[float]
    y: list[float]
    v: list[float]
    events: list[float]
    n_accepted: int
    n_rejected: int
    local_err: float
    t_q: float


def _release(osc: Oscillation, cfg: SimConfig) -> _Run:
    """simulate's run, before its arrays are built: (y, v) from (y0, 0) at
    t = 0 under the model's force, forward to the first zero crossing t_q,
    found on the crossing step's Hermite polynomial and corrected by a step
    to it (see the module docstring). Its events are the first half
    period's turning times, 0 and 2*t_q, in physical time.

    The run has no horizon: the period is at most the linear-limit one,
    t_lin, so t_q <= t_lin/4. A run that has not crossed y = 0 after
    _MAX_STEPS attempted steps raises EngineFailure, and so does a step
    below 32 ulps of t_lin. At y0 = 0, the rest state, there is no turning
    point to step to: the run is its initial sample, t_q = t_lin/4 and
    local_err 0. InvalidParameters is raised where a positive y0 has
    rel_tol*y0 or rel_tol*|F(y0)| on the unit values below 5e-324.

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
    y0 = osc._unit_y0
    omega0 = math.sqrt(p._unit_stiffness)
    t, t_lin = 0.0, TWO_PI / omega0
    if osc.y0 == 0.0:
        t_q = 0.25 * t_lin
        return _Run([0.0], [0.0], [0.0], [0.0, _scaled(t_q + t_q, shift)], 0, 0, 0.0, t_q)
    h_floor = 32.0 * math.ulp(t_lin)
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
    # the orbit, from the first stage's force. The quotient lies between the
    # unit stiffness and 2*sigma/(m*l0) on the unit values, so it overflows
    # only where these are within an ulp or so of the largest float; then
    # omega0 takes its place
    omega_c = math.sqrt(abs(k0) / y0)
    if not 0.0 < omega_c < math.inf:
        omega_c = omega0
    # the first step is the one the controller accepts on the linearisation
    # at omega_c (see _K), at most a radian. omega_c is at most
    # sqrt(l/(l - l0)) times omega0, so at rel_tol 1e-15 the step is above
    # 1e-10 of t_lin at every l > l0, far above the step floor. A rel_tol
    # far below the float's precision starts below the floor, whose check
    # then raises before any step has an err
    h = min(1.0, _SAFETY * (2.0 * rel_tol / _K) ** (1.0 / 8.0)) / omega_c
    err = 0.0
    # a step's error budget, rel_tol*y0 per component, and its rounding
    tol = 2.0 * rel_tol * y0
    rounding = math.ulp(y0) + y0 * (math.ulp(k0) / abs(k0))

    ts, ys, vs = [t], [y], [v]
    local = 0.0
    n_acc = 0
    n_rej = 0
    just_rejected = False

    for _ in range(_MAX_STEPS):
        if h < h_floor:
            # a last trial step that is not finite had its stage sums overflow
            why = "step size underflowed" if math.isfinite(err) else (
                f"the trial steps were not finite (the force per unit mass at the "
                f"step start, y = {_scaled(y, 2 * e)!r}, is {_scaled(k0, 2 * (e - shift))!r})"
            )
            raise EngineFailure(f"{why} at t = {_scaled(t, shift)!r} (h = {_scaled(h, shift)!r})")

        y_new, v_new, e5 = _dop853.step(accel, y, v, k0, h, omega_c)
        err = e5 / tol

        if err <= 1.0:
            n_acc += 1
            k_new = accel(y_new)
            if y_new <= 0.0:
                break
            local += e5 + rounding
            t, y, v, k0 = t + h, y_new, v_new, k_new
            ts.append(t)
            ys.append(y)
            vs.append(v)
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** (-1.0 / 8.0)
                if n_acc > 1:
                    # the predictive factor is the elementary one times
                    # this; err**2 may underflow
                    factor *= min(1.0, (h / h_prev) * (err_prev / err) ** (1.0 / 8.0))
            if just_rejected and factor > 1.0:
                factor = 1.0
            if factor > _MAX_FACTOR:
                factor = _MAX_FACTOR
            h_prev, h = h, h * factor
            err_prev = err if err > 1e-4 else 1e-4
            just_rejected = False
        else:
            n_rej += 1
            # err > 1, inf or nan (max keeps 0.1 against nan): a factor in [0.1, 0.9)
            h *= max(0.1, _SAFETY * err ** (-1.0 / 8.0))
            just_rejected = True
    else:
        raise EngineFailure(f"no result after {_MAX_STEPS} steps (t = {_scaled(t, shift)!r})")

    # the step from t carried y to y_new <= 0; no error estimate of it covers
    # the Hermite root, so a step from t to the root ends at y_q, off 0 by
    # the root's error, and one Newton step in time, dt, corrects t_q and
    # counts into local_err relative to the half period 2*t_q
    t_q = t + h
    if y_new < 0.0:
        h_q = h * _dop853.hermite_root(y, v, k0, h, y_new, v_new, k_new)
        y_q, v_q, _ = _dop853.step(accel, y, v, k0, h_q, omega_c)
        dt = -y_q / v_q
        t_q = t + h_q + dt
        local += y0 * (abs(dt) / (t_q + t_q))
    local += e5 + rounding
    while ts[-1] >= t_q:  # where the correction moved t_q onto a sample
        del ts[-1], ys[-1], vs[-1]
    return _Run(ts, ys, vs, [0.0, _scaled(t_q + t_q, shift)], n_acc, n_rej, local / y0, t_q)


def simulate(osc: Oscillation, cfg: SimConfig = SimConfig()) -> Trajectory:
    """Release from rest at y0, integrate to the first zero crossing
    t_q = P/4, and tile n_periods periods from that quarter (see
    Trajectory): the events are t = 0, P/2, P, ... At y0 = 0, the rest
    state, the run takes no step, and t_q is a quarter of the linear period.
    InvalidParameters is raised, before any image is formed, where the
    Trajectory would hold more than _MAX_STEPS samples.
    """
    import numpy as np

    run = _release(osc, cfg)
    q, halves = len(run.t), int(2 * cfg.n_periods)
    # each half period after the first repeats its samples but t = 0
    if halves * (2 * q - 1) + 1 > _MAX_STEPS:
        raise InvalidParameters(
            f"n_periods = {cfg.n_periods!r} cannot be run: its trajectory of {q} samples "
            f"per quarter period would hold more than {_MAX_STEPS} samples"
        )
    p, shift, le = osc.params, osc.params._period_exp, osc.params._length_exp
    # energy goes as velocity squared, 4**(2*_length_exp - shift)
    k, two_l0, l = 2.0 * p._unit_sigma / p._unit_mass, 2.0 * p._unit_l0, p._unit_l
    es = [
        _scaled(0.5 * v * v + k * (y * y / two_l0 - math.hypot(l, y)), 4 * le - 2 * shift)
        for y, v in zip(run.y, run.v)
    ]
    es += es[::-1]
    # the first half period, in unit time and on the unit values, ends at
    # 2*t_q; y is negated as 0.0 - y, not -y, so that it reads 0.0 at every
    # sample of the rest state
    two_t_q = run.t_q + run.t_q
    ut = run.t + [two_t_q - t for t in reversed(run.t)]
    ts = [_scaled(t, shift) for t in ut]
    ys = [_scaled(y, 2 * le) for y in run.y + [0.0 - y for y in reversed(run.y)]]
    vs = [_scaled(v, 2 * le - shift) for v in run.v]
    vs += vs[::-1]
    # half period j >= 1 repeats the first's samples after t = 0, shifted by
    # j*2*t_q, and ends on its event. For odd j they are negated: y as the
    # first half period's y read backwards, which are its negations bit for
    # bit, and v as 0.0 - v, which reads 0.0 at every turning; as v <= 0
    # before t_q, that has the bits of the negated unit value also where the
    # scaled velocity underflows
    n = len(ut)
    odd_y, odd_v = ys[-2::-1], [0.0 - v for v in vs[1:]]
    for j in range(1, halves):
        start = j * two_t_q
        ts += [_scaled(start + t, shift) for t in ut[1 : n - 1]]
        ts.append(_scaled((j + 1) * two_t_q, shift))
        ys += odd_y if j % 2 else ys[1:n]
        vs += odd_v if j % 2 else vs[1:n]
        es += es[1:n]
    # every turning event is a sample: the last of each half period
    arrays = [np.array(c) for c in (ts, ys, vs, es, ts[:: n - 1])]
    for a in arrays:
        a.flags.writeable = False
    return Trajectory(*arrays, run.n_accepted, run.n_rejected, run.local_err)


def measure_period(traj: Trajectory | _Run) -> PeriodEstimate:
    """Period from turning events: twice the time between the first two,
    2*(e1 - e0), which span half a period, as the force is odd in y (see
    SimConfig). Needs at least two events. A run's events are all
    multiples of twice its first zero crossing, so every n_periods reads
    the same period.

    The error estimate is 2*value*local_err, where local_err's crossing
    term adds 4*|dt|, the size in the period of the correction dt of the
    zero crossing time (see the module docstring). local_err also sums,
    relative to y0, each accepted step's combined norm e (_dop853.step), the
    number the step-size control bounds: Hairer's estimate of the
    eighth-order solution's error, from the fifth-order estimate e5 shrunk
    where the third-order one, e3, is larger. Where e3 dwarfs e5, on a
    step through the force's turn, e can fall below the step's true error
    (ROADMAP item 20), though no known run's estimate then falls short of
    its error; scripts/ode_coverage.py scans for one. Over a period an
    oscillator carries a state error forward by an O(1) factor, and a
    relative state error moves the phase by as many radians, so the
    estimate covers the accumulated phase error (Hairer,
    Norsett & Wanner, Solving ODEs I, II.3-II.4). omega_c, the chord
    frequency sqrt(|F(y0)|/(m*y0)), sizes the velocity term by the motion's
    own time scale, so the estimate stays tight where the period falls far
    below the linear one. traj may also be simulate's run before its arrays
    are built (_release).
    """
    events = traj.events
    if len(events) < 2:
        raise EngineFailure(
            f"need >= 2 turning events to estimate a period, got {len(events)}"
        )
    value = 2.0 * float(events[1] - events[0])
    return PeriodEstimate(value, Method.ODE_SIM, value * traj.local_err * 2.0)
