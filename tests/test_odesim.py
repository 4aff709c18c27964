"""Adaptive Dormand-Prince 8(5,3) simulation with turning-point events."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from numpy.polynomial.polynomial import polyder, polyval

import oracle
from ssp import _dop853, odesim
from ssp import (
    InsufficientEvents,
    InvalidParameters,
    MaxStepsExceeded,
    Method,
    Oscillation,
    SimConfig,
    StepFailure,
    StringParams,
    Trajectory,
    check_sandwich,
    exact_period,
    integrate,
    measure_period,
    rayleigh_period,
    simulate,
)
from ssp.model import acceleration


@pytest.fixture(scope="module")
def default_traj():
    osc = Oscillation(StringParams(l0=1.0, l=1.25, sigma=1.0, mass=1.0), 0.5)
    return osc, simulate(osc, SimConfig(n_periods=10))


def test_release_from_rest_initial_sample(default_traj):
    osc, traj = default_traj
    assert traj.t[0] == 0.0
    assert traj.y[0] == osc.y0
    assert traj.v[0] == 0.0


def test_time_grid_strictly_increasing(default_traj):
    _, traj = default_traj
    # One sample per accepted step, plus the initial state.
    assert len(traj.t) == traj.n_accepted + 1
    assert np.all(np.diff(traj.t) > 0.0)
    assert np.all(np.diff(traj.events) > 0.0)
    assert traj.events[0] == 0.0


def test_event_count_matches_requested_periods(default_traj):
    osc, traj = default_traj
    # Release from rest: one event seeds t=0, then two turnings per period.
    assert len(traj.events) == 2 * 10 + 1
    # the default run is half a period: t = 0 and P/2
    assert len(simulate(osc).events) == 2


def test_default_run_work_count(default_traj):
    # a quarter period of the eighth-order pair, mirrored into half a
    # period, where the 5(4) pair took about 270 accepted steps for a whole
    # period and ten periods about 2.6k
    osc, _ = default_traj
    assert simulate(osc).n_accepted <= 16


@pytest.mark.parametrize(
    "y0, n_periods, steps, forces",
    [
        pytest.param(0.5, 0.5, (13, 0), 161, id="reference"),
        pytest.param(50.0, 0.5, (15, 5), 240, id="rejected-steps"),
        # turnings located by velocity_root
        pytest.param(0.5, 1, (41, 0), 500, id="n_periods=1"),
        pytest.param(0.5, 3, (117, 0), 1424, id="n_periods=3"),
    ],
)
def test_default_run_force_count(monkeypatch, y0, n_periods, steps, forces):
    # every force value of a run: twelve per accepted step, eleven per
    # rejected one, three per event located on the continuous extension
    # (the default run's zero crossing, or a turning point), and two at the
    # start (the first stage and the chord frequency's); no partial step
    # remains. scripts/ode_coverage.py counts forces by this identity.
    osc = Oscillation(StringParams(l0=1.0, l=1.25, sigma=1.0, mass=1.0), y0)
    cfg = SimConfig(n_periods=n_periods)
    plain = simulate(osc, cfg)
    calls = []
    bound = odesim._bound_acceleration

    def counting(p):
        force = bound(p)

        def count(y):
            calls.append(y)
            return force(y)

        return count

    monkeypatch.setattr(odesim, "_bound_acceleration", counting)
    traj = simulate(osc, cfg)
    _same_bytes(traj, plain)
    located = len(traj.events) - 1  # the event at t = 0 is the release
    assert len(calls) == forces
    assert forces == 12 * traj.n_accepted + 11 * traj.n_rejected + 3 * located + 2
    assert (traj.n_accepted, traj.n_rejected) == steps


def test_default_run_is_mirrored_about_its_zero_crossing(default_traj):
    # the run stops at the first zero crossing t_q and appends the mirror
    # images (2*t_q - t, -y, v) of its earlier samples: t rises strictly and
    # the last sample is the turning event at 2*t_q, at -y0 and at rest
    osc, _ = default_traj
    traj = simulate(osc)
    assert np.all(np.diff(traj.t) > 0.0)
    assert traj.t[-1].hex() == traj.events[-1].hex()
    assert (traj.y[-1], traj.v[-1]) == (-osc.y0, 0.0)
    n = len(traj.t) // 2
    assert len(traj.t) == 2 * n and n <= traj.n_accepted
    first, second = slice(0, n), slice(None, n - 1, -1)
    assert np.all(traj.t[first] < 0.5 * traj.events[-1])
    assert np.array_equal(traj.t[second], traj.events[-1] - traj.t[first])
    assert np.array_equal(traj.y[second], -traj.y[first])
    assert np.array_equal(traj.v[second], traj.v[first])
    assert np.array_equal(traj.e[second], traj.e[first])


def test_default_run_energy_drift_within_budget(default_traj):
    osc, _ = default_traj
    traj = simulate(osc)
    drift = np.max(np.abs(traj.e - traj.e[0])) / abs(traj.e[0])
    assert drift < 1e-8
    assert drift < 100 * SimConfig().rel_tol


def test_energy_drift_within_budget(default_traj):
    _, traj = default_traj
    drift = np.max(np.abs(traj.e - traj.e[0])) / abs(traj.e[0])
    assert drift < 1e-8
    assert drift < 100 * SimConfig().rel_tol


def test_measured_period_matches_quadrature(default_traj):
    osc, traj = default_traj
    est = measure_period(traj)
    assert est.method is Method.ODE_SIM
    exact = exact_period(osc).value
    np.testing.assert_allclose(est.value, exact, rtol=1e-8)
    np.testing.assert_allclose(est.value, oracle.P_REF, rtol=1e-8)


def test_gap_scatter_small(default_traj):
    osc, traj = default_traj
    est = measure_period(traj)
    assert est.err_estimate < 1e-7 * est.value
    gaps = np.diff(traj.events)
    assert np.max(gaps) / np.min(gaps) - 1.0 < 1e-6


def test_measured_period_sits_inside_bounds(default_traj):
    osc, traj = default_traj
    report = check_sandwich(osc, measure_period(traj))
    assert report.passed


def test_half_period_reaches_mirror_point(default_traj):
    osc, traj = default_traj
    t_half = traj.events[1]
    out = integrate(osc, (0.0, t_half), (osc.y0, 0.0))
    assert abs(out.y[-1] + osc.y0) < 1e-8 * osc.y0


def test_full_period_return(default_traj):
    osc, _ = default_traj
    period = exact_period(osc).value
    out = integrate(osc, (0.0, period), (osc.y0, 0.0))
    assert out.t[-1] == period
    assert abs(out.y[-1] - osc.y0) < 1e-6 * osc.y0
    assert abs(out.v[-1]) < 1e-6


def test_time_reversal_symmetry(default_traj):
    osc, _ = default_traj
    period = exact_period(osc).value
    fwd = integrate(osc, (0.0, 0.5 * period), (osc.y0, 0.0))
    back = integrate(osc, (0.5 * period, 0.0), (fwd.y[-1], fwd.v[-1]))
    v_scale = np.max(np.abs(fwd.v))
    assert abs(back.y[-1] - osc.y0) < 1e-8 * osc.y0
    assert abs(back.v[-1]) < 1e-8 * v_scale


def test_linearized_force_recovers_harmonic_period(default_traj, monkeypatch):
    # the linear force -k*y/m, on the unit values the run integrates
    osc, _ = default_traj
    monkeypatch.setattr(
        odesim, "_bound_acceleration", lambda p: lambda y: -p._unit_stiffness * y
    )
    traj = simulate(osc, SimConfig(rel_tol=1e-12))
    est = measure_period(traj)
    np.testing.assert_allclose(est.value, rayleigh_period(osc.params), rtol=1e-9)


def test_step_matches_scipy_dop853(default_traj):
    # one step in Nystrom form against SciPy's DOP853 on (y, v)' = (v, a(y)):
    # same tableau, so the same eighth-order result up to rounding
    osc, _ = default_traj

    def accel(y):
        return acceleration(osc.params, y)

    y, v, h = 0.31, -0.47, 0.6
    y1, v1, *_ = _dop853.step(accel, y, v, accel(y), h)
    np.testing.assert_allclose([y1, v1], _scipy_step(accel, y, v, h).y, rtol=1e-14, atol=0.0)


def _scipy_step(accel, y, v, h):
    """SciPy's DOP853 after one step of width h on (y, v)' = (v, a(y))."""
    ref = scipy.integrate.DOP853(
        lambda t, s: [s[1], accel(s[0])], 0.0, [y, v], t_bound=h, first_step=h,
        rtol=1e-3, atol=1e3,
    )
    ref.step()
    assert ref.t == h
    return ref


def test_velocity_extension_matches_scipy_dense_output(default_traj):
    # the v component of SciPy's Dop853DenseOutput, whose stage derivatives
    # are the forces: same coefficients, so the same v(x) up to rounding
    osc, _ = default_traj

    def accel(y):
        return acceleration(osc.params, y)

    y, v, h = 0.31, -0.47, 0.6
    dense = _scipy_step(accel, y, v, h).dense_output()
    y1, v1, *_, ks = _dop853.step(accel, y, v, accel(y), h)
    ext = (v, *_dop853._extension(accel, y, v, h, v1, ks, accel(y1)))
    for x in (0.05, 0.2, 0.37, 0.5, 0.81, 0.99):
        np.testing.assert_allclose(polyval(x, ext), dense(x * h)[1], rtol=1e-14, atol=0.0)


def test_position_root_is_the_extension_root(default_traj):
    # a step across y = 0: the root fraction zeroes y + h*(integral of the
    # extension of v from 0 to x), here by 4-point Gauss-Legendre, exact on
    # its degree 7, and SciPy's dense output of y, its own extension of y,
    # to the extensions' order (1.2e-14 off at this h)
    osc, _ = default_traj

    def accel(y):
        return acceleration(osc.params, y)

    y, v, h = 0.05, -1.1, 0.09
    dense = _scipy_step(accel, y, v, h).dense_output()
    y1, v1, *_, ks = _dop853.step(accel, y, v, accel(y), h)
    assert y1 < 0.0
    x = _dop853.position_root(accel, y, v, h, y1, v1, ks, accel(y1))
    assert 0.0 < x < 1.0
    ext = (v, *_dop853._extension(accel, y, v, h, v1, ks, accel(y1)))
    nodes, weights = np.polynomial.legendre.leggauss(4)
    vs = polyval(0.5 * x * (1.0 + nodes), ext)
    assert abs(y + h * 0.5 * x * np.dot(weights, vs)) <= 4 * math.ulp(y)
    assert abs(dense(x * h)[0]) <= 1e-13


def test_velocity_root_is_the_extension_root(default_traj):
    # a step across the turning point near y = 0.5: the root fraction zeroes
    # SciPy's dense output of v, and the Newton slope is h*a(y(x)) to the
    # extension's order (6e-10 off at this h)
    osc, _ = default_traj

    def accel(y):
        return acceleration(osc.params, y)

    y, v, h = 0.49, 0.05, 0.3
    dense = _scipy_step(accel, y, v, h).dense_output()
    y1, v1, *_, ks = _dop853.step(accel, y, v, accel(y), h)
    assert v1 < 0.0
    x = _dop853.velocity_root(accel, y, v, h, v1, ks, accel(y1))
    assert 0.0 < x < 1.0
    assert abs(dense(x * h)[1]) <= 1e-15
    ext = (v, *_dop853._extension(accel, y, v, h, v1, ks, accel(y1)))
    slope = polyval(x, polyder(ext))
    np.testing.assert_allclose(slope, h * accel(dense(x * h)[0]), rtol=1e-8)


def test_against_scipy_rk45(default_traj):
    osc, _ = default_traj
    period = exact_period(osc).value

    def rhs(t, s):
        return [s[1], acceleration(osc.params, s[0])]

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, period), [osc.y0, 0.0], rtol=1e-10, atol=1e-12
    )
    mine = integrate(osc, (0.0, period), (osc.y0, 0.0))
    assert abs(mine.y[-1] - sol.y[0, -1]) < 1e-6 * osc.y0
    assert abs(mine.v[-1] - sol.y[1, -1]) < 1e-6


def _same_bytes(a, b):
    for name in ("t", "y", "v", "e", "events"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.n_accepted, a.n_rejected) == (b.n_accepted, b.n_rejected)


@pytest.mark.parametrize("rel_amp", [1e-3, 0.4, 40.0])
def test_default_force_is_the_model_force_bit_for_bit(rel_amp):
    # the run's force, scaled back from the unit values, is acceleration's;
    # sigma and mass are not powers of two, so a reordered force rounds apart
    p = StringParams(l0=0.9, l=1.3, sigma=2.3, mass=0.7)
    e, shift = p._length_exp, p._period_exp
    force = odesim._bound_acceleration(p)
    for y in np.linspace(0.0, rel_amp * p.l, 41).tolist():
        unit = math.ldexp(force(math.ldexp(y, -2 * e)), 2 * (e - shift))
        assert unit.hex() == acceleration(p, y).hex(), y


@pytest.mark.parametrize("n_periods", [1, 3])
def test_simulate_ends_on_the_step_of_its_last_event(default_traj, n_periods):
    osc, _ = default_traj
    traj = simulate(osc, SimConfig(n_periods=n_periods))
    assert len(traj.events) == 2 * n_periods + 1
    assert traj.t[-2] < traj.events[-1] <= traj.t[-1]


def test_integrate_runs_backward_through_zero(default_traj):
    # the run crosses t = 0 backward, ends exactly at t_span[1] and records
    # its turning events without stopping at them
    osc, _ = default_traj
    big_p = rayleigh_period(osc.params)
    traj = integrate(osc, (0.5 * big_p, -0.5 * big_p), (osc.y0, 0.0))
    assert traj.t[-1] == -0.5 * big_p
    half = 0.5 * exact_period(osc).value
    np.testing.assert_allclose(
        traj.events, 0.5 * big_p - half * np.arange(3), rtol=0.0, atol=1e-8 * big_p
    )


def test_tighter_tolerance_takes_more_steps(default_traj):
    osc, _ = default_traj
    coarse = simulate(osc, SimConfig(rel_tol=1e-6, n_periods=2))
    fine = simulate(osc, SimConfig(rel_tol=1e-12, n_periods=2))
    assert fine.n_accepted > coarse.n_accepted
    assert coarse.n_rejected >= 0


def test_zero_amplitude_rejected(default_traj):
    osc, _ = default_traj
    with pytest.raises(InvalidParameters):
        simulate(Oscillation(osc.params, 0.0))


@pytest.mark.parametrize("l, y0", [(1.25, 5e-324), (1.0 + 1e-9, 1e-310)])
def test_underflowing_error_floor_rejected(l, y0):
    # the absolute floors 1e-12*y0 and that times omega0 round to 0
    with pytest.raises(InvalidParameters):
        simulate(Oscillation(StringParams(1.0, l, 1.0, 1.0), y0))


@pytest.mark.parametrize(
    "t_span, state0",
    [
        ((0.0, 1e-150), (1e10, 0.0)),
        ((0.0, 1e-150), (1e-300, 1e300)),
        ((0.0, 1e200), (1e-300, 0.0)),
    ],
)
def test_state_beyond_the_unit_range_refused(t_span, state0):
    # on the unit lengths of l = 1e-300 these displacements, velocities and
    # times overflow: a clean refusal, not an OverflowError
    osc = Oscillation(StringParams(1e-301, 1e-300, 1.0, 1.0), 1e-300)
    with pytest.raises(InvalidParameters, match="float range"):
        integrate(osc, t_span, state0)


@pytest.mark.parametrize("sigma, mass", [(1e300, 1e-300), (1e-300, 1e300)])
def test_extreme_sigma_over_mass_runs_in_unit_time(sigma, mass):
    # sigma/m = 1e600 overflows a float and 1e-600 underflows; the run is in
    # unit time, where the force has sigma and mass scaled into [0.5, 2)
    osc = Oscillation(StringParams(1.0, 1.25, sigma, mass), 0.5)
    traj = simulate(osc)
    est = measure_period(traj)
    assert abs(est.value - exact_period(osc).value) <= est.err_estimate
    assert np.all(np.isfinite(traj.t)) and np.all(np.isfinite(traj.v))


@pytest.mark.parametrize("sigma, mass", [(1e300, 1e-300), (1e-300, 1e300)])
def test_turning_times_are_physical_times(sigma, mass):
    # the run is in unit time, 2**_period_exp times the physical one; a
    # release from rest at t = P turns at P, 1.5P and 2P all the same
    osc = Oscillation(StringParams(1.0, 1.25, sigma, mass), 0.5)
    assert osc.params._period_exp != 0
    big_p = exact_period(osc).value
    traj = integrate(osc, (big_p, 2.25 * big_p), (osc.y0, 0.0))
    assert traj.events[0] == big_p
    np.testing.assert_allclose(traj.events, [big_p, 1.5 * big_p, 2.0 * big_p], rtol=1e-9)


@pytest.mark.parametrize(
    "cell, finite_energy",
    [
        # on raw lengths y*y overflowed in the energy with a RuntimeWarning
        ((1e150, 2e150, 1.0, 1.0, 1e160), True),
        # on raw lengths the force at the release point overflowed; the
        # energy, about 5e399, is beyond the float range and reads inf
        ((1.0, 1e200, 1.0, 1.0, 1e200), False),
    ],
)
def test_huge_lengths_simulate_on_unit_lengths(cell, finite_energy):
    osc = Oscillation(StringParams(*cell[:4]), cell[4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate(osc)
    assert check_sandwich(osc, measure_period(traj)).passed
    assert np.all(np.isfinite(traj.e)) == finite_energy
    assert traj.y[0] == osc.y0


@pytest.mark.parametrize(
    "cell, n_periods",
    [
        ((1.0, 1.25, 1.0, 1.0, 0.5), 1),
        ((1.0, 1.25, 1.0, 1.0, 0.5), 3),
        ((1.0, 1.25, 1e300, 1e-300, 0.5), 1),
        ((1.0, 1.25, 1e-300, 1e300, 0.5), 1),
        ((1.0, 1.25, 1e-300, 1e300, 1.25e3), 3),
        ((1.0, 1.25, 1.0, 1.0, 1.25e3), 1),
        ((1.0, 1.0 + 1e-9, 1.0, 1.0, 1e-6), 1),
        ((1.0, 1.25, 1.0, 1.0, 0.5), 0.5),
        ((1.0, 1.25, 1e300, 1e-300, 0.5), 0.5),
        ((1.0, 1.25, 1e-300, 1e300, 1.25e3), 0.5),
        ((1.0, 1.25, 1.0, 1.0, 1.25e3), 0.5),
        ((1.0, 1.0 + 1e-9, 1.0, 1.0, 1e-6), 0.5),
    ],
)
def test_period_without_arrays_is_measure_period(cell, n_periods):
    # ssp period's ODE column measures simulate's run before its arrays are
    # built; it must read the same bits as measure_period(simulate(...))
    osc = Oscillation(StringParams(*cell[:4]), cell[4])
    cfg = SimConfig(n_periods=n_periods)
    run = odesim._release(osc, cfg)
    assert measure_period(run) == measure_period(simulate(osc, cfg))


@pytest.mark.parametrize(
    "cell, error",
    [
        # the absolute error floors underflow
        ((1.0, 1.25, 1.0, 1.0, 5e-324), InvalidParameters),
        # the force at the release point, about 2e310, overflows
        ((1e-300, 1.0, 1.0, 1.0, 1e10), StepFailure),
    ],
)
def test_period_without_arrays_raises_as_simulate(cell, error):
    osc = Oscillation(StringParams(*cell[:4]), cell[4])
    with pytest.raises(error) as direct:
        simulate(osc)
    with pytest.raises(error) as lean:
        measure_period(odesim._release(osc, SimConfig()))
    assert str(lean.value) == str(direct.value)


def test_nonfinite_force_named():
    # the force at the release point, about -2e310, overflows; the run says
    # so instead of shrinking its step to nothing
    osc = Oscillation(StringParams(1e-300, 1.0, 1.0, 1.0), 1e10)
    with pytest.raises(StepFailure, match=r"force .* is -inf"):
        simulate(osc)


def test_overflowing_trial_steps_named():
    # at y0 = 1e307 the release force, about -2e307, is finite, but every
    # trial step's weighted force sums overflow; the run says so and names
    # the force instead of reporting an underflowed step size
    p = StringParams(1.0, 1.25, 1.0, 1.0)
    with pytest.raises(StepFailure, match=r"^the trial steps were not finite .* y = 1e\+307, is -2e\+307\)"):
        simulate(Oscillation(p, 1e307))
    est = measure_period(simulate(Oscillation(p, 1e306)))
    assert abs(est.value - math.pi * math.sqrt(2.0)) <= est.err_estimate


@pytest.mark.parametrize("t_span", [(0.0, 1e20), (1e300, 0.0), (1.0, 1.0 + 2.0**-50)])
def test_span_below_the_step_floor_refused(t_span):
    # the step floor, 32 ulps of the span's larger end, exceeds the first
    # step; the run said "step size underflowed" before trying any step
    osc = Oscillation(StringParams(1.0, 1.25, 1.0, 1.0), 0.5)
    with pytest.raises(InvalidParameters, match=r"^t_span .* cannot be stepped"):
        integrate(osc, t_span, (osc.y0, 0.0))
    assert integrate(osc, (1e20, 1e20), (osc.y0, 0.0)).t.tolist() == [1e20]


def test_step_budget_enforced(default_traj, monkeypatch):
    osc, _ = default_traj
    monkeypatch.setattr(odesim, "_MAX_STEPS", 10)
    with pytest.raises(MaxStepsExceeded):
        simulate(osc)


def test_period_needs_two_events():
    traj = Trajectory(
        t=np.array([0.0, 1.0]),
        y=np.array([0.5, 0.4]),
        v=np.array([0.0, -0.1]),
        e=np.array([-2.44, -2.44]),
        events=np.array([0.25]),
        n_accepted=2,
        n_rejected=0,
        local_err=1e-10,
    )
    with pytest.raises(InsufficientEvents, match="need >= 2 turning events"):
        measure_period(traj)
    # two events span half a period
    est = measure_period(traj._replace(events=np.array([0.25, 1.0])))
    assert est == (2 * (1.0 - 0.25), Method.ODE_SIM, 2 * 1.5 * 1e-10)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rel_tol=0.0),
        dict(rel_tol=1e-1),
        dict(rel_tol=1e-2),
        dict(rel_tol=float("nan")),
        dict(n_periods=0),
        dict(n_periods=-3),
        dict(n_periods=1.3),
        dict(n_periods=float("nan")),
        dict(n_periods=float("inf")),
    ],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(InvalidParameters):
        SimConfig(**kwargs)


# (l0, l, sigma, mass, y0) with their 40-digit periods
ORACLE_CELLS = [
    ((1.0, 1.25, 1.0, 1.0, 0.5), oracle.P_REF),
    (oracle.ANHARMONIC_PARAMS, oracle.P_ANHARMONIC),
    (oracle.NEAR_L0_PARAMS, oracle.P_NEAR_L0),
]


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("cell, period", ORACLE_CELLS)
def test_error_estimate_covers_oracle(cell, period, rel_tol):
    # the summed local error estimates bound the error of the simulated
    # period; near l = l0 this needs the stretch formed without cancellation
    osc = Oscillation(StringParams(*cell[:4]), cell[4])
    est = measure_period(simulate(osc, SimConfig(rel_tol=rel_tol)))
    assert abs(est.value - period) <= est.err_estimate
    if rel_tol <= 1e-10:
        assert est.err_estimate <= 1e-7 * est.value


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_error_estimate_covers_a_crossing_at_large_amplitude():
    # y0/l = 2.3e6: the default run's crossing step jumps the force's turn
    # within about l of y = 0, and its err_estimate 2.43e-11 covers 0.74 of
    # the error 3.28e-11 against oracle.period_mp's 40-digit period; a run
    # of n_periods = 1 covers its own
    cell = (0.537257629026983, 0.8569792876054433, 8.910949636189251, 1.1260845962478585)
    osc = Oscillation(StringParams(*cell), 1986777.7807562645)
    est = measure_period(simulate(osc))
    assert abs(est.value - 1.1576566083190627) <= est.err_estimate


def test_error_estimate_covers_random_draws():
    # log-uniform over the stretch, the amplitude and sigma/m, against
    # 40-digit quadrature. Velocity errors are scaled by the chord frequency
    # at y0, the motion's own time scale, so the estimate stays within 1e-7
    # of the period even where the period is 1e-3 of the linear one.
    rng = np.random.default_rng(20081)
    for _ in range(32):
        l0 = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        l = l0 * (1.0 + math.exp(rng.uniform(math.log(1e-6), math.log(1e3))))
        sigma, mass = (float(x) for x in np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 2)))
        y0 = l * math.exp(rng.uniform(math.log(1e-6), math.log(1e4)))
        osc = Oscillation(StringParams(l0, l, sigma, mass), y0)
        est = measure_period(simulate(osc))
        ref = oracle.period_mp(l0, l, sigma, mass, y0)
        assert abs(est.value - ref) <= est.err_estimate, osc
        assert est.err_estimate <= 1e-7 * est.value, osc


@pytest.mark.parametrize("cell, period", ORACLE_CELLS)
def test_turning_events_within_estimate(cell, period):
    # the default run's zero crossing events[1]/2, a root of y on DOP853's
    # continuous extension, is P/4 to within a quarter of the run's error
    # estimate, which is that of four times the crossing time; the turning
    # times of a whole period, roots of the extension of v, are P/2 and P
    # to within the run's own error estimate
    osc = Oscillation(StringParams(*cell[:4]), cell[4])
    traj = simulate(osc)
    err = measure_period(traj).err_estimate
    assert abs(0.5 * traj.events[1] - 0.25 * period) <= 0.25 * err
    traj = simulate(osc, SimConfig(n_periods=1))
    err = measure_period(traj).err_estimate
    assert abs(traj.events[1] - 0.5 * period) <= err
    assert abs(traj.events[2] - period) <= err
