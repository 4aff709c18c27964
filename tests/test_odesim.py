"""Adaptive Dormand-Prince 8(5,3) simulation of a quarter period, tiled into
turning-point events."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from numpy.polynomial.polynomial import polyder, polyval
from scipy.integrate._ivp.dop853_coefficients import E3, E5

import oracle
from ssp import _dop853, odesim
from ssp import (
    EngineFailure,
    InvalidParameters,
    Method,
    Oscillation,
    SimConfig,
    StringParams,
    Trajectory,
    check_sandwich,
    exact_period,
    measure_period,
    period_elliptic,
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
    osc, traj = default_traj
    # the default run's half period of samples, then 19 images of it, each
    # without the sample at its start, which ends the half period before
    half = len(simulate(osc).t)
    assert len(traj.t) == 20 * (half - 1) + 1
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
        # the first step, sized on the linearisation at the chord
        # frequency, is rejected here: the force's higher terms put its err
        # at 3.8, where the linear model reads 0.43
        pytest.param(0.5, 0.5, (8, 2), 130, id="reference"),
        pytest.param(50.0, 0.5, (12, 4), 200, id="rejected-steps"),
        # tiled from the same quarter period as the reference run
        pytest.param(0.5, 1, (8, 2), 130, id="n_periods=1"),
        pytest.param(0.5, 3, (8, 2), 130, id="n_periods=3"),
    ],
)
def test_default_run_force_count(monkeypatch, y0, n_periods, steps, forces):
    # every force value of a run: twelve per accepted step, eleven per
    # rejected one, eleven for the step to the zero crossing where the
    # crossing step carries y below 0 (as on every run here), and one at the
    # start (the first stage, whose value also gives the chord frequency);
    # the crossing's Hermite polynomial costs none and no partial step
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
    assert len(calls) == forces
    assert forces == 12 * traj.n_accepted + 11 * traj.n_rejected + 11 + 1
    assert (traj.n_accepted, traj.n_rejected) == steps


def test_steps_sized_by_the_smaller_of_the_two_factors():
    # the first attempted step is the one the controller accepts on the
    # linearisation at the chord frequency omega_c; on the reference run it
    # is rejected, and the run retries it times _SAFETY*err**(-1/8). After
    # that rejection the next step's factor is at most 1, so the second
    # accepted step repeats the first. Each later step is the previous one
    # times the smaller of the elementary factor _SAFETY*err**(-1/8) and
    # Gustafsson's predictive factor _SAFETY*(h/h_prev)*(err_prev/err**2)**(1/8):
    # the third and fourth steps take the predictive one, the fifth the
    # elementary one. err is the step's local error on the orbit's scale,
    # |e_y| + |e_v|/omega_c in Hairer's combined form, per 2*rel_tol*y0. The
    # widths are read back as differences of t, and err is a difference of
    # stage sums, so the ratios agree to about 1e-11
    osc = Oscillation(StringParams(l0=1.0, l=1.25, sigma=1.0, mass=1.0), 0.5)
    rel_tol = SimConfig().rel_tol
    tol = 2.0 * rel_tol * osc._unit_y0
    run = odesim._release(osc, SimConfig())
    accel = odesim._bound_acceleration(osc.params)
    y0 = osc._unit_y0
    omega_c = math.sqrt(abs(accel(y0)) / y0)

    def err_at(y, v, h):
        return _dop853.step(accel, y, v, accel(y), h, omega_c)[2] / tol

    h0 = odesim._SAFETY * (2.0 * rel_tol / odesim._K) ** (1.0 / 8.0) / omega_c
    err0 = err_at(y0, 0.0, h0)
    assert err0 > 1.0 and run.n_rejected == 2
    widths = [run.t[i + 1] - run.t[i] for i in range(5)]
    errs = [err_at(run.y[i], run.v[i], widths[i]) for i in range(5)]
    assert math.isclose(widths[0] / h0, odesim._SAFETY * err0 ** (-1.0 / 8.0), rel_tol=1e-12)
    assert odesim._SAFETY * errs[0] ** (-1.0 / 8.0) > 1.0
    assert math.isclose(widths[1], widths[0], rel_tol=1e-12)
    bound = []
    for i in (1, 2, 3):
        h_prev, err_prev, h, err, h_next = widths[i - 1], errs[i - 1], widths[i], errs[i], widths[i + 1]
        elementary = odesim._SAFETY * err ** (-1.0 / 8.0)
        predictive = odesim._SAFETY * (h / h_prev) * (max(err_prev, 1e-4) / err**2) ** (1.0 / 8.0)
        assert math.isclose(h_next / h, min(elementary, predictive), rel_tol=1e-9)
        bound.append(predictive < elementary)
    assert bound == [True, True, False]


def _first_step(osc, rel_tol):
    """The run's first accepted step, and its err per 2*rel_tol*y0, with
    the chord frequency omega_c of its release force."""
    accel = odesim._bound_acceleration(osc.params)
    y0 = osc._unit_y0
    omega_c = math.sqrt(abs(accel(y0)) / y0)
    run = odesim._release(osc, SimConfig(rel_tol=rel_tol))
    h = run.t[1] - run.t[0]
    e = _dop853.step(accel, y0, 0.0, accel(y0), h, omega_c)[2]
    return h, e / (2.0 * rel_tol * y0), omega_c


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-13])
def test_first_step_is_accepted_on_a_near_linear_run(rel_tol):
    # y0/l = 1e-4: the force is linear to 1e-8, so the first step,
    # _SAFETY*(2*rel_tol/_K)**(1/8)/omega_c, is accepted at the err the
    # linearisation gives it, _SAFETY**8 = 0.43, to within the 25% by which
    # the norm departs from _K*(omega*h)**8 (0.39 and 0.42 here)
    osc = Oscillation(StringParams(1.0, 1.25, 1.0, 1.0), 1.25e-4)
    h, err, omega_c = _first_step(osc, rel_tol)
    want = odesim._SAFETY * (2.0 * rel_tol / odesim._K) ** (1.0 / 8.0)
    assert want < 1.0
    assert math.isclose(h * omega_c, want, rel_tol=1e-12)
    assert abs(err / odesim._SAFETY**8 - 1.0) <= 0.25


@pytest.mark.parametrize("rel_tol", [1e-3, 9.9e-3])
def test_first_step_capped_at_a_radian(rel_tol):
    # y0/l = 1e8 at a loose rel_tol: the linearisation would take a step of
    # 2.6 or 3.5 radians, where its leading term no longer holds; the run
    # starts at one radian of the chord frequency
    osc = Oscillation(StringParams(1.0, 1.25, 1.0, 1.0), 1.25e8)
    h, err, omega_c = _first_step(osc, rel_tol)
    assert odesim._SAFETY * (2.0 * rel_tol / odesim._K) ** (1.0 / 8.0) > 2.5
    assert math.isclose(h * omega_c, 1.0, rel_tol=1e-12)
    assert err <= 1.0


@pytest.mark.parametrize("omega, y0", [(1.0, 1.0), (1e3, 1e-5), (1e-4, 1e6)])
def test_norm_on_the_harmonic_oscillator_is_k_times_the_eighth_power(omega, y0):
    # the first step's rule reads the norm of a step from rest on
    # y'' = -omega**2*y as _K*(omega*h)**8 of the amplitude; it holds to 25%
    # for omega*h up to a radian, the first step's cap (it reads 0.81 of
    # that at 1)
    for j in range(6):
        x = 2.0 ** (j - 5)  # 1/32 .. 1
        k0 = -omega * omega * y0
        e = _dop853.step(lambda y: -omega * omega * y, y0, 0.0, k0, x / omega, omega)[2]
        ratio = e / (odesim._K * x**8 * y0)
        assert 0.75 <= ratio <= 1.25, (x, ratio)


def test_tolerance_below_the_float_precision_raises():
    # at rel_tol 1e-300 the first step, about 1e-37 of the chord
    # frequency's period, is below the step floor before any step is taken
    osc = Oscillation(StringParams(1.0, 1.25, 1.0, 1.0), 0.5)
    with pytest.raises(EngineFailure, match=r"^step size underflowed at t = 0\.0"):
        simulate(osc, SimConfig(rel_tol=1e-300))


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
    # the one-period run is tiled from the default run's quarter period:
    # both turn at -y0 at the same time, bit for bit
    osc, _ = default_traj
    half = simulate(osc)
    full = simulate(osc, SimConfig(n_periods=1))
    assert full.events[1].hex() == half.events[1].hex()
    assert full.y[len(half.t) - 1] == -osc.y0


def test_full_period_return(default_traj):
    osc, _ = default_traj
    traj = simulate(osc, SimConfig(n_periods=1))
    est = measure_period(traj)
    exact = exact_period(osc)
    assert traj.events[0] == 0.0 and traj.events[2] == est.value
    assert abs(est.value - exact.value) <= est.err_estimate + exact.err_estimate


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
    y1, v1, _ = _dop853.step(accel, y, v, accel(y), h, 1.0)
    np.testing.assert_allclose([y1, v1], _scipy_step(accel, y, v, h).y, rtol=1e-14, atol=0.0)


def test_step_norm_matches_scipy_dop853(default_traj):
    # the combined norm of the step's error estimates, rebuilt from SciPy's
    # stage values and its fifth- and third-order error weights on (y, v),
    # with velocity errors at omega: Hairer's e5**2/hypot(e5, 0.1*e3)
    osc, _ = default_traj

    def accel(y):
        return acceleration(osc.params, y)

    y, v, h, omega = 0.31, -0.47, 0.6, 1.7
    k = _scipy_step(accel, y, v, h).K
    e5, e3 = (np.abs(h * k.T @ w) @ [1.0, 1.0 / omega] for w in (E5, E3))
    want = e5 * e5 / math.hypot(e5, 0.1 * e3)
    assert _dop853.step(accel, y, v, accel(y), h, omega)[2] == pytest.approx(want, rel=1e-9)


def _scipy_step(accel, y, v, h):
    """SciPy's DOP853 after one step of width h on (y, v)' = (v, a(y))."""
    ref = scipy.integrate.DOP853(
        lambda t, s: [s[1], accel(s[0])], 0.0, [y, v], t_bound=h, first_step=h,
        rtol=1e-3, atol=1e3,
    )
    ref.step()
    assert ref.t == h
    return ref


@pytest.mark.parametrize(
    "y, v, f0, h, y1, v1, f1",
    [
        (0.05, -1.1, -0.3, 0.09, -0.048, -1.12, 0.29),
        (3.0, -0.2, -7.5, 0.7, -1.4, -4.9, 6.1),
        (1e-3, -2e5, -1e9, 1e-7, -0.019, -2.1e5, 1e9),
        # the crossing step of a run at rel_tol 1e-3 with y0/l in 1e2..1e8,
        # on which Newton from the secant root leaves the bracket and
        # hermite_root bisects it
        (
            468.79564571070534, -864.6543921093995, -5808.321082987968, 0.5713207360784844,
            -421.88736041283573, -1124.7292808109776, 5226.87912811299,
        ),
    ],
)
def test_hermite_guess_meets_its_six_end_conditions(y, v, f0, h, y1, v1, f1):
    # the quintic matches y, h*v and h**2*f at both ends of the step; a
    # quintic without the end forces' G term misses the h**2*f conditions
    coef = _dop853.hermite(y, v, f0, h, y1, v1, f1)
    d1, d2 = polyder(coef), polyder(coef, 2)
    got = [polyval(0.0, coef), polyval(0.0, d1), polyval(0.0, d2),
           polyval(1.0, coef), polyval(1.0, d1), polyval(1.0, d2)]
    want = [y, h * v, h * h * f0, y1, h * v1, h * h * f1]
    scale = max(abs(w) for w in want)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * scale)
    x = _dop853.hermite_root(y, v, f0, h, y1, v1, f1)
    assert 0.0 < x < 1.0
    assert abs(polyval(x, coef)) <= 1e-14 * scale


@pytest.mark.parametrize("n_periods", [1, 3])
def test_tiled_run_is_an_image_of_its_half_period(default_traj, n_periods):
    # y(t + 2*t_q) = -y(t) and v(t + 2*t_q) = -v(t) bit for bit, sample by
    # sample, for the half period's k samples after t = 0, except that v
    # reads 0.0, never -0.0, at rest; each half period ends on its turning
    # event
    osc, _ = default_traj
    traj = simulate(osc, SimConfig(n_periods=n_periods))
    k = len(simulate(osc).t) - 1
    assert len(traj.t) == 2 * n_periods * k + 1
    assert traj.y[k:].tobytes() == (-traj.y[:-k]).tobytes()
    moving = traj.v[:-k] != 0.0
    assert traj.v[k:][moving].tobytes() == (-traj.v[:-k][moving]).tobytes()
    assert traj.v[::k].tobytes() == np.zeros(2 * n_periods + 1).tobytes()
    assert traj.e[k:].tobytes() == traj.e[:-k].tobytes()
    assert traj.t[::k].tobytes() == traj.events.tobytes()
    shift = traj.t[k:] - traj.t[:-k]
    assert np.all(np.abs(shift - traj.events[1]) <= 2 * np.spacing(traj.t[-1]))


@pytest.mark.parametrize(
    "cell",
    [
        (1.0, 1.25, 1.0, 1.0, 0.5),
        (1.0, 1.25, 1.0, 1.0, 50.0),
        (1.0, 1.25, 1e-300, 1e300, 1.25e3),
        (1.0, 1.0 + 1e-9, 1.0, 1.0, 1e-6),
    ],
)
def test_every_span_reads_the_same_period(cell):
    # every run integrates the same quarter period, so measure_period reads
    # the same value and err_estimate bits for every n_periods
    osc = Oscillation(StringParams(*cell[:4]), cell[4])
    ests = [measure_period(simulate(osc, SimConfig(n_periods=n))) for n in (0.5, 1, 3)]
    assert len({(e.value.hex(), e.err_estimate.hex()) for e in ests}) == 1


def test_against_scipy_rk45(default_traj):
    # every sample of a one-period run, against SciPy's RK45 at those times
    osc, _ = default_traj
    mine = simulate(osc, SimConfig(n_periods=1))

    def rhs(t, s):
        return [s[1], acceleration(osc.params, s[0])]

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, mine.t[-1]), [osc.y0, 0.0], t_eval=mine.t, rtol=1e-10, atol=1e-12
    )
    assert sol.success
    assert np.max(np.abs(mine.y - sol.y[0])) < 1e-6 * osc.y0
    assert np.max(np.abs(mine.v - sol.y[1])) < 1e-6


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
def test_run_below_the_float_range_rejected(l, y0):
    # rel_tol times the amplitude (the first cell) or times the release
    # force (the second) is below the smallest float on the unit scale
    with pytest.raises(InvalidParameters):
        simulate(Oscillation(StringParams(1.0, l, 1.0, 1.0), y0))


@pytest.mark.parametrize(
    "l, y0, rel_tol",
    [
        (1.25, 4.3651583224e-312, 1e-13),
        (1.000000001, 1.2022644346173688e-306, 1e-10),
        (1.000000000001, 1.584893192461072e-305, 1e-6),
        (100.0, 3.16227764e-316, 1e-6),
    ],
)
def test_subnormal_scale_run_refused_or_covered(l, y0, rel_tol):
    # near the bottom of the float range the rounding of y and of the force
    # is the run's error: each accepted step counts ulp(y0) + y0*ulp(F)/|F|.
    # With neither this term nor the refusal of runs below the float range,
    # the first three estimates read 0, 0.12 and 0.91 of their errors;
    # without the term, the last cell's estimate reads 0.96 of its error
    osc = Oscillation(StringParams(1.0, l, 1.0, 1.0), y0)
    try:
        est = measure_period(simulate(osc, SimConfig(rel_tol=rel_tol)))
    except InvalidParameters:
        return
    assert abs(est.value - exact_period(osc).value) <= est.err_estimate
    assert check_sandwich(osc, est).passed


@pytest.mark.parametrize(
    "sigma, mass", [(1e300, 1e-300), (1e-300, 1e300), (1e-307, 1e307)]
)
def test_extreme_sigma_over_mass_runs_in_unit_time(sigma, mass):
    # sigma/m = 1e600 overflows a float and 1e-600 underflows; the run is in
    # unit time, where the force has sigma and mass scaled into [0.5, 2).
    # At 1e-614 the linear period is 9.9e307, so a horizon of n_periods + 2
    # linear periods overflowed and refused the run
    osc = Oscillation(StringParams(1.0, 1.25, sigma, mass), 0.5)
    traj = simulate(osc)
    est = measure_period(traj)
    assert abs(est.value - exact_period(osc).value) <= est.err_estimate
    assert np.all(np.isfinite(traj.t)) and np.all(np.isfinite(traj.v))


def test_chord_frequency_where_its_quotient_overflows():
    # 2*sigma/(m*l0) on the unit values is an ulp below the largest float,
    # and the release force over y0 rounds up to inf; the run sizes its
    # velocity errors by the linear frequency instead
    osc = Oscillation(StringParams(2.225073858507202e-308, 0.5, 1.0, 0.5), 0.01)
    k0 = odesim._bound_acceleration(osc.params)(osc._unit_y0)
    assert math.isfinite(k0) and abs(k0) / osc._unit_y0 == math.inf
    est = measure_period(simulate(osc))
    assert abs(est.value - exact_period(osc).value) <= est.err_estimate
    assert check_sandwich(osc, est).passed


@pytest.mark.parametrize("sigma, mass", [(1e300, 1e-300), (1e-300, 1e300)])
def test_turning_times_are_physical_times(sigma, mass):
    # the run is in unit time, 2**_period_exp times the physical one; its
    # turning times are physical: 0, P/2 and P
    osc = Oscillation(StringParams(1.0, 1.25, sigma, mass), 0.5)
    assert osc.params._period_exp != 0
    big_p = exact_period(osc).value
    traj = simulate(osc, SimConfig(n_periods=1))
    assert traj.events[0] == 0.0
    np.testing.assert_allclose(traj.events, [0.0, 0.5 * big_p, big_p], rtol=1e-9)


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
        # rel_tol*y0 is below the smallest float
        ((1.0, 1.25, 1.0, 1.0, 5e-324), InvalidParameters),
        # the force at the release point, about 2e310, overflows
        ((1e-300, 1.0, 1.0, 1.0, 1e10), EngineFailure),
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
    with pytest.raises(EngineFailure, match=r"force .* is -inf"):
        simulate(osc)


def test_overflowing_trial_steps_named():
    # at y0 = 1e307 the release force, about -2e307, is finite, but every
    # trial step's weighted force sums overflow; the run says so and names
    # the force instead of reporting an underflowed step size
    p = StringParams(1.0, 1.25, 1.0, 1.0)
    with pytest.raises(EngineFailure, match=r"^the trial steps were not finite .* y = 1e\+307, is -2e\+307\)"):
        simulate(Oscillation(p, 1e307))
    est = measure_period(simulate(Oscillation(p, 1e306)))
    assert abs(est.value - math.pi * math.sqrt(2.0)) <= est.err_estimate


@pytest.mark.parametrize("n_periods", [1e13, 5e307])
def test_span_below_the_step_floor_refused(n_periods):
    # a span too long to tile: the Trajectory would hold more than
    # _MAX_STEPS samples. The refusal comes before any list of the tiled
    # run is built, as it comes from _release alone
    osc = Oscillation(StringParams(1.0, 1.25, 1.0, 1.0), 0.5)
    message = r"^n_periods = .* cannot be run: its trajectory of 8 samples per quarter"
    with pytest.raises(InvalidParameters, match=message):
        odesim._release(osc, SimConfig(n_periods=n_periods))
    with pytest.raises(InvalidParameters, match=message):
        simulate(osc, SimConfig(n_periods=n_periods))


def test_sample_cap_is_the_trajectory_size(monkeypatch):
    # the reference run's quarter period has 8 samples, so each half period
    # adds 15: one period holds 31 samples, a period and a half 46
    osc = Oscillation(StringParams(1.0, 1.25, 1.0, 1.0), 0.5)
    monkeypatch.setattr(odesim, "_MAX_STEPS", 31)
    assert len(simulate(osc, SimConfig(n_periods=1)).t) == 31
    with pytest.raises(InvalidParameters, match="more than 31 samples"):
        simulate(osc, SimConfig(n_periods=1.5))


def test_horizon_is_formed_in_unit_time():
    # the period, 1.336e308, and the linear one, 1.474e308, are finite;
    # a horizon of n_periods + 1/2 linear periods formed in physical time
    # was not, and refused this run as "horizon, inf"
    osc = Oscillation(StringParams(1.0, 1.25, 1e-307, 2.2e307), 0.5)
    est = measure_period(simulate(osc, SimConfig(n_periods=1)))
    assert math.isfinite(est.value) and est.value > 1e308
    assert check_sandwich(osc, est).passed


def test_step_budget_enforced(default_traj, monkeypatch):
    # a budget of one attempted step fewer than the run takes
    osc, _ = default_traj
    run = odesim._release(osc, SimConfig())
    budget = run.n_accepted + run.n_rejected - 1
    monkeypatch.setattr(odesim, "_MAX_STEPS", budget)
    with pytest.raises(EngineFailure, match=f"no result after {budget} steps"):
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
    with pytest.raises(EngineFailure, match="need >= 2 turning events"):
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


def test_error_estimate_covers_a_crossing_at_large_amplitude():
    # y0/l = 2.3e6: the default run's crossing step jumps the force's turn
    # within about l of y = 0, where the step's own error estimates say
    # nothing of the root of its interpolant. The step to that root, and the time
    # correction its end point gives, bring the error against
    # oracle.period_mp's 40-digit period to about 3e-12; without them the
    # estimate covered 0.74 of the error
    cell = (0.537257629026983, 0.8569792876054433, 8.910949636189251, 1.1260845962478585)
    osc = Oscillation(StringParams(*cell), 1986777.7807562645)
    est = measure_period(simulate(osc))
    assert abs(est.value - 1.1576566083190627) <= est.err_estimate


def test_crossing_time_corrected_and_counted(monkeypatch):
    # the default run steps from its crossing step's start to the root t_q
    # of the step's Hermite polynomial, ends at y_q, within the root's error
    # of 0, and corrects t_q by dt = -y_q/v_q, which the estimate counts as
    # 4*|dt|. A root put 0.1% of its step fraction early is corrected to
    # the same period, and the estimate grows by about that much time, four
    # times
    osc = Oscillation(StringParams(l0=1.0, l=1.25, sigma=1.0, mass=1.0), 0.5)
    plain = measure_period(odesim._release(osc, SimConfig()))
    root = _dop853.hermite_root
    monkeypatch.setattr(_dop853, "hermite_root", lambda *args: 0.999 * root(*args))
    run = odesim._release(osc, SimConfig())
    early = 1e-3 * (run.t_q - run.t[-1])  # the crossing step starts on the last sample
    moved = measure_period(run)
    assert abs(moved.value - plain.value) <= plain.err_estimate
    assert 0.999 * 4 * early <= moved.err_estimate - plain.err_estimate <= 1.001 * 4 * early


def _covers_its_error(cell, cfg):
    osc = Oscillation(StringParams(*cell[:4]), cell[4])
    est = measure_period(simulate(osc, cfg))
    ref = oracle.period_mp(*cell)
    assert abs(est.value - ref) <= est.err_estimate, osc
    assert est.err_estimate <= 1e-7 * est.value, osc


def test_error_estimate_covers_random_draws():
    # log-uniform over the stretch, the amplitude and sigma/m, against
    # 40-digit quadrature. Velocity errors are scaled by the chord frequency
    # at y0, the motion's own time scale, so the estimate stays within 1e-7
    # of the period even where the period is 1e-3 of the linear one.
    for cell in oracle.random_cells(20081, 32, (1e-6, 1e4)):
        _covers_its_error(cell, SimConfig())


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-13, 1e-15])
def test_error_estimate_covers_crossings_at_large_amplitude(rel_tol):
    # y0/l in 1e6..1e10, where the default run's crossing step jumps the
    # force's turn near y = 0 (see
    # test_error_estimate_covers_a_crossing_at_large_amplitude); without the
    # step to the crossing, one of these draws at rel_tol 1e-13 read an
    # estimate of 0.49 of its error. A step norm with an absolute floor of
    # 1e-12*y0 ignored rel_tol below about 1e-13, and at 1e-15 two of these
    # draws read estimates of 0.82 and 0.71 of their errors
    for cell in oracle.random_cells(20082, 32, (1e6, 1e10)):
        _covers_its_error(cell, SimConfig(rel_tol=rel_tol))


def test_error_estimate_covers_a_step_through_the_force_turn():
    # y0/l = 4.1, the worst of 6000 pool draws (perfbench.workloads.draw,
    # seed 77, both bands) under a first step of a hundredth of the linear
    # period: there the step from y = 2.55 to 0.80 on the unit lengths (unit
    # l = 1.28) ran through the force's turn, where e3, 1.3e-4 of y0, was
    # 6500 times e5, so Hairer's combined norm shrank e5 649-fold, the step
    # was accepted at err 0.16, and the estimate read 0.90 of the error.
    # The shrink is unchanged; under the first step sized on the chord
    # frequency the run takes other steps, and the estimate reads 56 times
    # the error against exact_period
    p = StringParams(0.543818673832725, 5.120942109184209, 14.815061233439218, 0.5120403333679762)
    osc = Oscillation(p, 21.231855000178324)
    est = measure_period(simulate(osc))
    assert 10.0 * abs(est.value - exact_period(osc).value) <= est.err_estimate


def test_error_estimate_covers_a_large_amplitude_run_at_loose_tolerance():
    # y0/l = 8.3e5 at rel_tol 9.9e-3, which SimConfig accepts (the CLI caps
    # --tol at 1e-3). Under a first step of a hundredth of the linear period
    # the run read 4.49e34 against 4.99e33 from the closed form, above the
    # linear bound of 1.93e34, with an err_estimate 12 times short of its
    # error. The first step sized on the chord frequency, capped at a
    # radian, reads 4.99e33 within 3.7e-8 of the closed form, inside an
    # estimate of 1.6e-2 of the period
    p = StringParams(3.7444093374052115e-24, 4.012207881341458e-24, 3.200714143699704e+55, 1.0769321519603289e+145)
    osc = Oscillation(p, 3.3187663957982285e-18)
    est = measure_period(simulate(osc, SimConfig(rel_tol=9.9e-3)))
    actual = abs(est.value - period_elliptic(osc).value)
    assert actual <= 1e-6 * est.value and actual <= est.err_estimate
    assert check_sandwich(osc, est).passed


def test_error_estimate_covers_large_amplitude_draws_at_loose_tolerance():
    # y0/l in 2e3..1e8 at rel_tol 9.9e-3, where a first step of a hundredth
    # of the linear period left 30 of 5000 perfbench.workloads.draw draws
    # (seed 5) with an estimate short of the distance to the closed form,
    # and 2 of these 128, the least estimate 0.075 of that distance; the
    # first step sized on the chord frequency leaves none
    for cell in oracle.random_cells(20083, 128, (2e3, 1e8)):
        osc = Oscillation(StringParams(*cell[:4]), cell[4])
        est = measure_period(simulate(osc, SimConfig(rel_tol=9.9e-3)))
        assert abs(est.value - period_elliptic(osc).value) <= est.err_estimate, osc
        assert check_sandwich(osc, est).passed, osc


@pytest.mark.parametrize("cell, period", ORACLE_CELLS)
def test_turning_events_within_estimate(cell, period):
    # the default run's zero crossing events[1]/2 is P/4 to within a
    # quarter of the run's error estimate, which is that of four times the
    # crossing time; the turning times of a whole period, twice and four
    # times the crossing time, are P/2 and P to within the same estimate
    osc = Oscillation(StringParams(*cell[:4]), cell[4])
    traj = simulate(osc)
    err = measure_period(traj).err_estimate
    assert abs(0.5 * traj.events[1] - 0.25 * period) <= 0.25 * err
    traj = simulate(osc, SimConfig(n_periods=1))
    err = measure_period(traj).err_estimate
    assert abs(traj.events[1] - 0.5 * period) <= err
    assert abs(traj.events[2] - period) <= err
