"""A-priori period bounds and the relative-error corollary."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from ssp import (
    InvalidParameters,
    Method,
    Oscillation,
    PeriodEstimate,
    StringParams,
    check_sandwich,
    compute_bounds,
    exact_period,
    period_elliptic,
    rayleigh_period,
)
from ssp.bounds import _BOUND_ULPS, _secant_upper
from ssp.model import TWO_PI
from strategies import oscillations


def test_upper_bound_is_harmonic_period(reference_params):
    for y0 in (0.0, 0.5, 1e200):
        upper = compute_bounds(Oscillation(reference_params, y0)).upper
        assert upper == rayleigh_period(reference_params)
    np.testing.assert_allclose(upper, oracle.UPPER_REF, rtol=1e-15)


def test_lower_bounds_reference_values(reference_osc):
    b = compute_bounds(reference_osc)
    np.testing.assert_allclose(b.lower_corrected, oracle.LOWER_CORR_REF, rtol=1e-14)
    np.testing.assert_allclose(b.lower_printed, oracle.LOWER_PRINTED_REF, rtol=1e-14)


def test_lower_bound_corrected_plain_formula(reference_osc):
    # 2*pi / sqrt(omega0^2 + sigma*y0^2/(m*l0*l^2)): 0.4 + 0.16 here.
    np.testing.assert_allclose(
        compute_bounds(reference_osc).lower_corrected,
        2.0 * math.pi / math.sqrt(0.56),
        rtol=1e-15,
    )


def test_bounds_coincide_at_zero_amplitude(reference_params):
    osc = Oscillation(reference_params, 0.0)
    b = compute_bounds(osc)
    assert b.lower_corrected == b.upper
    assert b.lower_printed == b.upper
    assert b.rel_error_bound_corrected == 0.0
    assert b.rel_error_bound_printed == 0.0


def test_relative_error_bounds_reference(reference_osc):
    low = compute_bounds(reference_osc).rel_error_bound_corrected
    assert low == oracle.R_BOUND_CORR_REF
    # The measured relative deviation sits inside the corollary's window.
    assert low <= oracle.R_REF <= 0.0


def test_relative_error_bound_does_not_depend_on_sigma():
    # sigma cancels from sigma*y0^2/(4*T*l0*l); a sigma left in overflows to
    # -inf at sigma = 1e300, y0 = 1e5 and loses bits at subnormal sigma.
    for y0, expected in ((1.0, -0.8), (1e5, -8e9)):
        osc = Oscillation(StringParams(1.0, 1.25, 1.0, 1.0), y0)
        assert compute_bounds(osc).rel_error_bound_corrected == expected
        for sigma in (1e300, 1e-310):
            osc = Oscillation(StringParams(1.0, 1.25, sigma, 1.0), y0)
            assert compute_bounds(osc).rel_error_bound_corrected == expected


def test_printed_error_variant_computes(reference_osc):
    # Reported for comparison only; its scaling differs from the corrected
    # form, so no ordering against the true deviation is asserted.
    assert compute_bounds(reference_osc).rel_error_bound_printed == -0.25


def test_compute_bounds_is_consistent(reference_params):
    # the sandwich reads the record's rigorous bounds, bit for bit
    for y0 in (0.0, 0.5, 1e200):
        osc = Oscillation(reference_params, y0)
        b = compute_bounds(osc)
        report = check_sandwich(osc, exact_period(osc))
        assert (report.lower, report.upper) == (b.lower_corrected, b.upper)


_any_length = st.floats(5e-324, 1.7e308)


@settings(max_examples=300)
@given(_any_length, _any_length, _any_length, _any_length, st.floats(0.0, 1.7e308))
def test_sandwich_bounds_are_the_records_across_the_float_range(a, b, sigma, mass, y0):
    # check_sandwich and compute_bounds form the corrected lower bound
    # through one helper and upper through rayleigh_period; no draw may
    # split them, whatever over- or underflows
    l0, l = sorted((a, b))
    assume(l0 < l)
    try:
        osc = Oscillation(StringParams(l0, l, sigma, mass), y0)
    except InvalidParameters:
        assume(False)
    bounds = compute_bounds(osc)
    report = check_sandwich(osc, PeriodEstimate(bounds.upper, Method.QUADRATURE, 0.0))
    assert (report.lower, report.upper) == (bounds.lower_corrected, bounds.upper)


def test_bracket_widens_with_amplitude(reference_params):
    widths = []
    for rel in np.linspace(0.05, 2.0, 12):
        osc = Oscillation(reference_params, rel * reference_params.l)
        b = compute_bounds(osc)
        widths.append(b.upper - b.lower_corrected)
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_bracket_closes_quadratically(reference_params):
    # Halving y0 should quarter the relative gap 1 - lower/upper.
    gaps = []
    for y0 in (4e-3, 2e-3, 1e-3):
        osc = Oscillation(reference_params, y0)
        b = compute_bounds(osc)
        gaps.append(1.0 - b.lower_corrected / b.upper)
    np.testing.assert_allclose(gaps[0] / gaps[1], 4.0, rtol=1e-3)
    np.testing.assert_allclose(gaps[1] / gaps[2], 4.0, rtol=1e-3)


def test_error_bound_scales_quadratically(reference_params):
    amps = np.array([0.01, 0.02, 0.05, 0.1, 0.2]) * reference_params.l
    bound_mags = [
        -compute_bounds(Oscillation(reference_params, a)).rel_error_bound_corrected for a in amps
    ]
    slope = np.polyfit(np.log(amps), np.log(bound_mags), 1)[0]
    np.testing.assert_allclose(slope, 2.0, atol=1e-12)


@settings(max_examples=40)
@given(oscillations(rel_amp_hi=2.5))
def test_sandwich_holds_for_the_real_period(osc):
    est = exact_period(osc)
    report = check_sandwich(osc, est)
    assert report.lower_ok and report.upper_ok and report.strict_upper_ok
    assert report.passed
    assert report.lower <= report.value + report.slack
    assert report.value < report.upper


def test_sandwich_rejects_corrupted_estimate(reference_osc):
    honest = exact_period(reference_osc)
    b = compute_bounds(reference_osc)
    inflated = PeriodEstimate(1.01 * b.upper, Method.QUADRATURE, honest.err_estimate)
    report = check_sandwich(reference_osc, inflated)
    assert not report.upper_ok
    assert not report.passed
    deflated = PeriodEstimate(0.99 * b.lower_corrected, Method.QUADRATURE, 0.0)
    assert not check_sandwich(reference_osc, deflated).lower_ok


def test_sandwich_slack_is_the_error_estimate_plus_the_bounds_rounding(reference_osc):
    est = exact_period(reference_osc)
    report = check_sandwich(reference_osc, est)
    assert report.slack == est.err_estimate + _BOUND_ULPS * math.ulp(report.upper)


def test_sandwich_refuses_a_period_just_below_the_lower_bound(reference_osc):
    # err_estimate plus 2*_BOUND_ULPS ulps of upper below the corrected lower
    # bound lies _BOUND_ULPS ulps outside the slack
    err = exact_period(reference_osc).err_estimate
    b = compute_bounds(reference_osc)
    gap = err + 2.0 * _BOUND_ULPS * math.ulp(b.upper)
    below = b.lower_corrected - gap
    report = check_sandwich(reference_osc, PeriodEstimate(below, Method.QUADRATURE, err))
    assert not report.lower_ok
    assert not report.passed
    assert report.violation > 0.0


def test_degenerate_amplitude_sandwich(reference_params):
    osc = Oscillation(reference_params, 0.0)
    est = exact_period(osc)
    report = check_sandwich(osc, est)
    # Period equals both bounds; at y0 = 0 the secant bound is upper itself.
    assert report.passed


# (l, y0) at l0 = sigma = m = 1 where exact_period's value reaches the upper
# bound: the gap below it is smaller than the estimate's own error.
@pytest.mark.parametrize(
    "l, y0",
    [
        (1.25, 2.5e-9),
        (1.25, 6.25e-9),
        (10.0, 7e-7),
        (1.01, 4.1374203476906136e-09),
        (100.0, 3.385996131863295e-05),
        (1e5, 1.3389093286270097),
        (1.000001, 5e-10),
        (1.0002, 9.9e-10),
    ],
)
def test_sandwich_passes_periods_at_the_upper_bound(l, y0):
    osc = Oscillation(StringParams(1.0, l, 1.0, 1.0), y0)
    for engine in (exact_period, period_elliptic):
        assert check_sandwich(osc, engine(osc)).passed


@pytest.mark.parametrize("rel_amp", [1e-4, 0.4])
def test_estimate_at_upper_bound_fails_strict(reference_params, rel_amp):
    osc = Oscillation(reference_params, rel_amp * reference_params.l)
    upper = compute_bounds(osc).upper
    for engine in (exact_period, period_elliptic):
        est = engine(osc)
        at_upper = PeriodEstimate(upper, est.method, est.err_estimate)
        report = check_sandwich(osc, at_upper)
        assert report.upper_ok
        assert not report.strict_upper_ok
    # an error estimate wider than the gap below upper waives strictness
    gap = upper - exact_period(osc).value
    loose = PeriodEstimate(upper, Method.QUADRATURE, 2.0 * gap)
    assert check_sandwich(osc, loose).strict_upper_ok


@settings(max_examples=40)
@given(oscillations(rel_amp_hi=100.0))
def test_secant_bound_lies_between_period_and_upper(osc):
    est = exact_period(osc)
    secant = _secant_upper(osc)
    assert est.value <= secant + est.err_estimate
    assert secant <= compute_bounds(osc).upper * (1.0 + 1e-15)


def test_bounds_survive_overflowing_amplitude(reference_params):
    # y0^2 overflows: the lower bounds fall to 0 and the relative bounds to
    # -inf, both still true, and the exact period stays inside.
    osc = Oscillation(reference_params, 1e200)
    b = compute_bounds(osc)
    assert (b.lower_corrected, b.lower_printed) == (0.0, 0.0)
    assert b.upper == rayleigh_period(reference_params)
    assert b.rel_error_bound_corrected == -math.inf
    assert b.rel_error_bound_printed == -math.inf
    assert check_sandwich(osc, exact_period(osc)).passed


@pytest.mark.parametrize(
    "cell",
    [
        # l0*l^2 overflows a float; an excess read as 0 would put the lower
        # bound at upper, 30 times the period
        (4.398894530172721e112, 4.399043563657894e112, 3.878018549630792e58,
         2.046270915589734e28, 1.3116629108753288e112),
        # l0*l^2 underflows to 0
        (1.7259844105766025e-122, 1.733532760420914e-122, 0.567, 1.536, 3.63e-120),
        # the excess overflows once scaled back: the bound is 0, still true
        (1e-100, 2e-100, 1.0, 1.0, 1e50),
    ],
)
def test_corrected_lower_bound_at_extreme_lengths(cell):
    l0, l, sigma, mass, y0 = cell
    osc = Oscillation(StringParams(l0, l, sigma, mass), y0)
    b = compute_bounds(osc)
    for est in (exact_period(osc), period_elliptic(osc)):
        assert b.lower_corrected < est.value < b.upper
        assert check_sandwich(osc, est).passed


def test_bounds_where_lengths_and_amplitude_overflow_when_squared():
    # l*l and y0*y0 both overflow; on lengths scaled by the power of four
    # that puts l in [0.5, 2) the ratios are in range: the stiffness is 2 and
    # the excess 1, so the lower bound is 2*pi/sqrt(3), and the relative
    # bound is -y0^2/(4*(l - l0)*l) = -1/4 (both were NaN)
    osc = Oscillation(StringParams(1.0, 1e200, 1.0, 1.0), 1e200)
    b = compute_bounds(osc)
    assert b.lower_corrected == pytest.approx(TWO_PI / math.sqrt(3.0), rel=1e-15)
    assert b.rel_error_bound_corrected == -0.25
    assert b.lower_corrected < b.upper


def _plain_bounds(osc):
    # the bounds' formulas with sigma and mass themselves, unscaled
    p, y0_sq = osc.params, osc.y0 * osc.y0
    lin = p.linear_stiffness
    return (
        TWO_PI / math.sqrt(lin + p.sigma * y0_sq / (p.mass * p.l0 * (p.l * p.l))),
        TWO_PI / math.sqrt(lin + p.sigma * y0_sq / (p.l * p.l0)),
        TWO_PI / math.sqrt(lin),
    )


@pytest.mark.parametrize(
    "p, y0",
    [
        # mass = 1e300: sigma*y0^2 = 1e10 would overflow had sigma been
        # scaled towards mass rather than towards 1
        (StringParams(l0=1.0, l=1.25, sigma=1.0, mass=1e300), 1e5),
        # sigma*(l - l0)/l0 = 1e10 beside mass = 1e300: the same for upper
        (StringParams(l0=1e-10, l=1.0, sigma=1.0, mass=1e300), 0.5),
        # mass = 1e-305: sigma*(l - l0) = 1e-15 would fall subnormal had
        # sigma been scaled towards mass
        (StringParams(l0=1.0, l=1.0 + 1e-15, sigma=1.0, mass=1e-305), 1e-3),
    ],
)
def test_bounds_keep_the_bits_of_the_plain_formulas(p, y0):
    osc = Oscillation(p, y0)
    b = compute_bounds(osc)
    assert (b.lower_corrected, b.lower_printed, b.upper) == _plain_bounds(osc)
    assert math.isfinite(b.upper)
    exact = exact_period(osc)
    assert b.lower_corrected < exact.value < b.upper
    assert check_sandwich(osc, exact).passed
    np.testing.assert_allclose(period_elliptic(osc).value, exact.value, rtol=1e-12)


_wide_scale = st.floats(math.log(1e-150), math.log(1e150)).map(math.exp)


@settings(max_examples=500)
@given(
    _wide_scale,
    _wide_scale,
    _wide_scale,
    _wide_scale,
    st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
)
def test_closed_forms_bracketed_across_the_float_range(a, b, sigma, mass, rel_amp):
    # the engines see lengths, sigma and mass through their ratios alone;
    # on raw lengths about 3 in 100 such draws raised EngineFailure or
    # a raw ZeroDivisionError. No draw here is refused: l/l0 and y0/l stay
    # below 1e300, and the linear period within 1e+-225
    l0, l = sorted((a, b))
    y0 = rel_amp * l
    assume(l0 < l and math.isfinite(y0))
    osc = Oscillation(StringParams(l0, l, sigma, mass), y0)
    for engine in (exact_period, period_elliptic):
        est = engine(osc)
        assert 0.0 < est.value < math.inf
        assert check_sandwich(osc, est).passed, (engine.__name__, est)


@settings(max_examples=300)
@given(
    _wide_scale,
    _wide_scale,
    _wide_scale,
    _wide_scale,
    st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
)
def test_bounds_round_within_the_sandwich_allowance(a, b, sigma, mass, rel_amp):
    # each bound lies within _BOUND_ULPS ulps of upper of its 40-digit value,
    # the rounding check_sandwich allows. Where y0*y0 overflows on the unit
    # lengths the lower bound reads 0, below an ulp of upper from its value
    l0, l = sorted((a, b))
    y0 = rel_amp * l
    assume(l0 < l and math.isfinite(y0))
    osc = Oscillation(StringParams(l0, l, sigma, mass), y0)
    b = compute_bounds(osc)
    upper = b.upper
    computed = {"upper": upper, "lower": b.lower_corrected, "secant": _secant_upper(osc)}
    with mpmath.workdps(40):
        l0, l, sigma, mass, y0 = (mpmath.mpf(x) for x in (l0, l, sigma, mass, y0))
        linear = 2 * sigma * (l - l0) / (mass * l0 * l)
        secant = 2 * sigma / mass * (1 / l0 - 2 / (l + mpmath.hypot(l, y0)))
        exact = {
            "upper": 2 * mpmath.pi / mpmath.sqrt(linear),
            "lower": 2 * mpmath.pi / mpmath.sqrt(linear + sigma * y0**2 / (mass * l0 * l**2)),
            "secant": 2 * mpmath.pi / mpmath.sqrt(secant),
        }
        for name, value in computed.items():
            ulps = abs(value - exact[name]) / math.ulp(upper)
            assert ulps <= _BOUND_ULPS, (name, float(ulps))


@pytest.mark.parametrize(
    "cell",
    [
        # l*l0 and y0*y0 underflow to 0 on raw lengths: 0/0
        (1e-201, 1e-200, 1.0, 1.0, 1e-200),
        # mass*l underflows to 0 on raw values
        (1e-31, 1e-30, 1.0, 1e-300, 1e-31),
        # 4*T*l0 underflows to 0 on raw values
        (1e-30, 2e-30, 1e-300, 1.0, 1e-30),
        # sigma*y0^2/(l*l0) = 5e19 where y0*y0 overflows on raw lengths
        (1e150, 2e150, 1.0, 1.0, 1e160),
    ],
)
def test_printed_bounds_on_unit_values(cell):
    # the printed formulas raised ZeroDivisionError or read 0 on raw values
    l0, l, sigma, mass, y0 = (mpmath.mpf(x) for x in cell)
    with mpmath.workdps(30):
        omega0_sq = 2 * sigma * (l - l0) / (mass * l0 * l)
        lower = 2 * mpmath.pi / mpmath.sqrt(omega0_sq + sigma * y0**2 / (l * l0))
        rel = -(y0**2) * mass / (4 * sigma * (l - l0))
    b = compute_bounds(Oscillation(StringParams(*cell[:4]), cell[4]))
    assert b.lower_printed == pytest.approx(float(lower), rel=1e-14)
    assert b.rel_error_bound_printed == pytest.approx(float(rel), rel=1e-14)
