"""A-priori period bounds and the relative-error corollary."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

import oracle
from ssp import (
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
from ssp.bounds import (
    _secant_upper,
    lower_bound_corrected,
    lower_bound_printed,
    rel_error_bound_printed,
    relative_error_bounds,
    upper_bound,
)
from ssp.model import TWO_PI
from strategies import oscillations


def test_upper_bound_is_harmonic_period(reference_params):
    assert upper_bound(reference_params) == rayleigh_period(reference_params)
    np.testing.assert_allclose(upper_bound(reference_params), oracle.UPPER_REF, rtol=1e-15)


def test_lower_bounds_reference_values(reference_osc):
    np.testing.assert_allclose(
        lower_bound_corrected(reference_osc), oracle.LOWER_CORR_REF, rtol=1e-14
    )
    np.testing.assert_allclose(
        lower_bound_printed(reference_osc), oracle.LOWER_PRINTED_REF, rtol=1e-14
    )


def test_lower_bound_corrected_plain_formula(reference_osc):
    # 2*pi / sqrt(omega0^2 + sigma*y0^2/(m*l0*l^2)): 0.4 + 0.16 here.
    np.testing.assert_allclose(
        lower_bound_corrected(reference_osc),
        2.0 * math.pi / math.sqrt(0.56),
        rtol=1e-15,
    )


def test_bounds_coincide_at_zero_amplitude(reference_params):
    osc = Oscillation(reference_params, 0.0)
    b = compute_bounds(osc)
    assert b.lower_corrected == b.upper
    assert b.lower_printed == b.upper
    assert relative_error_bounds(osc) == (0.0, 0.0)


def test_relative_error_bounds_reference(reference_osc):
    low, high = relative_error_bounds(reference_osc)
    assert low == oracle.R_BOUND_CORR_REF
    assert high == 0.0
    # The measured relative deviation sits inside the corollary's window.
    assert low <= oracle.R_REF <= high


def test_printed_error_variant_computes(reference_osc):
    # Reported for comparison only; its scaling differs from the corrected
    # form, so no ordering against the true deviation is asserted.
    assert rel_error_bound_printed(reference_osc) == -0.25


def test_compute_bounds_is_consistent(reference_osc):
    b = compute_bounds(reference_osc)
    assert b.upper == upper_bound(reference_osc.params)
    assert b.lower_corrected == lower_bound_corrected(reference_osc)
    assert b.lower_printed == lower_bound_printed(reference_osc)
    assert b.rel_error_bound_corrected == relative_error_bounds(reference_osc)[0]
    assert b.rel_error_bound_printed == rel_error_bound_printed(reference_osc)


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
        -relative_error_bounds(Oscillation(reference_params, a))[0] for a in amps
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
    inflated = PeriodEstimate(
        1.01 * upper_bound(reference_osc.params), Method.QUADRATURE, honest.err_estimate
    )
    report = check_sandwich(reference_osc, inflated)
    assert not report.upper_ok
    assert not report.passed
    deflated = PeriodEstimate(
        0.99 * lower_bound_corrected(reference_osc), Method.QUADRATURE, 0.0
    )
    assert not check_sandwich(reference_osc, deflated).lower_ok


def test_sandwich_slack_respects_error_estimate(reference_osc):
    est = exact_period(reference_osc)
    report = check_sandwich(reference_osc, est, rel_slack=1e-9)
    assert report.slack >= 1e-9 * report.upper
    assert report.slack >= est.err_estimate


def test_degenerate_amplitude_sandwich(reference_params):
    osc = Oscillation(reference_params, 0.0)
    est = exact_period(osc)
    report = check_sandwich(osc, est)
    # Period equals both bounds; the strict side is waived in the limit.
    assert report.passed


# (l, y0) at l0 = sigma = m = 1 where exact_period's value reaches the upper
# bound: the gap below it is smaller than the estimate's own error, or the
# amplitude is below the degeneracy threshold and both engines return upper.
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
    for engine in (exact_period, period_elliptic):
        est = engine(osc)
        at_upper = PeriodEstimate(upper_bound(reference_params), est.method, est.err_estimate)
        report = check_sandwich(osc, at_upper)
        assert report.upper_ok
        assert not report.strict_upper_ok
    # an error estimate wider than the gap below upper waives strictness
    gap = upper_bound(reference_params) - exact_period(osc).value
    loose = PeriodEstimate(upper_bound(reference_params), Method.QUADRATURE, 2.0 * gap)
    assert check_sandwich(osc, loose).strict_upper_ok


@settings(max_examples=40)
@given(oscillations(rel_amp_hi=100.0))
def test_secant_bound_lies_between_period_and_upper(osc):
    est = exact_period(osc)
    secant = _secant_upper(osc)
    assert est.value <= secant + est.err_estimate
    assert secant <= upper_bound(osc.params) * (1.0 + 1e-15)


def test_bounds_survive_overflowing_amplitude(reference_params):
    # y0^2 overflows: the lower bounds fall to 0 and the relative bounds to
    # -inf, both still true, and the exact period stays inside.
    osc = Oscillation(reference_params, 1e200)
    b = compute_bounds(osc)
    assert (b.lower_corrected, b.lower_printed) == (0.0, 0.0)
    assert b.upper == upper_bound(reference_params)
    assert b.rel_error_bound_corrected == -math.inf
    assert b.rel_error_bound_printed == -math.inf
    assert check_sandwich(osc, exact_period(osc)).passed


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
