"""Carlson symmetric integrals and the closed-form period built on them."""

import itertools
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from ssp import (
    ConvergenceFailure,
    InvalidParameters,
    Method,
    Oscillation,
    StringParams,
    exact_period,
    period_elliptic,
    rayleigh_period,
)
from ssp.elliptic import quartic_coefficients, quartic_roots, rc, rf, rj, to_z_space
from strategies import oscillations, positive_scale

carlson_args = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)


# --- Carlson integrals ------------------------------------------------------


def test_rc_special_values():
    np.testing.assert_allclose(rc(4.0, 4.0), 0.5, rtol=1e-15)
    np.testing.assert_allclose(rc(0.0, 9.0), math.pi / 6.0, rtol=1e-15)


@given(carlson_args, carlson_args)
def test_rc_matches_scipy(x, y):
    np.testing.assert_allclose(rc(x, y), scipy.special.elliprc(x, y), rtol=5e-14)


def test_rc_near_equal_arguments_full_precision():
    # y -> x is the regime the duplication loop feeds; closed forms lose
    # half their digits there, the series must not.
    for em in (1e-3, 1e-6, 1e-10, 1e-14, -1e-3, -1e-10):
        got = rc(1.0, 1.0 + em)
        want = float(scipy.special.elliprc(1.0, 1.0 + em))
        np.testing.assert_allclose(got, want, rtol=5e-15)


def test_rf_special_values():
    np.testing.assert_allclose(rf(2.0, 2.0, 2.0), 1.0 / math.sqrt(2.0), rtol=1e-15)
    # Degenerate first argument reduces to the rc case.
    np.testing.assert_allclose(rf(0.0, 4.0, 4.0), rc(0.0, 4.0), rtol=1e-14)
    # Classical lemniscate constant: 2*RF(0,1,2) = 2.62205755429212...
    np.testing.assert_allclose(2.0 * rf(0.0, 1.0, 2.0), 2.6220575542921198, rtol=1e-14)


@given(carlson_args, carlson_args, carlson_args)
def test_rf_matches_scipy(x, y, z):
    np.testing.assert_allclose(rf(x, y, z), scipy.special.elliprf(x, y, z), rtol=5e-14)


@given(carlson_args, carlson_args, carlson_args, carlson_args)
def test_rj_matches_scipy(x, y, z, p):
    np.testing.assert_allclose(
        rj(x, y, z, p), scipy.special.elliprj(x, y, z, p), rtol=5e-13
    )


def test_rj_special_value():
    np.testing.assert_allclose(rj(3.0, 3.0, 3.0, 3.0), 3.0**-1.5, rtol=1e-14)


@given(carlson_args, carlson_args, carlson_args, positive_scale)
def test_rf_homogeneity(x, y, z, k):
    np.testing.assert_allclose(
        rf(k * x, k * y, k * z) * math.sqrt(k), rf(x, y, z), rtol=1e-12
    )


@given(carlson_args, carlson_args, carlson_args, carlson_args, positive_scale)
def test_rj_homogeneity(x, y, z, p, k):
    np.testing.assert_allclose(
        rj(k * x, k * y, k * z, k * p) * k**1.5, rj(x, y, z, p), rtol=1e-12
    )


def test_carlson_domain_errors():
    with pytest.raises(ConvergenceFailure):
        rf(-1.0, 1.0, 1.0)
    with pytest.raises(ConvergenceFailure):
        rf(0.0, 0.0, 1.0)
    with pytest.raises(ConvergenceFailure):
        rj(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ConvergenceFailure):
        rj(1.0, 1.0, 1.0, -2.0)
    with pytest.raises(ConvergenceFailure):
        rc(1.0, 0.0)


# --- change of variables and the root structure -----------------------------


def test_z_space_reference(reference_osc):
    l, z0 = to_z_space(reference_osc)
    assert l == reference_osc.params.l
    np.testing.assert_allclose(z0, oracle.Z0_REF, rtol=1e-15)


def test_z_space_at_zero_amplitude(reference_params):
    l = reference_params.l
    assert to_z_space(Oscillation(reference_params, 0.0)) == (l, l)


def test_quartic_roots_reference(reference_osc):
    qr = quartic_roots(reference_osc)
    expected = (-1.25, oracle.ROOT_SECOND_REF, 1.25, oracle.Z0_REF)
    np.testing.assert_allclose(qr.roots, expected, rtol=1e-14)
    # The clamp points +-l enter the factorization untouched.
    assert qr.roots[0] == -reference_osc.params.l
    assert qr.roots[2] == reference_osc.params.l
    assert qr.leading == -1.0 / (2.0 * reference_osc.params.l0)


@given(oscillations(rel_amp_lo=1e-3, rel_amp_hi=2.5))
def test_quartic_root_sum(osc):
    qr = quartic_roots(osc)
    total = math.fsum(qr.roots)
    np.testing.assert_allclose(total, 2.0 * osc.params.l0, rtol=1e-13)
    l, z0 = to_z_space(osc)
    standard = z0 < 2.0 * osc.params.l0 + l
    assert qr.roots[0] < qr.roots[1] < qr.roots[2] < qr.roots[3] or not standard


def test_factored_form_matches_direct_product(reference_osc):
    # -(1/(2 l0)) * prod(z - r_i) against (1/(2 l0)) (z^2-l^2)(z0-z)(z+z0-2 l0)
    osc = reference_osc
    l0 = osc.params.l0
    l, z0 = to_z_space(osc)
    qr = quartic_roots(osc)
    rng = np.random.default_rng(7)
    scale = (l + z0) ** 4 / (2.0 * l0)
    for z in rng.uniform(-1.5 * z0, 2.5 * z0, size=100):
        direct = (z * z - l * l) * (z0 - z) * (z + z0 - 2.0 * l0) / (2.0 * l0)
        assert abs(qr.evaluate(z) - direct) <= 1e-12 * (abs(direct) + scale)


def test_expanded_coefficients_match_roots(reference_osc):
    coeffs = quartic_coefficients(reference_osc)
    qr = quartic_roots(reference_osc)
    assert coeffs[0] == qr.leading
    rng = np.random.default_rng(11)
    _, z0 = to_z_space(reference_osc)
    scale = abs(qr.leading) * (2.0 * z0) ** 4
    for z in rng.uniform(-z0, 2.0 * z0, size=50):
        assert abs(np.polyval(coeffs, z) - qr.evaluate(z)) <= 1e-12 * scale


def test_radicand_sign_structure(reference_osc):
    qr = quartic_roots(reference_osc)
    l, z0 = to_z_space(reference_osc)
    assert qr.radicand(l) == 0.0
    assert qr.radicand(z0) == 0.0
    for frac in (0.1, 0.5, 0.9):
        assert qr.radicand(l + frac * (z0 - l)) > 0.0
    # Leaves the oscillation interval: radicand negative just outside.
    assert qr.radicand(z0 + 0.1 * (z0 - l)) < 0.0


def test_radicand_vanishes_linearly_at_the_edges(reference_osc):
    qr = quartic_roots(reference_osc)
    l, z0 = to_z_space(reference_osc)
    width = z0 - l
    for delta in (1e-4 * width, 1e-6 * width):
        ratio_l = qr.radicand(l + delta) / delta
        ratio_l2 = qr.radicand(l + 0.5 * delta) / (0.5 * delta)
        np.testing.assert_allclose(ratio_l, ratio_l2, rtol=1e-3)


# --- closed-form period -----------------------------------------------------


def test_period_reference(reference_osc):
    est = period_elliptic(reference_osc)
    assert est.method is Method.ELLIPTIC
    np.testing.assert_allclose(est.value, oracle.P_REF, rtol=1e-13)
    assert est.err_estimate >= 0.0


def test_period_anharmonic_cell():
    l0, l, sigma, mass, y0 = oracle.ANHARMONIC_PARAMS
    est = period_elliptic(Oscillation(StringParams(l0, l, sigma, mass), y0))
    np.testing.assert_allclose(est.value, oracle.P_ANHARMONIC, rtol=1e-12)


def test_period_agrees_with_quadrature_on_grid():
    worst = 0.0
    for stretch, rel_amp, som in itertools.product(
        (1.05, 1.25, 1.5, 2.0, 4.0), (0.05, 0.2, 0.5, 1.0, 2.0), (0.1, 1.0, 10.0)
    ):
        osc = Oscillation(StringParams(1.0, stretch, som, 1.0), rel_amp * stretch)
        q = exact_period(osc).value
        e = period_elliptic(osc).value
        worst = max(worst, abs(q - e) / q)
    assert worst < 1e-12


def test_tiny_amplitude_matches_harmonic(reference_params):
    osc = Oscillation(reference_params, 1e-3 * reference_params.l)
    est = period_elliptic(osc)
    np.testing.assert_allclose(est.value, rayleigh_period(reference_params), rtol=1e-5)


def test_degenerate_amplitude(reference_params):
    # k^2 = n = 0 at y0 = 0: the closed form is the harmonic period itself.
    harmonic = rayleigh_period(reference_params)
    for y0 in (0.0, 1e-10 * reference_params.l):
        est = period_elliptic(Oscillation(reference_params, y0))
        assert est.method is Method.ELLIPTIC
        assert 0.0 < est.err_estimate
        assert abs(est.value - harmonic) <= est.err_estimate


@settings(max_examples=25)
@given(oscillations(rel_amp_hi=2.0), positive_scale)
def test_period_invariant_under_joint_rescaling(osc, c):
    p = osc.params
    scaled = StringParams(l0=p.l0, l=p.l, sigma=c * p.sigma, mass=c * p.mass)
    a = period_elliptic(osc)
    b = period_elliptic(Oscillation(scaled, osc.y0))
    np.testing.assert_allclose(b.value, a.value, rtol=1e-12)


def _huge_amplitude_osc():
    # y0^2 >= 4*l0*(l0 + l) pushes the outer turning point past the third
    # root's mirror and breaks the descending-order reduction.
    p = StringParams(l0=1.0, l=1.25, sigma=1.0, mass=1.0)
    return Oscillation(p, 3.1)


def test_nonstandard_ordering_detected():
    # The roots order as -l < 2*l0 - z0 < l < z0 only while z0 < 2*l0 + l.
    osc = _huge_amplitude_osc()
    l, z0 = to_z_space(osc)
    assert not z0 < 2.0 * osc.params.l0 + l
    l, z0 = to_z_space(Oscillation(osc.params, 0.5))
    assert z0 < 2.0 * osc.params.l0 + l


@pytest.mark.parametrize("cell, period", oracle.NONSTANDARD_PERIODS)
def test_nonstandard_ordering_matches_oracle(cell, period):
    l0, l, sigma, mass, y0 = cell
    est = period_elliptic(Oscillation(StringParams(l0, l, sigma, mass), y0))
    assert est.method is Method.ELLIPTIC
    assert abs(est.value - period) <= 1e-14 * period


def test_tolerance_validation(reference_osc):
    with pytest.raises(InvalidParameters):
        period_elliptic(reference_osc, rel_tol=0.0)
    with pytest.raises(InvalidParameters):
        period_elliptic(reference_osc, rel_tol=1.0)
