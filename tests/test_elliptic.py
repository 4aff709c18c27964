"""Bulirsch's cel and the closed-form period built on it."""

import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from ssp import (
    EngineFailure,
    Method,
    Oscillation,
    StringParams,
    exact_period,
    period_elliptic,
    rayleigh_period,
)
from ssp.elliptic import _cel, quartic_coefficients, quartic_roots
from strategies import oscillations, positive_scale

# cel's truncation error is half an ulp; this covers its rounding
CEL_RTOL = 2e-14
# k^2 over (-1e3, 1): kc from about 31.6 down to 1e-8, both sides of kc = 1
modulus_parameter = st.floats(-1e3, 1.0, exclude_max=True)
cel_args = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)


# --- Bulirsch's generalized complete elliptic integral ----------------------


def test_cel_special_values():
    assert _cel(1.0, 1.0, 1.0, 1.0) == 0.5 * math.pi
    # lemniscate case: K(1/sqrt(2)) = Gamma(1/4)^2 / (4*sqrt(pi))
    kc = math.sqrt(0.5)
    np.testing.assert_allclose(_cel(kc, 1.0, 1.0, 1.0), 1.8540746773013719, rtol=1e-15)
    # Legendre's relation at k = kc: 2*E*K - K^2 = pi/2
    big_k, big_e = _cel(kc, 1.0, 1.0, 1.0), _cel(kc, 1.0, 1.0, 0.5)
    np.testing.assert_allclose(2.0 * big_e * big_k - big_k * big_k, 0.5 * math.pi, rtol=1e-15)


@given(modulus_parameter)
def test_cel_first_and_second_kind_match_scipy(m):
    # K(k) = cel(kc, 1, 1, 1) and E(k) = cel(kc, 1, 1, kc^2), kc^2 = 1 - m;
    # ellipkm1 takes 1 - m itself, so K keeps its digits as kc -> 0
    p = 1.0 - m
    kc = math.sqrt(p)
    np.testing.assert_allclose(_cel(kc, 1.0, 1.0, 1.0), scipy.special.ellipkm1(p), rtol=CEL_RTOL)
    np.testing.assert_allclose(_cel(kc, 1.0, 1.0, p), scipy.special.ellipe(m), rtol=CEL_RTOL)


@given(modulus_parameter, st.floats(-1e3, 0.99))
def test_cel_third_kind_matches_mpmath(m, n):
    # Pi(n, k) = cel(kc, 1 - n, 1, 1), with mpmath's sign convention 1 - n*sin^2
    p = 1.0 - m
    with mpmath.workdps(30):
        want = float(mpmath.ellippi(n, 1 - mpmath.mpf(p)))
    np.testing.assert_allclose(_cel(math.sqrt(p), 1.0 - n, 1.0, 1.0), want, rtol=CEL_RTOL)


@example(kc=1.0, p=1.0, a=0.0, b=2.2250738585e-313, s=math.e)
@given(cel_args, cel_args, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), positive_scale)
def test_cel_is_linear_in_a_and_b(kc, p, a, b, s):
    # period_elliptic factors z0 out of both numerator coefficients. A
    # subnormal input or product carries fewer than 53 bits, so each of its
    # roundings is absolute, up to ulp(0.0), and scales with s and the
    # kernel; 8 ulps cover the worst of 400k subnormal draws (about 3)
    whole = _cel(kc, p, a * s, b * s)
    parts = s * (_cel(kc, p, a, 0.0) + _cel(kc, p, 0.0, b))
    kernel = _cel(kc, p, 1.0, 1.0)
    subnormal = 8.0 * math.ulp(0.0) * (1.0 + s) * max(kernel, 1.0)
    assert abs(whole - parts) <= 1e-14 * s * (abs(a) + abs(b)) * kernel + subnormal


def test_cel_failure_is_a_clean_error():
    # an overflowed or NaN kc never meets the stop test
    with pytest.raises(EngineFailure, match=r"^cel AGM did not converge at kc=0\.0$"):
        _cel(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(EngineFailure, match=r"^cel AGM did not converge at kc=nan$"):
        _cel(math.nan, 1.0, 1.0, 1.0)
    # the root difference 2*(z0 - l0) overflowed at y0 = 1e308 and the AGM's
    # e = qc*em from y0 = 1.353e306; at most at y0 = 2**60*l, neither does
    for y0 in (1e307, 1e308):
        got = period_elliptic(Oscillation(StringParams(1.0, 1.25, 1.0, 1.0), y0)).value
        assert abs(got - math.pi * math.sqrt(2.0)) <= 1e-15 * got


# --- change of variables and the root structure -----------------------------


def _z_space(osc):
    """(l, z0): the clamp half-length and the turning-point half-length."""
    return osc.params.l, math.hypot(osc.params.l, osc.y0)


def test_z_space_reference(reference_osc):
    # the two largest roots are l and z0 = hypot(l, y0), bit for bit
    l, z0 = quartic_roots(reference_osc).roots[2:]
    assert (l, z0) == _z_space(reference_osc)
    np.testing.assert_allclose(z0, oracle.Z0_REF, rtol=1e-15)


def test_z_space_at_zero_amplitude(reference_params):
    l = reference_params.l
    assert quartic_roots(Oscillation(reference_params, 0.0)).roots[2:] == (l, l)


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
    l, z0 = _z_space(osc)
    standard = z0 < 2.0 * osc.params.l0 + l
    assert qr.roots[0] < qr.roots[1] < qr.roots[2] < qr.roots[3] or not standard


def test_factored_form_matches_direct_product(reference_osc):
    # -(1/(2 l0)) * prod(z - r_i) against (1/(2 l0)) (z^2-l^2)(z0-z)(z+z0-2 l0)
    osc = reference_osc
    l0 = osc.params.l0
    l, z0 = _z_space(osc)
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
    _, z0 = _z_space(reference_osc)
    scale = abs(qr.leading) * (2.0 * z0) ** 4
    for z in rng.uniform(-z0, 2.0 * z0, size=50):
        assert abs(np.polyval(coeffs, z) - qr.evaluate(z)) <= 1e-12 * scale


def test_radicand_sign_structure(reference_osc):
    # the period integrand's radicand is twice the quartic, so shares its sign
    qr = quartic_roots(reference_osc)
    l, z0 = _z_space(reference_osc)
    assert qr.evaluate(l) == 0.0
    assert qr.evaluate(z0) == 0.0
    for frac in (0.1, 0.5, 0.9):
        assert qr.evaluate(l + frac * (z0 - l)) > 0.0
    # Leaves the oscillation interval: radicand negative just outside.
    assert qr.evaluate(z0 + 0.1 * (z0 - l)) < 0.0


def test_radicand_vanishes_linearly_at_the_edges(reference_osc):
    qr = quartic_roots(reference_osc)
    l, z0 = _z_space(reference_osc)
    width = z0 - l
    for delta in (1e-4 * width, 1e-6 * width):
        ratio_l = 2.0 * qr.evaluate(l + delta) / delta
        ratio_l2 = 2.0 * qr.evaluate(l + 0.5 * delta) / (0.5 * delta)
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
    # y0^2 >= 4*l0*(l0 + l) drops the root 2*l0 - z0 below -l: the
    # non-standard ordering, where k^2 < 0 and kc > 1.
    p = StringParams(l0=1.0, l=1.25, sigma=1.0, mass=1.0)
    return Oscillation(p, 3.1)


def test_nonstandard_ordering_detected():
    # The roots order as -l < 2*l0 - z0 < l < z0 only while z0 < 2*l0 + l.
    osc = _huge_amplitude_osc()
    l, z0 = _z_space(osc)
    assert not z0 < 2.0 * osc.params.l0 + l
    l, z0 = _z_space(Oscillation(osc.params, 0.5))
    assert z0 < 2.0 * osc.params.l0 + l


@pytest.mark.parametrize("cell, period", oracle.NONSTANDARD_PERIODS)
def test_nonstandard_ordering_matches_oracle(cell, period):
    l0, l, sigma, mass, y0 = cell
    est = period_elliptic(Oscillation(StringParams(l0, l, sigma, mass), y0))
    assert est.method is Method.ELLIPTIC
    assert abs(est.value - period) <= 1e-14 * period


ORACLE_CELLS = [
    ((1.0, 1.25, 1.0, 1.0, 0.5), oracle.P_REF),
    (oracle.ANHARMONIC_PARAMS, oracle.P_ANHARMONIC),
    *oracle.NONSTANDARD_PERIODS,
]


@pytest.mark.parametrize("rel_tol", [1e-13, 1e-10, 1e-6])
@pytest.mark.parametrize("cell, period", ORACLE_CELLS)
def test_error_estimate_covers_oracle(cell, period, rel_tol):
    # the closed form has one accuracy; rel_tol is the quadrature's, whose
    # estimate must cover the oracle beside it at every tolerance
    osc = Oscillation(StringParams(*cell[:4]), cell[4])
    for est in (period_elliptic(osc), exact_period(osc, rel_tol)):
        assert abs(est.value - period) <= est.err_estimate, est


@pytest.mark.parametrize(
    "cell, period", [*ORACLE_CELLS, (oracle.NEAR_L0_PARAMS, oracle.P_NEAR_L0)]
)
def test_period_within_four_ulps_of_oracle(cell, period):
    # the AGM runs to half an ulp, so only the rounding of the reduction
    # is left; a stop test of sqrt(1e-13) left 7 and 10 ulps here
    est = period_elliptic(Oscillation(StringParams(*cell[:4]), cell[4]))
    assert abs(est.value - period) <= 4.0 * math.ulp(period)


@pytest.mark.parametrize("y0", [1e160, 1e200, 1e300])
def test_huge_amplitude_limit(y0):
    # as y0 -> inf the period tends to pi*sqrt(2*m*l0/sigma)
    est = period_elliptic(Oscillation(StringParams(1.0, 1.25, 1.0, 1.0), y0))
    assert math.isfinite(est.value)
    assert abs(est.value - math.pi * math.sqrt(2.0)) <= est.err_estimate
