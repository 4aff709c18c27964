"""The force, the trajectory's energy, and the harmonic period."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from ssp import InvalidParameters, Oscillation, StringParams, rayleigh_period, simulate
from ssp.model import acceleration
from strategies import string_params

displacements = st.floats(-5.0, 5.0, allow_nan=False)


def _pull(tension, l, y):
    """-2*T*y/hypot(l, y) in 40 digits: the net transverse force of two
    halves at tension T, and the acceleration of a unit mass."""
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        return float(-2 * mpmath.mpf(tension) * y / mpmath.sqrt(mpmath.mpf(l) ** 2 + y * y))


def test_tension_reference_value(reference_params):
    # the force carries the tension of each half at y = 0.5
    want = _pull(oracle.TENSION_AT_HALF, reference_params.l, 0.5)
    np.testing.assert_allclose(acceleration(reference_params, 0.5), want, rtol=1e-15)


@pytest.mark.parametrize("cell, want", oracle.TENSION_NEAR_L0)
def test_tension_near_rest_length(cell, want):
    # hypot(l, y) - l0 cancels here, to 1e-4 relative at l = 1 + 1e-12; the
    # force takes about a dozen roundings, each within half an ulp of its
    # result, so it lies within 12 ulps of the 40-digit pull
    l0, l, sigma, y = cell
    got = acceleration(StringParams(l0, l, sigma, 1.0), y)
    pull = _pull(want, l, y)
    assert abs(got - pull) <= 12.0 * math.ulp(pull)


def test_vertical_force_reference_value(reference_params):
    # at mass 1 the acceleration is the vertical force
    assert acceleration(reference_params, 0.0) == 0.0
    np.testing.assert_allclose(
        acceleration(reference_params, 0.5), oracle.VFORCE_AT_HALF, rtol=1e-15
    )


@given(string_params(), displacements)
def test_vertical_force_odd_and_restoring(p, y):
    a = acceleration(p, y)
    assert a == -acceleration(p, -y)
    if y != 0.0:
        # Force always points back toward y = 0.
        assert (a < 0.0) == (y > 0.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
def test_force_where_the_stretch_product_underflows():
    # (l - l0)*(l + l0) is about 3e-400 and underflows, so the force reads
    # -0.27639; the 40-digit value is -1.105572809000084
    p = StringParams(1e-200, 2e-200, 1.0, 1.0)
    np.testing.assert_allclose(acceleration(p, 1e-200), -1.105572809000084, rtol=1e-14)


def test_acceleration_scales_inversely_with_mass(reference_params):
    heavy = StringParams(l0=1.0, l=1.25, sigma=1.0, mass=2.0)
    np.testing.assert_allclose(
        acceleration(heavy, 0.5), oracle.ACCEL_AT_HALF_M2, rtol=1e-15
    )
    np.testing.assert_allclose(
        acceleration(reference_params, 0.5), 2.0 * acceleration(heavy, 0.5), rtol=1e-15
    )


def test_small_displacement_force_matches_linear_stiffness(reference_params):
    # a(y) ~ -omega0^2 * y as y -> 0, omega0 = 2*pi/P_lin.
    y = 1e-8 * reference_params.l
    omega0 = 2.0 * math.pi / rayleigh_period(reference_params)
    np.testing.assert_allclose(
        acceleration(reference_params, y) / y, -omega0 * omega0, rtol=1e-6
    )


def _release_energy(p, y0):
    """The energy of a run's first sample, at rest at y0: the potential."""
    return simulate(Oscillation(p, y0)).e[0]


def test_energy_reference_value(reference_osc):
    # E = v^2/2 + (2*sigma/m)*(y^2/(2*l0) - hypot(l, y)) at (y0, 0)
    np.testing.assert_allclose(
        _release_energy(reference_osc.params, reference_osc.y0),
        oracle.ENERGY_AT_RELEASE,
        rtol=1e-15,
    )


@given(string_params(), st.floats(0.01, 3.0))
def test_energy_even_in_displacement(p, frac):
    # the default run's samples after its zero crossing are its earlier
    # ones at -y, so their energies read the same bits in reverse
    e = simulate(Oscillation(p, frac * p.l)).e
    assert np.array_equal(e, e[::-1])


def test_energy_gradient_is_minus_acceleration(reference_params):
    # the trajectory's energy is the potential of the model's force
    p = reference_params
    h = 1e-6 * p.l
    for y in (0.1, 0.5, 1.0, 2.0):
        dv = oracle.central_diff(lambda u: _release_energy(p, u), y, h)
        np.testing.assert_allclose(dv, -acceleration(p, y), rtol=1e-8)


@given(string_params())
def test_energy_gradient_is_minus_acceleration_everywhere(p):
    y = 0.37 * p.l
    h = 1e-6 * p.l
    dv = oracle.central_diff(lambda u: _release_energy(p, u), y, h)
    np.testing.assert_allclose(dv, -acceleration(p, y), rtol=1e-7)


def test_rayleigh_period_reference_value(reference_params):
    np.testing.assert_allclose(
        rayleigh_period(reference_params), oracle.RAYLEIGH_REF, rtol=1e-15
    )


def test_rayleigh_period_scales_with_inverse_sqrt_sigma():
    base = rayleigh_period(StringParams(l0=1.0, l=1.25, sigma=1.0, mass=1.0))
    quad = rayleigh_period(StringParams(l0=1.0, l=1.25, sigma=4.0, mass=1.0))
    np.testing.assert_allclose(quad, base / 2.0, rtol=1e-15)


@given(string_params())
def test_rayleigh_period_matches_plain_formula(p):
    np.testing.assert_allclose(
        rayleigh_period(p), oracle.rayleigh_plain(p.l0, p.l, p.sigma, p.mass), rtol=1e-14
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(l0=0.0, l=1.25, sigma=1.0, mass=1.0),
        dict(l0=1.0, l=1.0, sigma=1.0, mass=1.0),
        dict(l0=1.0, l=0.9, sigma=1.0, mass=1.0),
        dict(l0=1.0, l=1.25, sigma=0.0, mass=1.0),
        dict(l0=1.0, l=1.25, sigma=1.0, mass=-2.0),
        dict(l0=1.0, l=math.inf, sigma=1.0, mass=1.0),
        dict(l0=1.0, l=1.25, sigma=math.nan, mass=1.0),
        # the linear-limit period 2*pi*sqrt(m*l0*l/(2*sigma*(l - l0))) is
        # about 6e350: the final ldexp of every engine overflowed
        dict(l0=1e100, l=2e100, sigma=1e-300, mass=1e300),
        # the unit l0 underflows to 0: the linear period reads 0.0
        dict(l0=5e-324, l=1e10, sigma=1.0, mass=1.0),
        # the linear period reads 5e-324, but P_inf = pi*sqrt(2*m*l0/sigma),
        # the large-amplitude limit, is about 1.4e-324: both closed forms
        # gave 5e-324 with err_estimate 0.0 at y0 = 1e-172 and failed from 1e-171
        dict(l0=1e-172, l=1.1e-172, sigma=1e177, mass=1e-300),
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(InvalidParameters):
        StringParams(**kwargs)


@pytest.mark.parametrize(
    "l0, l",
    [
        # l/l0 = 2e333: the unit l0 is 0
        (5e-324, 1e10),
        # the unit l0 is 2**-1024, subnormal
        (1.0, 1.7e308),
    ],
)
def test_length_ratio_beyond_the_float_range_refused(l0, l):
    with pytest.raises(InvalidParameters, match="l/l0"):
        StringParams(l0, l, 1.0, 1.0)


def test_length_ratio_inside_the_float_range_accepted():
    # the unit l0 is 2**-996, normal; the linear period is 2*pi*sqrt(1/2)
    p = StringParams(1.0, 1e300, 1.0, 1.0)
    assert rayleigh_period(p) == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-15)


def test_amplitude_ratio_beyond_the_float_range_refused():
    # y0/l = 1e310: the unit amplitude overflows
    with pytest.raises(InvalidParameters, match="y0/l"):
        Oscillation(StringParams(1e-301, 1e-300, 1.0, 1.0), 1e10)


def test_negative_amplitude_folded(reference_params):
    assert Oscillation(reference_params, -0.5).y0 == 0.5
    with pytest.raises(InvalidParameters):
        Oscillation(reference_params, math.nan)
