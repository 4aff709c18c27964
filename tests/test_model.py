"""Statics, forces, energy, and the harmonic approximation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from ssp import InvalidParameters, Oscillation, StringParams, rayleigh_period
from ssp.model import acceleration, energy, rayleigh_solution, tension, vertical_force
from strategies import string_params

displacements = st.floats(-5.0, 5.0, allow_nan=False)


def test_rest_tension_value(reference_params):
    assert reference_params.rest_tension == 0.25
    assert tension(reference_params, 0.0) == reference_params.rest_tension


def test_tension_reference_value(reference_params):
    np.testing.assert_allclose(
        tension(reference_params, 0.5), oracle.TENSION_AT_HALF, rtol=1e-15
    )


@pytest.mark.parametrize("cell, want", oracle.TENSION_NEAR_L0)
def test_tension_near_rest_length(cell, want):
    # hypot(l, y) - l0 cancels here, to 1e-4 relative at l = 1 + 1e-12
    l0, l, sigma, y = cell
    got = tension(StringParams(l0, l, sigma, 1.0), y)
    assert abs(got - want) <= 2.0 * math.ulp(want)


@given(string_params(), displacements)
def test_tension_even(p, y):
    assert tension(p, y) == tension(p, -y)


@given(string_params(), displacements)
def test_tension_at_least_rest_value(p, y):
    assert tension(p, y) >= p.rest_tension


def test_vertical_force_reference_value(reference_params):
    assert vertical_force(reference_params, 0.0) == 0.0
    np.testing.assert_allclose(
        vertical_force(reference_params, 0.5), oracle.VFORCE_AT_HALF, rtol=1e-15
    )


@given(string_params(), displacements)
def test_vertical_force_odd_and_restoring(p, y):
    f = vertical_force(p, y)
    assert f == -vertical_force(p, -y)
    if y != 0.0:
        # Force always points back toward y = 0.
        assert (f < 0.0) == (y > 0.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
def test_force_where_the_stretch_product_underflows():
    # (l - l0)*(l + l0) is about 3e-400 and underflows, so both read
    # -0.27639; the 40-digit value is -1.105572809000084
    p = StringParams(1e-200, 2e-200, 1.0, 1.0)
    for kernel in (vertical_force, acceleration):
        np.testing.assert_allclose(kernel(p, 1e-200), -1.105572809000084, rtol=1e-14)


def test_acceleration_scales_inversely_with_mass(reference_params):
    heavy = StringParams(l0=1.0, l=1.25, sigma=1.0, mass=2.0)
    np.testing.assert_allclose(
        acceleration(heavy, 0.5), oracle.ACCEL_AT_HALF_M2, rtol=1e-15
    )
    np.testing.assert_allclose(
        acceleration(reference_params, 0.5), 2.0 * acceleration(heavy, 0.5), rtol=1e-15
    )


def test_small_displacement_force_matches_linear_stiffness(reference_params):
    # a(y) ~ -omega0^2 * y as y -> 0.
    y = 1e-8 * reference_params.l
    np.testing.assert_allclose(
        acceleration(reference_params, y) / y,
        -reference_params.linear_stiffness,
        rtol=1e-6,
    )


def test_energy_reference_value(reference_params):
    assert energy(reference_params, 0.0, 0.0) == oracle.ENERGY_AT_REST


@given(string_params(), displacements, st.floats(-3.0, 3.0))
def test_energy_even_in_displacement(p, y, v):
    assert energy(p, y, v) == energy(p, -y, v)


def test_energy_gradient_is_minus_acceleration(reference_params):
    p = reference_params
    h = 1e-6 * p.l
    for y in (0.1, 0.5, 1.0, 2.0):
        dv = oracle.central_diff(lambda u: energy(p, u, 0.0), y, h)
        np.testing.assert_allclose(dv, -acceleration(p, y), rtol=1e-8)


@given(string_params())
def test_energy_gradient_is_minus_acceleration_everywhere(p):
    y = 0.37 * p.l
    h = 1e-6 * p.l
    dv = oracle.central_diff(lambda u: energy(p, u, 0.0), y, h)
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


def test_rayleigh_solution_waypoints(reference_params):
    p = reference_params
    y0 = 0.5
    period = rayleigh_period(p)
    assert rayleigh_solution(p, y0, 0.0) == y0
    np.testing.assert_allclose(rayleigh_solution(p, y0, 0.5 * period), -y0, rtol=1e-12)
    assert abs(rayleigh_solution(p, y0, 0.25 * period)) < 1e-12 * y0


@pytest.mark.parametrize("sigma, mass", [(1e300, 1e-300), (1e-300, 1e300)])
def test_rayleigh_solution_at_extreme_sigma_over_mass(sigma, mass):
    # omega0**2 = 2T/(m*l) overflows in the first cell and underflows in
    # the second, while the period is a finite float in both
    p = StringParams(1.0, 1.25, sigma, mass)
    y0 = 0.5
    period = rayleigh_period(p)
    assert rayleigh_solution(p, y0, 0.0) == y0
    assert abs(rayleigh_solution(p, y0, 0.25 * period)) < 1e-15 * y0
    for t in (0.5 * period, 3.5 * period):
        np.testing.assert_allclose(rayleigh_solution(p, y0, t), -y0, rtol=1e-15)


def test_rayleigh_solution_refuses_a_phase_beyond_the_float_range():
    p = StringParams(1.0, 1.25, 1e300, 1e-300)  # period about 1e-299
    with pytest.raises(InvalidParameters, match="t/P"):
        rayleigh_solution(p, 0.5, 1e300)


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
