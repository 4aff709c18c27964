"""Singular period integral: stabilized integrand and the trapezoid ladder."""

import math
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import ssp.quadrature
from ssp import (
    EngineFailure,
    InvalidParameters,
    Method,
    Oscillation,
    StringParams,
    check_sandwich,
    compute_bounds,
    exact_period,
    period_elliptic,
    rayleigh_period,
    simulate,
)
from ssp.quadrature import radicand_g
from strategies import oscillations, string_params


def test_radicand_reference_value(reference_osc):
    np.testing.assert_allclose(
        radicand_g(reference_osc, 0.0), oracle.G_AT_ZERO, rtol=1e-15
    )


def test_radicand_zero_amplitude_limit(reference_params):
    # As y0 -> 0 the factor at y = 0 tends to 1/l0 - 1/l.
    osc = Oscillation(reference_params, 1e-8)
    expected = 1.0 / reference_params.l0 - 1.0 / reference_params.l
    np.testing.assert_allclose(radicand_g(osc, 0.0), expected, rtol=1e-8)


def test_radicand_survives_tiny_rest_elongation():
    # Near-unstretched string: the textbook form loses most digits here.
    p = StringParams(l0=1.0, l=1.0 + 1e-12, sigma=1.0, mass=1.0)
    osc = Oscillation(p, 1e-9)
    expected = (p.l - p.l0) / (p.l0 * p.l)  # y = y0 = 0 limit
    np.testing.assert_allclose(radicand_g(osc, 0.0), expected, rtol=1e-4)
    assert radicand_g(osc, 0.0) > 0.0


@given(oscillations(), st.floats(0.0, 1.0))
def test_radicand_positive_and_monotone(osc, frac):
    y = frac * osc.y0
    g_here = radicand_g(osc, y)
    g_end = radicand_g(osc, osc.y0)
    assert g_here > 0.0
    assert g_here <= g_end * (1.0 + 1e-15)


def test_radicand_matches_plain_form(reference_osc):
    p = reference_osc.params
    for y in (0.0, 0.1, 0.3, 0.5):
        np.testing.assert_allclose(
            radicand_g(reference_osc, y),
            oracle.g_plain(p.l0, p.l, y, reference_osc.y0),
            rtol=1e-13,
        )


def test_speed_consistent_with_energy(reference_osc):
    # v(y)^2 = (2*sigma/m)*(y0^2 - y^2)*g(y) on the ODE engine's own samples,
    # which conserve the energy to within the step tolerance (3.5e-14 of
    # y0^2 off at most here)
    p, y0 = reference_osc.params, reference_osc.y0
    traj = simulate(reference_osc)
    for y, v in zip(traj.y, traj.v):
        speed_sq = 2.0 * p.sigma / p.mass * (y0 - y) * (y0 + y) * radicand_g(reference_osc, y)
        np.testing.assert_allclose(v * v, speed_sq, rtol=1e-10, atol=1e-12 * y0 * y0)


def test_period_reference_value(reference_osc):
    est = exact_period(reference_osc)
    assert est.method is Method.QUADRATURE
    np.testing.assert_allclose(est.value, oracle.P_REF, rtol=1e-13)
    assert oracle.LOWER_CORR_REF < est.value < oracle.UPPER_REF


def test_period_matches_independent_simpson():
    cells = [
        (1.0, 1.25, 1.0, 1.0, 0.5),
        oracle.ANHARMONIC_PARAMS,
        (0.7, 2.8, 0.3, 1.6, 1.9),
        (1.5, 1.65, 12.0, 0.4, 0.08),
        (2.0, 8.0, 0.05, 2.0, 10.0),
    ]
    for l0, l, sigma, mass, y0 in cells:
        est = exact_period(Oscillation(StringParams(l0, l, sigma, mass), y0))
        ref = oracle.period_simpson(l0, l, sigma, mass, y0)
        np.testing.assert_allclose(est.value, ref, rtol=1e-11)


def test_period_anharmonic_reference_value():
    l0, l, sigma, mass, y0 = oracle.ANHARMONIC_PARAMS
    est = exact_period(Oscillation(StringParams(l0, l, sigma, mass), y0))
    np.testing.assert_allclose(est.value, oracle.P_ANHARMONIC, rtol=1e-12)


def test_period_decreases_with_amplitude(reference_params):
    periods = [
        exact_period(Oscillation(reference_params, a * reference_params.l)).value
        for a in np.linspace(0.1, 1.0, 10)
    ]
    assert all(b < a for a, b in zip(periods, periods[1:]))
    harmonic = rayleigh_period(reference_params)
    assert all(p < harmonic for p in periods)


def test_degenerate_amplitude_falls_back_to_harmonic(reference_params):
    # The ladder itself reaches the harmonic limit, with an honest estimate.
    harmonic = rayleigh_period(reference_params)
    for y0 in (0.0, 1e-10 * reference_params.l):
        est = exact_period(Oscillation(reference_params, y0))
        assert est.method is Method.QUADRATURE
        assert 0.0 < est.err_estimate
        assert abs(est.value - harmonic) <= est.err_estimate


def test_tiny_amplitude_approaches_harmonic(reference_params):
    osc = Oscillation(reference_params, 1e-8 * reference_params.l)
    est = exact_period(osc)
    np.testing.assert_allclose(est.value, rayleigh_period(reference_params), rtol=1e-12)


@settings(max_examples=25)
@given(oscillations(rel_amp_hi=2.0), st.floats(math.log(0.1), math.log(10.0)).map(math.exp))
def test_period_invariant_under_joint_rescaling(osc, c):
    p = osc.params
    scaled = StringParams(l0=p.l0, l=p.l, sigma=c * p.sigma, mass=c * p.mass)
    a = exact_period(osc)
    b = exact_period(Oscillation(scaled, osc.y0))
    np.testing.assert_allclose(b.value, a.value, rtol=1e-12)
    assert a.value > 0.0 and a.err_estimate >= 0.0


def test_simpson_panel_doubling_order():
    # The substituted integrand is smooth; composite Simpson must show at
    # least its nominal fourth order between successive doublings.
    l0, l, sigma, mass, y0 = oracle.ANHARMONIC_PARAMS
    ref = oracle.period_simpson(l0, l, sigma, mass, y0, panels=8192)
    errs = [
        abs(oracle.period_simpson_raw(l0, l, sigma, mass, y0, n) - ref) for n in (4, 8, 16)
    ]
    assert all(e > 0 for e in errs)
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 4.0


def test_truncated_singular_form_converges_from_below(reference_osc):
    # Integrating the untransformed integrand up to c*y0 (40-digit mpmath)
    # must increase with c and stay below the ladder's value by no more than
    # the tail bound (tail terms are >= 1e-4 of the total here).
    osc = reference_osc
    y0 = mpmath.mpf(osc.y0)
    p = osc.params
    full = exact_period(osc).value / (4.0 * math.sqrt(p.mass / (2.0 * p.sigma)))

    def direct(y):
        l0, l = mpmath.mpf(p.l0), mpmath.mpf(p.l)
        g = 1 / l0 - 2 / (mpmath.sqrt(l * l + y * y) + mpmath.sqrt(l * l + y0 * y0))
        return 1 / mpmath.sqrt((y0 * y0 - y * y) * g)

    previous = 0.0
    with mpmath.workdps(40):
        for k in range(2, 7):
            c = 1.0 - 10.0**-k
            trunc = float(mpmath.quad(direct, [0, c * y0]))
            tail_width = 0.5 * math.pi - math.asin(c)
            tail_bound = tail_width / math.sqrt(radicand_g(osc, c * osc.y0))
            assert trunc > previous
            assert 0.0 < full - trunc <= tail_bound * (1.0 + 1e-9)
            previous = trunc


@pytest.mark.parametrize("cell, period", oracle.QUADRATURE_DEFECT_CELLS)
def test_err_estimate_covers_actual_error_at_known_defects(cell, period):
    l0, l, sigma, mass, y0 = cell
    est = exact_period(Oscillation(StringParams(l0, l, sigma, mass), y0))
    assert est.err_estimate >= abs(est.value - period)


def test_err_estimate_is_honest_on_oracle_cells():
    # Every 40-digit oracle period: the estimate covers the actual error and
    # still meets the requested tolerance.
    cells = [((1.0, 1.25, 1.0, 1.0, 0.5), oracle.P_REF)]
    cells += [(oracle.ANHARMONIC_PARAMS, oracle.P_ANHARMONIC)]
    cells += oracle.NONSTANDARD_PERIODS
    for (l0, l, sigma, mass, y0), period in cells:
        est = exact_period(Oscillation(StringParams(l0, l, sigma, mass), y0))
        assert abs(est.value - period) <= est.err_estimate <= 1e-12 * est.value


def test_oracle_holds_at_a_tiny_period():
    # oracle.period_mp integrated 1/sqrt(g), about 1.5e-154 here, and
    # mpmath.quad's absolute stop test ended 3.7e-14 above the period, above
    # the linear bound; normalized by g(0), the oracle meets the 60-digit
    # value and the quadrature within its estimate
    cell = oracle.TINY_PERIOD_PARAMS
    est = exact_period(Oscillation(StringParams(*cell[:4]), cell[4]))
    ref = oracle.period_mp(*cell)
    assert ref == oracle.P_TINY
    assert abs(est.value - ref) <= est.err_estimate


def test_dense_amplitude_scan_matches_elliptic():
    # 2100 log-spaced amplitudes over ten decades and three stretches.
    for stretch in (1.01, 1.25, 4.0):
        p = StringParams(l0=1.0, l=stretch, sigma=1.0, mass=1.0)
        for rel_amp in np.geomspace(1e-4, 1e6, 700):
            osc = Oscillation(p, float(rel_amp) * p.l)
            quad = exact_period(osc).value
            ell = period_elliptic(osc).value
            assert abs(quad - ell) <= 1e-13 * ell, (stretch, rel_amp, quad, ell)


def _counting_ladder(monkeypatch, wrap=lambda f, *node: f(*node)):
    """Route exact_period's integrand through wrap, counting its calls."""
    real = ssp.quadrature.trapezoid_ladder
    calls = [0]

    def ladder(f, rel_tol):
        def counted(*node):
            calls[0] += 1
            return wrap(f, *node)

        return real(counted, rel_tol)

    monkeypatch.setattr(ssp.quadrature, "trapezoid_ladder", ladder)
    return calls


def test_integrand_work_count(monkeypatch, reference_params):
    # The ladder evaluates 2**k + 1 nodes and needs two small successive level
    # differences: y0/l = 0.1 and the reference cell (0.4) stop at 8
    # intervals, y0/l = 40 at 16. Any extra pass over the interval shows up
    # here.
    calls = _counting_ladder(monkeypatch)

    def evaluations(rel_amp):
        calls[0] = 0
        exact_period(Oscillation(reference_params, rel_amp * reference_params.l))
        return calls[0]

    assert evaluations(0.1) == 9
    assert evaluations(0.4) == 9
    assert evaluations(40.0) == 17


def _q(u):
    return u / -math.expm1(-2.0 * u) if u > 0.0 else 0.5


def _radicand_integrand(osc):
    """The integrand as composed from radicand_g on the unit-scaled lengths
    that exact_period runs on, node by node, at most at the amplitude cap."""
    p = osc.params
    osc = Oscillation(p, min(osc.y0, ssp.model._Y0_CAP * p.l))
    # the same string on its unit values, which radicand_g does not rescale
    unit = Oscillation(
        StringParams(p._unit_l0, p._unit_l, p._unit_sigma, p._unit_mass), osc._unit_y0
    )
    big_s = math.asinh(osc._unit_y0 / p._unit_l)

    def integrand(sin_psi, sin2_a):
        s = big_s * sin_psi
        x = 2.0 * big_s * sin2_a
        q2 = _q(x) * _q(big_s + s)
        g = radicand_g(unit, p._unit_l * math.sinh(s))
        return (1.0 + math.exp(-2.0 * s)) * math.exp(-x) * math.sqrt(q2 / g)

    return integrand


_edge_amplitudes = string_params().flatmap(
    lambda p: st.sampled_from([0.0, 1e-300, 1e300]).map(lambda y0: Oscillation(p, y0))
)


@given(st.one_of(oscillations(rel_amp_hi=100.0), _edge_amplitudes))
def test_integrand_matches_the_radicand_form(osc):
    # exact_period's integrand is the form composed from radicand_g with
    # z + z0 cancelled and the constant sqrt(2*l0/l) moved to the prefactor:
    # every node agrees to rounding, and the two periods lie within their
    # summed estimates
    p, real, handed = osc.params, ssp.quadrature.trapezoid_ladder, []
    hoisted = math.sqrt(2.0 * p._unit_l0 / p._unit_l)
    composed = _radicand_integrand(osc)

    def on_composed(f, rel_tol):
        handed.append(f)
        return real(lambda *node: composed(*node) / hoisted, rel_tol)

    new = exact_period(osc)
    with mock.patch.object(ssp.quadrature, "trapezoid_ladder", on_composed):
        old = exact_period(osc)
    assert abs(new.value - old.value) <= new.err_estimate + old.err_estimate
    for level in ssp.quadrature._NODES:
        for node in level:
            assert hoisted * handed[0](*node) == pytest.approx(composed(*node), rel=1e-13), node


@pytest.mark.parametrize("y0", [1e10, 1e18])
def test_period_where_l_over_l0_is_huge(y0):
    # 2*l0/l = 2e-300: inside the node's sqrt its product with r(v)*r(w)
    # underflowed, and the period read 0.0 or the ladder failed
    osc = Oscillation(StringParams(1e-300, 1.0, 1.0, 1.0), y0)
    quad, ell = exact_period(osc), period_elliptic(osc)
    assert abs(quad.value - ell.value) <= quad.err_estimate + ell.err_estimate


def test_one_accidental_agreement_cannot_stop_the_ladder():
    # f = sum a_k*cos(2k*psi) gives T_N = (pi/2)*(a_0 + the a_k with k a
    # multiple of 2N). With a_12 = -a_4, T_4 equals T_2 by accident while
    # still missing the integral pi/2 by a_8 = 1e-7.
    coeffs = np.zeros(13)
    coeffs[[0, 2, 4, 8, 12]] = 1.0, 1.0, 1e-3, 1e-7, -1e-3

    def f(sin_psi, sin2_a):
        return float(np.polynomial.chebyshev.chebval(1.0 - 2.0 * sin_psi**2, coeffs))

    value, err = ssp.quadrature.trapezoid_ladder(f, 1e-12)
    assert abs(value - 0.5 * math.pi) <= err <= 1e-12 * value


def test_adaptive_quadrature_exactness():
    # As y0/l -> oo, g -> 1/l0 uniformly and the period tends to
    # pi*sqrt(2*m*l0/sigma); at y0/l >= 1e20 the difference is below 1e-19.
    p = StringParams(l0=1.0, l=1.25, sigma=3.0, mass=2.0)
    limit = math.pi * math.sqrt(2.0 * p.mass * p.l0 / p.sigma)
    # from y0 = 9e307 the sums z + z0 in g overflowed; g now takes y0 at most
    # at 2**60*l
    for y0 in (1e20 * p.l, 1e100 * p.l, 1e160 * p.l, 1e300 * p.l, 1e308, sys.float_info.max):
        est = exact_period(Oscillation(p, y0))
        assert math.isfinite(est.value) and math.isfinite(est.err_estimate)
        np.testing.assert_allclose(est.value, limit, rtol=1e-12)
        assert abs(est.value - limit) <= est.err_estimate <= 1e-12 * est.value


def test_period_survives_extreme_sigma_over_mass():
    # sigma/m = 1e600 overflows and 1e-600 underflows. exact_period forms its
    # prefactor as sqrt(m)/sqrt(sigma); the elliptic prefactor and the bounds
    # scale sigma and mass each by a power of four first.
    for sigma, mass in ((1e300, 1e-300), (1e-300, 1e300)):
        osc = Oscillation(StringParams(l0=1.0, l=1.25, sigma=sigma, mass=mass), 0.5)
        exact = exact_period(osc)
        np.testing.assert_allclose(exact.value, oracle.P_REF * mass, rtol=1e-12)
        bounds = compute_bounds(osc)
        assert bounds.lower_corrected < exact.value < bounds.upper
        assert check_sandwich(osc, exact).passed
        np.testing.assert_allclose(period_elliptic(osc).value, exact.value, rtol=1e-12)


@pytest.mark.parametrize(
    "cell",
    [
        (1.0, 1e200, 1.0, 1.0, 1e200),
        (5.905019720959389e148, 4.954278131056503e154, 0.6179010992366014,
         0.5487463547420953, 3.119604692433344e151),
        # l0*y0/2 passes DBL_MAX: on raw lengths g's denominator overflowed
        (1e150, 2e150, 1.0, 1.0, 1e160),
        (1.0, 1e300, 1.0, 1.0, 1.0),
    ],
)
def test_cells_past_the_quarter_gap_overflow_answer(cell):
    # on raw lengths (l/2 - l0/2)*(l/2 + l0/2) overflowed from l ~ 2.7e154,
    # or g read 0, and exact_period raised EngineFailure; on the
    # unit-scaled lengths both closed forms answer inside their bounds, and
    # differ by at most the sum of their error estimates
    osc = Oscillation(StringParams(*cell[:4]), cell[4])
    quad, ell = exact_period(osc), period_elliptic(osc)
    for est in (quad, ell):
        assert 0.0 < est.value < math.inf
        assert check_sandwich(osc, est).passed
    assert abs(quad.value - ell.value) <= quad.err_estimate + ell.err_estimate


def test_g_at_huge_lengths_is_not_a_silent_zero():
    # l0*(hz + hz0) overflowed on raw lengths and g read 0.0; the true
    # g(0) is about 1e-150
    l0, l, y0 = 1e150, 2e150, 1e160
    osc = Oscillation(StringParams(l0, l, 1.0, 1.0), y0)
    g0 = 1.0 / l0 - 2.0 / (l + math.hypot(l, y0))
    g = radicand_g(osc, 0.0)
    assert 0.0 < g < math.inf
    np.testing.assert_allclose(g, g0, rtol=1e-12)


def test_g_where_l0_times_y0_passes_dbl_max():
    # l0*(hz + hz0) overflowed once l0*y0/2 passed DBL_MAX, and g read 0;
    # y and y0 are taken at most at 2**60*l. g = 1/l0 - 2/(z + z0) is 1/l0
    # to rounding
    osc = Oscillation(StringParams(1.5, 1.9, 1.0, 1.0), 1.7e308)
    assert radicand_g(osc, 0.9 * osc.y0) == pytest.approx(1.0 / 1.5, rel=1e-15)


def test_g_where_y_over_l_leaves_the_float_range():
    # y/l = 1e310 has no unit length; g is 1/l0 - 2/(z + z0) with z ~ 1e10
    osc = Oscillation(StringParams(1e-301, 1e-300, 1.0, 1.0), 1e-300)
    assert radicand_g(osc, 1e10) == pytest.approx(1e301, rel=1e-15)


def test_g_beyond_the_float_range_reads_inf():
    # g(0) is about 1/l0 = 1e310; the final scaling raised OverflowError
    osc = Oscillation(StringParams(1e-310, 1e-307, 1.0, 1.0), 1e-307)
    assert radicand_g(osc, 0.0) == math.inf


@pytest.mark.parametrize("sigma, mass", [(1e308, 1e-10), (sys.float_info.max, 1.0)])
def test_period_where_twice_sigma_overflows(sigma, mass):
    # 2*sigma overflows while sigma/m is a float: the prefactor is formed
    # on the unit scale, so the period reads neither 0 nor inf
    osc = Oscillation(StringParams(l0=1.0, l=1.25, sigma=sigma, mass=mass), 0.5)
    exact = exact_period(osc)
    assert abs(exact.value - period_elliptic(osc).value) <= exact.err_estimate
    ratio = math.sqrt(sigma) / math.sqrt(mass)
    np.testing.assert_allclose(exact.value, oracle.P_REF / ratio, rtol=1e-12)


@pytest.mark.parametrize(
    "l0, l, y0",
    [
        # y0/l overflows: asinh(inf) gave NaN nodes and EngineFailure
        (0.25, 0.5, 1e308),
        (0.25, 0.5, 1.7e308),
        # y0/l = 1.4e308 stays a float; it answered before too
        (0.3, 0.7, 1e308),
        # the end node's y rounded above y0 and y/2 + y0/2 overflowed
        (0.25, 0.5, sys.float_info.max),
        (0.2040488592069382, 1.096930799211095, sys.float_info.max),
    ],
)
def test_period_where_y0_over_l_leaves_the_float_range(l0, l, y0):
    # P -> P_inf*(1 + 2*l0/(pi*y0)), P_inf = pi*sqrt(2*m*l0/sigma), as y0/l
    # grows; the correction is far below an ulp here
    est = exact_period(Oscillation(StringParams(l0, l, 1.0, 1.0), y0))
    limit = math.pi * math.sqrt(2.0 * l0) * (1.0 + 2.0 * l0 / (math.pi * y0))
    assert abs(est.value - limit) <= est.err_estimate


def test_refinement_budget_exhaustion(monkeypatch, reference_osc):
    # An integrand whose trapezoid sums never settle runs the whole ladder,
    # 2**9 + 1 nodes, and then fails cleanly.
    def rough(f, sin_psi, sin2_a):
        return f(sin_psi, sin2_a) * (2.0 + math.sin(1e6 * sin_psi))

    calls = _counting_ladder(monkeypatch, rough)
    with pytest.raises(EngineFailure, match="^trapezoid ladder did not converge at 512 intervals"):
        exact_period(reference_osc)
    assert calls[0] == 2**9 + 1


def test_overflowing_scale_back_is_a_clean_error(monkeypatch):
    # a unit period near DBL_MAX times 2**_period_exp = 2**10 leaves the
    # float range; the scale-back saturates to inf, which the engine refuses
    # (math.ldexp raised a raw OverflowError there)
    p = StringParams(1.0, 1.25, 1.0, 2.0**20)
    assert p._period_exp == 10
    monkeypatch.setattr(ssp.quadrature, "trapezoid_ladder", lambda f, rel_tol: (1e307, 0.0))
    with pytest.raises(EngineFailure, match=r"^quadrature left the float range at .*: inf$"):
        exact_period(Oscillation(p, 0.5))


@pytest.mark.parametrize(
    "kwargs",
    [dict(rel_tol=0.0), dict(rel_tol=1.0), dict(rel_tol=-1e-3)],
)
def test_invalid_config_rejected(reference_osc, kwargs):
    with pytest.raises(InvalidParameters):
        exact_period(reference_osc, **kwargs)
