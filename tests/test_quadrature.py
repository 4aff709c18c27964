"""Singular period integral: stabilized integrand and adaptive quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import ssp.quadrature
from ssp import (
    ConvergenceFailure,
    InvalidParameters,
    Method,
    Oscillation,
    QuadratureConfig,
    StringParams,
    adaptive_gk,
    exact_period,
    radicand_g,
    rayleigh_period,
    speed,
)
from strategies import oscillations


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


def test_speed_reference_value(reference_osc):
    np.testing.assert_allclose(
        speed(reference_osc, 0.0), oracle.SPEED_AT_ZERO, rtol=1e-15
    )


def test_speed_vanishes_at_turning_points(reference_osc):
    assert speed(reference_osc, reference_osc.y0) == 0.0
    assert speed(reference_osc, -reference_osc.y0) == 0.0


def test_speed_even_and_domain_checked(reference_osc):
    assert speed(reference_osc, 0.3) == speed(reference_osc, -0.3)
    with pytest.raises(InvalidParameters):
        speed(reference_osc, 1.01 * reference_osc.y0)


def test_speed_consistent_with_energy(reference_osc):
    # v(y)^2/2 + Phi(y) = Phi(y0) with Phi the potential part of the energy.
    from ssp import energy

    p = reference_osc.params
    for y in (0.0, 0.2, 0.4):
        v = speed(reference_osc, y)
        np.testing.assert_allclose(
            energy(p, y, v), energy(p, reference_osc.y0, 0.0), rtol=1e-14
        )


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
    for y0 in (0.0, 1e-10 * reference_params.l):
        est = exact_period(Oscillation(reference_params, y0))
        assert est.value == rayleigh_period(reference_params)
        assert est.method is Method.QUADRATURE
        assert est.err_estimate == 0.0


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
    # Integrating the untransformed integrand up to c*y0 must increase with c
    # and stay below the substituted value by no more than the tail bound.
    osc = reference_osc
    y0 = osc.y0
    cfg = QuadratureConfig(rel_tol=1e-12)
    # The untransformed integrand spikes near the cutoff; a looser budget
    # keeps the refinement depth reasonable without affecting the bounds
    # being asserted (tail terms are >= 1e-4 of the total here).
    cfg_direct = QuadratureConfig(rel_tol=1e-9)

    def direct(y):
        return 1.0 / math.sqrt((y0 * y0 - y * y) * radicand_g(osc, y))

    full, _ = adaptive_gk(
        lambda th: 1.0 / math.sqrt(radicand_g(osc, y0 * math.sin(th))),
        0.0,
        0.5 * math.pi,
        cfg,
    )
    previous = 0.0
    for k in range(2, 7):
        c = 1.0 - 10.0**-k
        trunc, _ = adaptive_gk(direct, 0.0, c * y0, cfg_direct)
        tail_width = 0.5 * math.pi - math.asin(c)
        tail_bound = tail_width / math.sqrt(radicand_g(osc, c * y0))
        assert trunc > previous
        assert 0.0 < full - trunc <= tail_bound * (1.0 + 1e-9)
        previous = trunc


@pytest.mark.xfail(
    strict=True,
    reason="known defect: G7 and K15 agree by accident on the panel at theta = 0 "
    "([0, pi/4] for the first cell, [0, pi/8] for the second), so adaptive_gk "
    "accepts it with a 1e-11..1e-10 true error (root cause in CHANGES.md); "
    "the panel error estimate is to be fixed on its own",
)
@pytest.mark.parametrize("cell, period", oracle.QUADRATURE_DEFECT_CELLS)
def test_err_estimate_covers_actual_error_at_known_defects(cell, period):
    l0, l, sigma, mass, y0 = cell
    est = exact_period(Oscillation(StringParams(l0, l, sigma, mass), y0))
    assert est.err_estimate >= abs(est.value - period)


def test_integrand_work_count(monkeypatch, reference_params):
    # One GK15 panel costs 15 integrand evaluations. A small amplitude is
    # settled by the whole-interval panel alone and the reference cell
    # (y0/l = 0.4) by it and its two halves, so any extra pass over the
    # interval, such as a budget pre-pass, shows up here.
    calls = 0
    real = ssp.quadrature.radicand_g

    def counted(osc, y):
        nonlocal calls
        calls += 1
        return real(osc, y)

    monkeypatch.setattr(ssp.quadrature, "radicand_g", counted)

    def evaluations(rel_amp):
        nonlocal calls
        calls = 0
        exact_period(Oscillation(reference_params, rel_amp * reference_params.l))
        return calls

    assert evaluations(0.1) == 15
    assert evaluations(0.4) == 45
    assert evaluations(40.0) <= 195 + 15  # 195 today, plus one panel of slack


def test_adaptive_quadrature_exactness():
    cfg = QuadratureConfig(rel_tol=1e-14)
    val, err = adaptive_gk(math.sin, 0.0, math.pi, cfg)
    np.testing.assert_allclose(val, 2.0, rtol=1e-14)
    assert err < 1e-12


def test_refinement_budget_exhaustion(reference_osc):
    cfg = QuadratureConfig(rel_tol=1e-15, max_refinements=1)
    with pytest.raises(ConvergenceFailure):
        exact_period(reference_osc, cfg)


@pytest.mark.parametrize(
    "kwargs",
    [dict(rel_tol=0.0), dict(rel_tol=1.0), dict(rel_tol=-1e-3), dict(max_refinements=0)],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(InvalidParameters):
        QuadratureConfig(**kwargs)
