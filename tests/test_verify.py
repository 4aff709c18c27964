"""Randomized invariant suite: structure, determinism, and outcomes."""

import math

import pytest

import ssp.verify
from ssp import InvalidParameters, Method, PeriodEstimate, exact_period, run_invariant_suite
from ssp.bounds import check_sandwich, compute_bounds
from ssp.cli import main
from ssp.elliptic import QuarticRoots, period_elliptic, quartic_roots


def test_default_suite_passes():
    report = run_invariant_suite(samples=200, seed=0)
    assert report.passed
    assert report.seed == 0
    assert report.samples == 200
    names = [c.name for c in report.checks]
    assert "period-inside-bounds" in names
    assert "quadrature-vs-elliptic" in names
    assert "quartic-roots" in names
    for check in report.checks:
        assert check.failures == 0
        assert check.ok
        assert check.worst >= 0.0
        assert type(check.worst) is float


def test_suite_is_deterministic_per_seed():
    a = run_invariant_suite(samples=50, seed=11)
    b = run_invariant_suite(samples=50, seed=11)
    assert [(c.name, c.failures, c.worst) for c in a.checks] == [
        (c.name, c.failures, c.worst) for c in b.checks
    ]
    c = run_invariant_suite(samples=50, seed=12)
    assert [x.worst for x in a.checks] != [x.worst for x in c.checks]


def test_cross_method_margin_is_wide():
    report = run_invariant_suite(samples=100, seed=5)
    cross = next(c for c in report.checks if c.name == "quadrature-vs-elliptic")
    # Dual-route agreement runs about six orders inside its tolerance.
    assert cross.worst < 1e-3 * cross.tolerance


def test_cross_method_tolerance_follows_tol(capsys):
    # the quadrature is accurate to --tol, so the engines need only agree
    # to that; a 1e-9 tolerance read 3 false failures here
    report = run_invariant_suite(samples=200, seed=0, rel_tol=1e-3)
    cross = next(c for c in report.checks if c.name == "quadrature-vs-elliptic")
    assert cross.tolerance == 1e-3
    assert report.passed
    assert main(["verify", "--samples", "200", "--tol", "1e-3"]) == 0
    assert "all invariants hold" in capsys.readouterr().out


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-3])
def test_cross_method_check_catches_a_nudged_period(monkeypatch, capsys, rel_tol):
    # an elliptic period off by 10 times the check's tolerance fails on
    # every draw, at the default --tol and at the loosest one
    tol = max(ssp.verify.CROSS_METHOD_TOL, rel_tol)

    def nudged(osc):
        est = period_elliptic(osc)
        return est._replace(value=est.value * (1.0 + 10.0 * tol))

    monkeypatch.setattr(ssp.verify, "period_elliptic", nudged)
    report = run_invariant_suite(samples=20, seed=0, rel_tol=rel_tol)
    cross = next(c for c in report.checks if c.name == "quadrature-vs-elliptic")
    assert cross.tolerance == tol
    assert cross.failures == cross.samples == 20
    assert main(["verify", "--samples", "20", "--tol", repr(rel_tol)]) == 3


def test_each_draw_is_integrated_once(monkeypatch):
    # the scaling check reuses the sandwich check's periods of its 50 draws,
    # and integrates only its two rescaled strings
    calls = []

    def counted(osc, rel_tol):
        calls.append(osc)
        return exact_period(osc, rel_tol)

    monkeypatch.setattr(ssp.verify, "exact_period", counted)
    run_invariant_suite(samples=200, seed=0)
    assert len(calls) == 200 + 2 * 50
    assert len(set(calls)) == len(calls)


def test_negative_seed_is_refused():
    # Random(-7) seeds Random(7)'s stream, which would run under seed=-7
    with pytest.raises(InvalidParameters, match=r"^seed must be >= 0, got -7$"):
        run_invariant_suite(samples=30, seed=-7)


def test_nan_deviation_fails(monkeypatch, capsys):
    # a NaN deviation is no agreement: it fails and shows as the worst
    nan = PeriodEstimate(math.nan, Method.ELLIPTIC, 0.0)
    monkeypatch.setattr(ssp.verify, "period_elliptic", lambda osc: nan)
    report = run_invariant_suite(samples=20, seed=0)
    cross = next(c for c in report.checks if c.name == "quadrature-vs-elliptic")
    assert cross.failures == 20
    assert math.isnan(cross.worst)
    assert not report.passed
    assert main(["verify", "--samples", "20"]) == 3
    assert "quadrature-vs-elliptic   samples=20    failures=20   worst=nan" in capsys.readouterr().out


def test_sandwich_check_catches_a_period_below_the_lower_bound(monkeypatch, capsys):
    # a quadrature period 1e-6 below the corrected lower bound fails on every
    # draw, and worst is the largest violation its SandwichReports state
    reports = []

    def below(osc, rel_tol):
        est = exact_period(osc, rel_tol)
        return est._replace(value=compute_bounds(osc).lower_corrected * (1.0 - 1e-6))

    def recorded(osc, est):
        reports.append(check_sandwich(osc, est))
        return reports[-1]

    monkeypatch.setattr(ssp.verify, "exact_period", below)
    monkeypatch.setattr(ssp.verify, "check_sandwich", recorded)
    report = run_invariant_suite(samples=20, seed=0)
    sandwich = next(c for c in report.checks if c.name == "period-inside-bounds")
    assert sandwich.failures == sandwich.samples == len(reports) == 20
    assert sandwich.worst == max(r.violation for r in reports) > 0.0
    assert not report.passed
    assert main(["verify", "--samples", "20"]) == 3
    assert "period-inside-bounds     samples=20    failures=20" in capsys.readouterr().out


def test_nan_period_fails_the_sandwich_with_worst_nan(monkeypatch):
    nan = PeriodEstimate(math.nan, Method.QUADRATURE, 0.0)
    monkeypatch.setattr(ssp.verify, "exact_period", lambda osc, rel_tol: nan)
    report = run_invariant_suite(samples=5, seed=0)
    sandwich = next(c for c in report.checks if c.name == "period-inside-bounds")
    assert sandwich.failures == 5
    assert math.isnan(sandwich.worst)


def test_sample_count_validation():
    with pytest.raises(InvalidParameters):
        run_invariant_suite(samples=0)
    with pytest.raises(InvalidParameters):
        run_invariant_suite(samples=-5)


def test_quartic_check_catches_a_perturbed_root(monkeypatch):
    # 1e-10 of the largest root is at least 5e-11 of the spread: every draw fails
    def nudged(osc):
        r = quartic_roots(osc)
        return QuarticRoots((*r.roots[:3], r.roots[3] * (1.0 + 1e-10)), r.leading)

    monkeypatch.setattr(ssp.verify, "quartic_roots", nudged)
    report = run_invariant_suite(samples=1, seed=0)
    quartic = next(c for c in report.checks if c.name == "quartic-roots")
    assert quartic.failures == quartic.samples == 100
    assert not report.passed


def test_quartic_check_catches_roots_that_keep_their_sum(monkeypatch):
    # the outer roots move apart by 1e-10 of the largest root: the sum
    # holds, but e2 moves by more than 1e-10 of max|root|**2 on every draw,
    # since the smallest root is negative
    def spread(osc):
        r = quartic_roots(osc)
        eps = 1e-10 * r.roots[3]
        return QuarticRoots((r.roots[0] - eps, *r.roots[1:3], r.roots[3] + eps), r.leading)

    monkeypatch.setattr(ssp.verify, "quartic_roots", spread)
    report = run_invariant_suite(samples=1, seed=0)
    quartic = next(c for c in report.checks if c.name == "quartic-roots")
    assert quartic.failures == quartic.samples == 100
    assert not report.passed


def test_quartic_check_catches_a_sign_slip_in_the_closed_form(monkeypatch):
    # period_elliptic's bc = dz0 + (l - l0) slipped to dz0 - (l - l0) is off
    # by 2*(l - l0), above 6e-4 of max|root| on the suite's draws
    gaps = ssp.elliptic._root_gaps

    def slipped(l0, l, y0):
        z0, ab, ac, ad, _, bd = gaps(l0, l, y0)
        return z0, ab, ac, ad, 0.5 * ac - (l - l0), bd

    monkeypatch.setattr(ssp.verify, "_root_gaps", slipped)
    report = run_invariant_suite(samples=1, seed=0)
    quartic = next(c for c in report.checks if c.name == "quartic-roots")
    assert quartic.failures == quartic.samples == 100
    assert not report.passed
