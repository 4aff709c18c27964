"""Randomized invariant suite: structure, determinism, and outcomes."""

import math

import pytest

import ssp.verify
from ssp import InvalidParameters, Method, PeriodEstimate, exact_period, run_invariant_suite
from ssp.bounds import check_sandwich, compute_bounds
from ssp.cli import main
from ssp.elliptic import period_elliptic


def test_default_suite_passes():
    report = run_invariant_suite(samples=200, seed=0)
    assert report.passed
    assert report.seed == 0
    assert report.samples == 200
    names = [c.name for c in report.checks]
    assert names == ["period-inside-bounds", "estimate-honesty", "sigma-mass-scaling"]
    for check in report.checks:
        assert check.failures == 0
        assert check.ok
        assert check.worst <= 1.0
        assert type(check.worst) is float
    # every period lies strictly inside its bounds, and the two ratios are
    # absolute values
    sandwich, honesty, scaling = report.checks
    assert sandwich.worst < 0.0
    assert honesty.worst >= 0.0 and scaling.worst >= 0.0


def test_suite_is_deterministic_per_seed():
    a = run_invariant_suite(samples=50, seed=11)
    b = run_invariant_suite(samples=50, seed=11)
    assert [(c.name, c.failures, c.worst) for c in a.checks] == [
        (c.name, c.failures, c.worst) for c in b.checks
    ]
    c = run_invariant_suite(samples=50, seed=12)
    assert [x.worst for x in a.checks] != [x.worst for x in c.checks]


def _honesty(report):
    return next(c for c in report.checks if c.name == "estimate-honesty")


def test_cross_method_margin_is_wide():
    # the engines differ by a few hundredths of the sum of their error
    # estimates, the widest draw at about 0.037 over seeds 0-9
    honesty = _honesty(run_invariant_suite(samples=100, seed=5))
    assert honesty.ok
    assert honesty.worst < 0.1


def test_honesty_holds_at_the_loosest_tol(capsys):
    # the quadrature's own estimate grows with --tol, so the rule needs no
    # tolerance of its own; a fixed 1e-9 agreement read 3 false failures here
    report = run_invariant_suite(samples=200, seed=0, rel_tol=1e-3)
    assert 0.0 < _honesty(report).worst <= 1.0
    assert report.passed
    assert main(["verify", "--samples", "200", "--tol", "1e-3"]) == 0
    assert "all invariants hold" in capsys.readouterr().out


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-3])
def test_cross_method_check_catches_a_nudged_period(monkeypatch, capsys, rel_tol):
    # an elliptic period off by 10 times --tol fails on every draw, at the
    # default --tol and at the loosest one: the quadrature's estimate is
    # its last level difference, at most --tol, plus a few ulps per node
    def nudged(osc):
        est = period_elliptic(osc)
        return est._replace(value=est.value * (1.0 + 10.0 * rel_tol))

    monkeypatch.setattr(ssp.verify, "period_elliptic", nudged)
    honesty = _honesty(run_invariant_suite(samples=20, seed=0, rel_tol=rel_tol))
    assert honesty.failures == honesty.samples == 20
    assert main(["verify", "--samples", "20", "--tol", repr(rel_tol)]) == 3


def test_each_draw_is_integrated_once(monkeypatch):
    # each draw runs each engine once, and the scaling check reuses the
    # closed-form estimates of its 50 draws, running only on its two
    # rescaled strings
    calls = {"exact_period": [], "period_elliptic": []}

    def counted(name, engine):
        def run(osc, *args):
            calls[name].append(osc)
            return engine(osc, *args)

        return run

    monkeypatch.setattr(ssp.verify, "exact_period", counted("exact_period", exact_period))
    monkeypatch.setattr(ssp.verify, "period_elliptic", counted("period_elliptic", period_elliptic))
    run_invariant_suite(samples=200, seed=0)
    assert len(calls["exact_period"]) == 200
    assert len(calls["period_elliptic"]) == 200 + 2 * 50
    for oscs in calls.values():
        assert len(set(oscs)) == len(oscs)


def _scaling(report):
    return next(c for c in report.checks if c.name == "sigma-mass-scaling")


def test_scaling_holds_the_closed_form_to_its_own_estimates():
    # the rule needs no tolerance of its own, and does not read --tol
    for rel_tol in (1e-15, 1e-3):
        scaling = _scaling(run_invariant_suite(samples=50, seed=0, rel_tol=rel_tol))
        assert scaling.failures == 0
        assert 0.0 < scaling.worst < 0.1


def test_scaling_catches_a_slip_that_follows_sigmas_power_of_four(monkeypatch, capsys):
    # both engines off by a relative 1e-13 wherever sigma's power-of-four
    # exponent is odd agree with each other and stay inside the bounds, but
    # a rescaled sigma changes that exponent on some draws
    def slipped(engine):
        def run(osc, *args):
            est = engine(osc, *args)
            if osc.params._sigma_exp % 2:
                return est._replace(value=est.value * (1.0 + 1e-13))
            return est

        return run

    monkeypatch.setattr(ssp.verify, "exact_period", slipped(exact_period))
    monkeypatch.setattr(ssp.verify, "period_elliptic", slipped(period_elliptic))
    report = run_invariant_suite(samples=300, seed=0)
    sandwich, honesty, scaling = report.checks
    assert sandwich.ok and honesty.ok
    assert scaling.failures > 0
    assert not report.passed
    assert main(["verify", "--samples", "300"]) == 3
    assert "sigma-mass-scaling       samples=50    failures=" in capsys.readouterr().out


def test_negative_seed_is_refused():
    # Random(-7) seeds Random(7)'s stream, which would run under seed=-7
    with pytest.raises(InvalidParameters, match=r"^seed must be >= 0, got -7$"):
        run_invariant_suite(samples=30, seed=-7)


def test_nan_deviation_fails(monkeypatch, capsys):
    # a NaN ratio is no agreement: it fails and shows as the worst
    nan = PeriodEstimate(math.nan, Method.ELLIPTIC, 0.0)
    monkeypatch.setattr(ssp.verify, "period_elliptic", lambda osc: nan)
    report = run_invariant_suite(samples=20, seed=0)
    honesty = _honesty(report)
    assert honesty.failures == 20
    assert math.isnan(honesty.worst)
    assert not report.passed
    assert main(["verify", "--samples", "20"]) == 3
    assert "estimate-honesty         samples=20    failures=20   worst=nan" in capsys.readouterr().out


def test_sandwich_check_catches_a_period_below_the_lower_bound(monkeypatch, capsys):
    # a quadrature period 1e-6 below the corrected lower bound fails on every
    # draw, and worst is the largest deviation its SandwichReports state
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
    assert sandwich.worst == max(r.deviation for r in reports) > 1.0
    assert not report.passed
    assert main(["verify", "--samples", "20"]) == 3
    assert "period-inside-bounds     samples=20    failures=20" in capsys.readouterr().out


def test_a_deviation_fails_above_1_and_nan_fails():
    checked = ssp.verify._tally("x", [-5.0, 1.0, math.nextafter(1.0, 2.0), math.nan])
    assert checked[:3] == ("x", 4, 2)
    assert math.isnan(checked.worst)


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


GAPS = ("z0", "ab", "ac", "ad", "bc", "bd")


def _suite_with_engine(monkeypatch, name, slipped):
    """run_invariant_suite(samples=300, seed=0) with the elliptic engine's
    helper `name` replaced by slipped(original), and its honesty check."""
    monkeypatch.setattr(ssp.elliptic, name, slipped(getattr(ssp.elliptic, name)))
    report = run_invariant_suite(samples=300, seed=0)
    return report, _honesty(report)


# z0 and ab move the period least, and need only fail at 1e-11
@pytest.mark.parametrize(
    "gap, slip", [(gap, 1e-11) for gap in GAPS] + [(gap, 1e-12) for gap in GAPS[2:]]
)
def test_honesty_catches_a_slipped_root_gap(monkeypatch, gap, slip):
    # one output of _root_gaps off by a relative 1e-11 or 1e-12 moves the
    # period by more than both estimates on some draws
    i = GAPS.index(gap)

    def slipped(gaps):
        def engine(l0, l, y0):
            out = list(gaps(l0, l, y0))
            out[i] *= 1.0 + slip
            return tuple(out)

        return engine

    report, honesty = _suite_with_engine(monkeypatch, "_root_gaps", slipped)
    assert honesty.failures > 0
    assert not report.passed


def test_honesty_catches_a_sign_slip_in_the_closed_form(monkeypatch):
    # the engine's bc = dz0 + (l - l0) slipped to dz0 - (l - l0) moves the
    # period far outside both estimates on every draw
    def slipped(gaps):
        def engine(l0, l, y0):
            z0, ab, ac, ad, _, bd = gaps(l0, l, y0)
            return z0, ab, ac, ad, 0.5 * ac - (l - l0), bd

        return engine

    report, honesty = _suite_with_engine(monkeypatch, "_root_gaps", slipped)
    assert honesty.failures == honesty.samples == 300
    assert not report.passed


def test_honesty_catches_a_slipped_pi_in_cel(monkeypatch):
    # cel's result is pi/2 times a quotient, so pi slipped by a relative
    # 1e-13 scales it by 1 + 1e-13
    def slipped(cel):
        return lambda *args: cel(*args) * (1.0 + 1e-13)

    report, honesty = _suite_with_engine(monkeypatch, "_cel", slipped)
    assert honesty.failures > 0
    assert not report.passed
