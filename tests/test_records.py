"""Result records are immutable named tuples that compare by value."""

import pytest

from ssp import (
    CheckResult,
    Oscillation,
    PeriodBounds,
    PeriodEstimate,
    SandwichReport,
    StringParams,
    Trajectory,
    VerifyReport,
    check_sandwich,
    compute_bounds,
    exact_period,
    measure_period,
    period_elliptic,
    run_invariant_suite,
    simulate,
)


def _records():
    osc = Oscillation(StringParams(l0=1.0, l=1.25, sigma=1.0, mass=1.0), 0.5)
    return [
        lambda: exact_period(osc),
        lambda: period_elliptic(osc),
        lambda: compute_bounds(osc),
        lambda: check_sandwich(osc, exact_period(osc)),
        lambda: measure_period(simulate(osc)),
        lambda: CheckResult("name", 3, 0, 1e-15),
        lambda: run_invariant_suite(samples=4, seed=1),
    ]


@pytest.mark.parametrize("make", _records())
def test_fields_cannot_be_assigned(make):
    record = make()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("make", _records())
def test_equal_fields_give_equal_records_and_hashes(make):
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    rebuilt = type(a)(**a._asdict())
    assert rebuilt == a and hash(rebuilt) == hash(a)


FIELDS = {
    PeriodEstimate: ("value", "method", "err_estimate"),
    PeriodBounds: (
        "lower_corrected",
        "lower_printed",
        "upper",
        "rel_error_bound_corrected",
        "rel_error_bound_printed",
    ),
    SandwichReport: ("lower", "upper", "value", "slack", "deviation"),
    CheckResult: ("name", "samples", "failures", "worst"),
    VerifyReport: ("seed", "samples", "checks"),
    Trajectory: (
        "t", "y", "v", "e", "events", "n_accepted", "n_rejected", "local_err",
    ),
}


@pytest.mark.parametrize("cls", FIELDS)
def test_records_are_named_tuples_with_their_fields_in_order(cls):
    assert issubclass(cls, tuple)
    assert cls._fields == FIELDS[cls]
