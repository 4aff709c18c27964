"""Both closed-form engines compute the smallest amplitudes themselves.

Their error estimates must cover the distance to a 40-digit reference all the
way down to y0 = 0, where the period is the linear-limit one.
"""

import math

import pytest

from oracle import period_mp
from ssp import Oscillation, StringParams, check_sandwich, exact_period, period_elliptic

ENGINES = (exact_period, period_elliptic)


# (l/l0, y0/l) near the rest state, where the string is barely stretched
@pytest.mark.parametrize(
    "stretch, rel_amp",
    [(1.0 + 1e-12, 9.9e-10), (1.0 + 1e-9, 9e-10), (1.0 + 1e-6, 5e-10), (1.25, 1e-10)],
)
@pytest.mark.parametrize("engine", ENGINES)
def test_error_estimate_covers_small_amplitudes(engine, stretch, rel_amp):
    y0 = rel_amp * stretch
    ref = period_mp(1.0, stretch, 1.0, 1.0, y0)
    est = engine(Oscillation(StringParams(1.0, stretch, 1.0, 1.0), y0))
    assert abs(est.value - ref) <= est.err_estimate <= 1e-12 * est.value


@pytest.mark.parametrize("y0", [0.0, 5e-324])
@pytest.mark.parametrize("engine", ENGINES)
def test_rest_state_passes_the_sandwich(engine, y0):
    for stretch in (1.0 + 1e-12, 1.25, 1e12):
        osc = Oscillation(StringParams(1.0, stretch, 1.0, 1.0), y0)
        est = engine(osc)
        assert math.isfinite(est.value) and est.err_estimate > 0.0
        assert check_sandwich(osc, est).passed
