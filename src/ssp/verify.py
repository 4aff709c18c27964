"""Randomized self-checks of the library's structural invariants.

Each check draws parameter sets from wide log-uniform ranges and verifies a
property that must hold regardless of the numbers drawn: the period sits
strictly inside its a-priori bounds, the quadrature and elliptic periods
differ by at most the sum of their error estimates, and the period depends
on sigma and mass only through their ratio.
The samples come from the standard library's `random.Random`, so the suite
runs without numpy.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .bounds import check_sandwich
from .elliptic import period_elliptic
from .errors import InvalidParameters
from .model import Oscillation, StringParams
from .quadrature import exact_period

__all__ = ["CheckResult", "VerifyReport", "run_invariant_suite"]

SCALING_TOL = 1e-12


class CheckResult(NamedTuple):
    """name, sample count, number of violations, worst metric, tolerance.

    worst is the largest deviation (the honesty ratio, the scaling check's
    relative deviation) or SandwichReport.violation, NaN if any is NaN.
    """

    name: str
    samples: int
    failures: int
    worst: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.failures == 0


class VerifyReport(NamedTuple):
    seed: int
    samples: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _draw_oscillations(rng: random.Random, n: int) -> list[Oscillation]:
    out = []
    for _ in range(n):
        l0 = _log_uniform(rng, 0.5, 2.0)
        l = l0 * _log_uniform(rng, 1.01, 10.0)
        mass = _log_uniform(rng, 0.5, 2.0)
        sigma = _log_uniform(rng, 1e-2, 1e2) * mass
        p = StringParams(l0=l0, l=l, sigma=sigma, mass=mass)
        out.append(Oscillation(p, _log_uniform(rng, 1e-4, 3.0) * l))
    return out


def _worst(deviations: list[float]) -> float:
    """The largest deviation, NaN if any is NaN."""
    return math.nan if any(map(math.isnan, deviations)) else max(deviations)


def _tally(name: str, deviations: list[float], tol: float) -> CheckResult:
    """One agreement check: a deviation fails unless it is at most tol, so a
    NaN fails, and worst is the largest deviation, NaN if any is NaN."""
    failures = sum(not d <= tol for d in deviations)
    return CheckResult(name, len(deviations), failures, _worst(deviations), tol)


def _check_sandwich_and_honesty(
    oscs: list[Oscillation], rel_tol: float
) -> tuple[CheckResult, CheckResult, list[float]]:
    """The sandwich and estimate-honesty checks, and the quadrature periods.

    Each engine's err_estimate bounds its own error, so the two periods
    differ by at most the sum of the estimates: the honesty check's
    deviation is that difference over that sum, and fails above 1."""
    reports = []
    ratios = []
    periods = []
    for osc in oscs:
        quad = exact_period(osc, rel_tol)
        periods.append(quad.value)
        reports.append(check_sandwich(osc, quad))

        ell = period_elliptic(osc)
        ratios.append(abs(quad.value - ell.value) / (quad.err_estimate + ell.err_estimate))
    failures = sum(not r.passed for r in reports)
    worst = _worst([r.violation for r in reports])
    return (
        CheckResult("period-inside-bounds", len(oscs), failures, worst, 0.0),
        _tally("estimate-honesty", ratios, 1.0),
        periods,
    )


def _check_scaling(
    oscs: list[Oscillation], periods: list[float], rng: random.Random, rel_tol: float
) -> CheckResult:
    """Scaling sigma and mass by k keeps the period, sigma alone divides it
    by sqrt(k); periods are the quadrature periods of oscs."""
    devs = []
    for osc, base in zip(oscs, periods):
        k = _log_uniform(rng, 0.1, 10.0)
        p = osc.params
        joint = exact_period(
            Oscillation(StringParams(p.l0, p.l, p.sigma * k, p.mass * k), osc.y0), rel_tol
        ).value
        sigma_only = exact_period(
            Oscillation(StringParams(p.l0, p.l, p.sigma * k, p.mass), osc.y0), rel_tol
        ).value
        devs.append(_worst([
            abs(joint - base) / base,
            abs(sigma_only * math.sqrt(k) - base) / base,
        ]))
    return _tally("sigma-mass-scaling", devs, SCALING_TOL)


def run_invariant_suite(
    samples: int = 1000, seed: int = 0, rel_tol: float = 1e-12
) -> VerifyReport:
    """Run every invariant check and collect the outcomes.

    The sandwich and honesty checks use all `samples` draws, and the
    scaling check the first 50 of them.
    """
    if samples < 1:
        raise InvalidParameters(f"samples must be at least 1, got {samples!r}")
    # Random(-n) seeds the same stream as Random(n)
    if seed < 0:
        raise InvalidParameters(f"seed must be >= 0, got {seed!r}")
    rng = random.Random(seed)
    oscs = _draw_oscillations(rng, samples)
    sandwich, honesty, periods = _check_sandwich_and_honesty(oscs, rel_tol)
    scaling = _check_scaling(oscs[:50], periods, rng, rel_tol)
    return VerifyReport(seed, samples, (sandwich, honesty, scaling))
