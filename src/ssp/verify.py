"""Randomized self-checks of the library's structural invariants.

Each check draws parameter sets from wide log-uniform ranges and verifies a
property that must hold regardless of the numbers drawn, each an inequality
widened by the engines' own error estimates: the period sits inside its
rigorous bounds, the quadrature and elliptic periods differ by at most the
sum of their error estimates, and the period depends on sigma and mass only
through their ratio.
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
from .quadrature import PeriodEstimate, exact_period

__all__ = ["CheckResult", "VerifyReport", "run_invariant_suite"]


class CheckResult(NamedTuple):
    """name, sample count, number of violations, worst deviation.

    Each check states one deviation per draw, failing above 1 (see _tally):
    SandwichReport.deviation or the honesty or scaling ratio. worst is the
    largest, NaN if any is NaN.
    """

    name: str
    samples: int
    failures: int
    worst: float

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


def _tally(name: str, deviations: list[float]) -> CheckResult:
    """One check: a deviation fails unless it is at most 1, so a NaN fails,
    and worst is the largest deviation, NaN if any is NaN."""
    failures = sum(not d <= 1.0 for d in deviations)
    return CheckResult(name, len(deviations), failures, _worst(deviations))


def _check_sandwich_and_honesty(
    oscs: list[Oscillation], rel_tol: float
) -> tuple[CheckResult, CheckResult, list[PeriodEstimate]]:
    """The sandwich and estimate-honesty checks, and the elliptic estimates.

    The sandwich's deviation is SandwichReport.deviation. Each engine's
    err_estimate bounds its own error, so the two periods differ by at most
    the sum of the estimates: the honesty check's deviation is that
    difference over that sum."""
    sandwich, ratios, closed = [], [], []
    for osc in oscs:
        quad = exact_period(osc, rel_tol)
        sandwich.append(check_sandwich(osc, quad).deviation)
        ell = period_elliptic(osc)
        closed.append(ell)
        ratios.append(abs(quad.value - ell.value) / (quad.err_estimate + ell.err_estimate))
    return _tally("period-inside-bounds", sandwich), _tally("estimate-honesty", ratios), closed


def _check_scaling(
    oscs: list[Oscillation], closed: list[PeriodEstimate], rng: random.Random
) -> CheckResult:
    """Scaling sigma and mass by k keeps the period, sigma alone divides it
    by sqrt(k); closed holds the elliptic estimates of oscs. A rescaled
    period may differ from its base by at most the sum of their error
    estimates and the rescaling's rounding: the deviation is that
    difference over that sum, as in estimate-honesty."""
    ratios = []
    for osc, base in zip(oscs, closed):
        k = _log_uniform(rng, 0.1, 10.0)
        p = osc.params
        joint, sigma_only = (
            period_elliptic(Oscillation(StringParams(p.l0, p.l, p.sigma * k, mass), osc.y0))
            for mass in (p.mass * k, p.mass)
        )
        root_k = math.sqrt(k)
        # the period goes as sqrt(mass/sigma): rounding sigma*k and mass*k
        # moves it by half an ulp each, and sqrt(k) and the product with it
        # by one each, so 3 ulps of the base cover the rescaling
        room = base.err_estimate + 3.0 * math.ulp(base.value)
        ratios.append(_worst([
            abs(joint.value - base.value) / (joint.err_estimate + room),
            abs(sigma_only.value * root_k - base.value)
            / (sigma_only.err_estimate * root_k + room),
        ]))
    return _tally("sigma-mass-scaling", ratios)


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
    sandwich, honesty, closed = _check_sandwich_and_honesty(oscs, rel_tol)
    scaling = _check_scaling(oscs[:50], closed, rng)
    return VerifyReport(seed, samples, (sandwich, honesty, scaling))
