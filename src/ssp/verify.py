"""Randomized self-checks of the library's structural invariants.

Each check draws parameter sets from wide log-uniform ranges and verifies a
property that must hold regardless of the numbers drawn: the period sits
strictly inside its a-priori bounds, the quadrature and elliptic routes
agree, the period depends on sigma and mass only through their ratio, the
elliptic engine's cel kernel obeys Legendre's relation, and the root
differences the closed form works with match its quartic's roots.
The samples come from the standard library's `random.Random`, so the suite
runs without numpy.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .bounds import check_sandwich
from .elliptic import _cel, _root_gaps, period_elliptic
from .errors import InvalidParameters
from .model import Oscillation, StringParams
from .quadrature import exact_period

__all__ = ["CheckResult", "VerifyReport", "run_invariant_suite"]

CROSS_METHOD_TOL = 1e-9
SCALING_TOL = 1e-12
LEGENDRE_TOL = 1e-12
QUARTIC_TOL = 1e-12


class CheckResult(NamedTuple):
    """name, sample count, number of violations, worst metric, tolerance.

    worst is the largest relative deviation (agreement checks) or the largest
    SandwichReport.violation (sandwich check), NaN if any is NaN.
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


def _check_sandwich_and_cross(
    oscs: list[Oscillation], rel_tol: float
) -> tuple[CheckResult, CheckResult, list[float]]:
    """The sandwich and cross-method checks, and the quadrature periods. The
    engines agree to the quadrature's accuracy rel_tol, or CROSS_METHOD_TOL."""
    reports = []
    cross = []
    periods = []
    for osc in oscs:
        est = exact_period(osc, rel_tol)
        periods.append(est.value)
        reports.append(check_sandwich(osc, est))

        ell = period_elliptic(osc)
        cross.append(abs(ell.value - est.value) / est.value)
    failures = sum(not r.passed for r in reports)
    worst = _worst([r.violation for r in reports])
    return (
        CheckResult("period-inside-bounds", len(oscs), failures, worst, 0.0),
        _tally("quadrature-vs-elliptic", cross, max(CROSS_METHOD_TOL, rel_tol)),
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


def _check_legendre(rng: random.Random, n: int) -> CheckResult:
    """E*K' + E'*K - K*K' = pi/2, with K, E, K', E' each one cel call.

    The relation is symmetric in k and kc, so angles up to pi/4 cover every
    modulus; k = sin(t) and kc = cos(t) then hold to the rounding level.
    """
    devs = []
    for _ in range(n):
        t = _log_uniform(rng, 1e-6, 0.25 * math.pi)
        k, kc = math.sin(t), math.cos(t)
        big_k, big_kp = _cel(kc, 1.0, 1.0, 1.0), _cel(k, 1.0, 1.0, 1.0)
        big_e, big_ep = _cel(kc, 1.0, 1.0, kc * kc), _cel(k, 1.0, 1.0, k * k)
        devs.append(abs((big_e * big_kp + big_ep * big_k - big_k * big_kp) / (0.5 * math.pi) - 1.0))
    return _tally("legendre-relation", devs, LEGENDRE_TOL)


def _check_quartic(oscs: list[Oscillation]) -> CheckResult:
    """The closed form's root differences against the roots themselves.

    The differences ab, ac, ad, bc, bd that period_elliptic forms
    (elliptic._root_gaps) must match those of the z-space quartic's roots
    a = z0, b = l, c = 2*l0 - z0, d = -l, formed here directly, each over
    max|root|. Each root is formed as its identity, so this holds on both
    sides of z0 = 2*l0 + l, past which c drops below d."""
    devs = []
    for osc in oscs:
        l0, l = osc.params.l0, osc.params.l
        _, *gaps = _root_gaps(l0, l, osc.y0)
        z0 = math.hypot(l, osc.y0)
        roots = a, b, c, d = z0, l, 2.0 * l0 - z0, -l
        big = max(map(abs, roots))
        diffs = (a - b, a - c, a - d, b - c, b - d)
        devs.append(_worst([abs(g - r) / big for g, r in zip(gaps, diffs)]))
    return _tally("quartic-roots", devs, QUARTIC_TOL)


def run_invariant_suite(
    samples: int = 1000, seed: int = 0, rel_tol: float = 1e-12
) -> VerifyReport:
    """Run every invariant check and collect the outcomes.

    The heavyweight checks (bounds, cross-method) use all `samples` draws;
    the cheap structural ones use fixed subsample sizes.
    """
    if samples < 1:
        raise InvalidParameters(f"samples must be at least 1, got {samples!r}")
    # Random(-n) seeds the same stream as Random(n)
    if seed < 0:
        raise InvalidParameters(f"seed must be >= 0, got {seed!r}")
    rng = random.Random(seed)
    oscs = _draw_oscillations(rng, samples)
    sandwich, cross, periods = _check_sandwich_and_cross(oscs, rel_tol)
    scaling = _check_scaling(oscs[:50], periods, rng, rel_tol)
    legendre = _check_legendre(rng, 200)
    quartic = _check_quartic(_draw_oscillations(rng, 100))
    return VerifyReport(seed, samples, (sandwich, cross, scaling, legendre, quartic))
