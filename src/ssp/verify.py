"""Randomized self-checks of the library's structural invariants.

Each check draws parameter sets from wide log-uniform ranges and verifies a
property that must hold regardless of the numbers drawn: the period sits
strictly inside its a-priori bounds, the quadrature and elliptic routes
agree, the period depends on sigma and mass only through their ratio, the
elliptic engine's cel kernel obeys Legendre's relation, and the closed-form
quartic roots match a general-purpose polynomial root finder (Aberth's
simultaneous iteration on the expanded coefficients). The samples come from
the standard library's `random.Random`, so the suite runs without numpy.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .bounds import check_sandwich
from .elliptic import _cel, period_elliptic, quartic_coefficients, quartic_roots
from .errors import InvalidParameters
from .model import Oscillation, StringParams
from .quadrature import exact_period

__all__ = ["CheckResult", "VerifyReport", "run_invariant_suite"]

CROSS_METHOD_TOL = 1e-9
SCALING_TOL = 1e-12
LEGENDRE_TOL = 1e-12
QUARTIC_TOL = 1e-12

# Aberth's iteration converges cubically at simple roots, so once every
# correction is below sqrt(eps) of the root radius, the error it leaves is
# at the rounding level. Separated quartic roots take 5 to 10 sweeps.
_ABERTH_STOP = 2.0**-26
_ABERTH_MAX_SWEEPS = 50


class CheckResult(NamedTuple):
    """name, sample count, number of violations, worst metric, tolerance.

    worst is the largest relative deviation (agreement checks) or the largest
    bound violation relative to the upper bound (sandwich check).
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
    oscs: list[Oscillation], rel_tol: float, elliptic_tol: float
) -> tuple[CheckResult, CheckResult]:
    sand_fail = 0
    sand_worst = 0.0
    cross = []
    for osc in oscs:
        est = exact_period(osc, rel_tol)
        rep = check_sandwich(osc, est)
        if not rep.passed:
            sand_fail += 1
        viol = max(
            rep.lower - rep.slack - est.value,
            est.value - rep.upper - rep.slack,
            0.0,
        )
        if not rep.strict_upper_ok:
            viol = max(viol, est.value - rep.upper)
        sand_worst = max(sand_worst, viol / rep.upper)

        ell = period_elliptic(osc, elliptic_tol)
        cross.append(abs(ell.value - est.value) / est.value)
    return (
        CheckResult("period-inside-bounds", len(oscs), sand_fail, sand_worst, 0.0),
        _tally("quadrature-vs-elliptic", cross, CROSS_METHOD_TOL),
    )


def _check_scaling(
    oscs: list[Oscillation], rng: random.Random, rel_tol: float
) -> CheckResult:
    devs = []
    for osc in oscs:
        k = _log_uniform(rng, 0.1, 10.0)
        p = osc.params
        base = exact_period(osc, rel_tol).value
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
    ca = math.sqrt(1e-13)  # period_elliptic's default stop test
    for _ in range(n):
        t = _log_uniform(rng, 1e-6, 0.25 * math.pi)
        k, kc = math.sin(t), math.cos(t)
        big_k, big_kp = _cel(kc, 1.0, 1.0, 1.0, ca), _cel(k, 1.0, 1.0, 1.0, ca)
        big_e, big_ep = _cel(kc, 1.0, 1.0, kc * kc, ca), _cel(k, 1.0, 1.0, k * k, ca)
        devs.append(abs((big_e * big_kp + big_ep * big_k - big_k * big_kp) / (0.5 * math.pi) - 1.0))
    return _tally("legendre-relation", devs, LEGENDRE_TOL)


def _draw_separated_roots(rng: random.Random) -> Oscillation:
    """A parameter set whose quartic roots stay pairwise well separated.

    The Aberth reference slows down and loses digits near coincident roots,
    so amplitudes keep z0 at least 0.1*l away from the double-root boundary
    z0 = 2*l0 + l and at least 0.2*l of spread above l.
    """
    l0 = _log_uniform(rng, 0.5, 2.0)
    l = l0 * _log_uniform(rng, 1.01, 10.0)
    cap = math.sqrt((2.0 * l0 + 0.9 * l) ** 2 - l * l)
    amp = _log_uniform(rng, 0.2 * l, min(2.0 * l, cap))
    return Oscillation(StringParams(l0, l, 1.0, 1.0), amp)


def _aberth_roots(coeffs: tuple[float, ...]) -> tuple[list[float], int]:
    """Real parts of a polynomial's roots, ascending, and the sweeps taken.

    Aberth-Ehrlich simultaneous iteration: each root z_k moves by
    w/(1 - w*sum_{j!=k} 1/(z_k - z_j)), with w = p(z_k)/p'(z_k) its Newton
    correction, from starts spread on a circle that holds every root
    (Fujiwara's bound 2*max_k |a_k/a_0|^(1/k)). After _ABERTH_MAX_SWEEPS
    the roots are returned as they stand.
    """
    a = [c / coeffs[0] for c in coeffs]
    n = len(a) - 1
    radius = 2.0 * max(abs(c) ** (1.0 / k) for k, c in enumerate(a[1:], 1))
    # the offset angle keeps the starts off the real axis and off symmetry
    angles = [2.0 * math.pi * k / n + 0.4 for k in range(n)]
    z = [radius * complex(math.cos(t), math.sin(t)) for t in angles]
    for sweep in range(1, _ABERTH_MAX_SWEEPS + 1):
        step = 0.0
        for k, zk in enumerate(z):
            p = dp = 0j
            for c in a:
                dp = dp * zk + p
                p = p * zk + c
            w = p / dp
            w /= 1.0 - w * sum(1.0 / (zk - zj) for j, zj in enumerate(z) if j != k)
            z[k] = zk - w
            step = max(step, abs(w))
        if step <= _ABERTH_STOP * radius:
            break
    return sorted(r.real for r in z), sweep


def _check_quartic(rng: random.Random, n: int) -> CheckResult:
    devs = []
    for _ in range(n):
        osc = _draw_separated_roots(rng)
        mine = quartic_roots(osc).roots
        ref, _ = _aberth_roots(quartic_coefficients(osc))
        scale = mine[-1] - mine[0]
        devs.append(_worst([
            *(abs(x - y) / scale for x, y in zip(mine, ref)),
            abs(sum(mine) - 2.0 * osc.params.l0) / scale,
        ]))
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
    rng = random.Random(seed)
    oscs = _draw_oscillations(rng, samples)
    elliptic_tol = min(1e-13, rel_tol)
    sandwich, cross = _check_sandwich_and_cross(oscs, rel_tol, elliptic_tol)
    scaling = _check_scaling(oscs[: min(50, samples)], rng, rel_tol)
    legendre = _check_legendre(rng, 200)
    quartic = _check_quartic(rng, 100)
    return VerifyReport(seed, samples, (sandwich, cross, scaling, legendre, quartic))
