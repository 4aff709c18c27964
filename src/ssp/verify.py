"""Randomized self-checks of the library's structural invariants.

Each check draws parameter sets from wide log-uniform ranges and verifies a
property that must hold regardless of the numbers drawn: the period sits
strictly inside its a-priori bounds, the quadrature and elliptic routes
agree, the period depends on sigma and mass only through their ratio, the
elliptic engine's cel kernel obeys Legendre's relation, and the closed-form
quartic roots match a general-purpose eigenvalue root finder. numpy, which
draws the samples and runs that root finder, is imported by the checks that
use it, so `import ssp` does not load it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .bounds import check_sandwich
from .elliptic import _cel, period_elliptic, quartic_coefficients, quartic_roots
from .errors import InvalidParameters
from .model import Oscillation, StringParams
from .quadrature import exact_period

if TYPE_CHECKING:
    import numpy as np

__all__ = ["CheckResult", "VerifyReport", "run_invariant_suite"]

CROSS_METHOD_TOL = 1e-9
SCALING_TOL = 1e-12
LEGENDRE_TOL = 1e-12
QUARTIC_TOL = 1e-12


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


def _draw_oscillations(rng: np.random.Generator, n: int) -> list[Oscillation]:
    import numpy as np

    l0 = np.exp(rng.uniform(math.log(0.5), math.log(2.0), n))
    stretch = np.exp(rng.uniform(math.log(1.01), math.log(10.0), n))
    mass = np.exp(rng.uniform(math.log(0.5), math.log(2.0), n))
    sig_over_m = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), n))
    amp = np.exp(rng.uniform(math.log(1e-4), math.log(3.0), n))
    out = []
    for i in range(n):
        p = StringParams(
            l0=float(l0[i]),
            l=float(l0[i] * stretch[i]),
            sigma=float(sig_over_m[i] * mass[i]),
            mass=float(mass[i]),
        )
        out.append(Oscillation(p, float(amp[i] * p.l)))
    return out


def _tally(name: str, deviations: list[float], tol: float) -> CheckResult:
    """One agreement check: a deviation fails unless it is at most tol, so a
    NaN fails, and worst is the largest deviation, NaN if any is NaN."""
    import numpy as np

    devs = np.asarray(deviations, dtype=float)
    return CheckResult(name, devs.size, int(np.sum(~(devs <= tol))), float(np.max(devs)), tol)


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
    oscs: list[Oscillation], rng: np.random.Generator, rel_tol: float
) -> CheckResult:
    import numpy as np

    devs = []
    for osc in oscs:
        k = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        p = osc.params
        base = exact_period(osc, rel_tol).value
        joint = exact_period(
            Oscillation(StringParams(p.l0, p.l, p.sigma * k, p.mass * k), osc.y0), rel_tol
        ).value
        sigma_only = exact_period(
            Oscillation(StringParams(p.l0, p.l, p.sigma * k, p.mass), osc.y0), rel_tol
        ).value
        devs.append(max(
            abs(joint - base) / base,
            abs(sigma_only * math.sqrt(k) - base) / base,
        ))
    return _tally("sigma-mass-scaling", devs, SCALING_TOL)


def _check_legendre(rng: np.random.Generator, n: int) -> CheckResult:
    """E*K' + E'*K - K*K' = pi/2, with K, E, K', E' each one cel call.

    The relation is symmetric in k and kc, so angles up to pi/4 cover every
    modulus; k = sin(t) and kc = cos(t) then hold to the rounding level.
    """
    import numpy as np

    devs = []
    ca = math.sqrt(1e-13)  # period_elliptic's default stop test
    for t in np.exp(rng.uniform(math.log(1e-6), math.log(0.25 * math.pi), n)):
        k, kc = math.sin(t), math.cos(t)
        big_k, big_kp = _cel(kc, 1.0, 1.0, 1.0, ca), _cel(k, 1.0, 1.0, 1.0, ca)
        big_e, big_ep = _cel(kc, 1.0, 1.0, kc * kc, ca), _cel(k, 1.0, 1.0, k * k, ca)
        devs.append(abs((big_e * big_kp + big_ep * big_k - big_k * big_kp) / (0.5 * math.pi) - 1.0))
    return _tally("legendre-relation", devs, LEGENDRE_TOL)


def _draw_separated_roots(rng: np.random.Generator) -> Oscillation:
    """A parameter set whose quartic roots stay pairwise well separated.

    The eigenvalue reference (np.roots) loses digits near coincident roots,
    so amplitudes keep z0 at least 0.1*l away from the double-root boundary
    z0 = 2*l0 + l and at least 0.2*l of spread above l.
    """
    import numpy as np

    l0 = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
    l = l0 * float(np.exp(rng.uniform(math.log(1.01), math.log(10.0))))
    cap = math.sqrt((2.0 * l0 + 0.9 * l) ** 2 - l * l)
    hi = min(2.0 * l, cap)
    amp = float(np.exp(rng.uniform(math.log(0.2 * l), math.log(hi))))
    return Oscillation(StringParams(l0, l, 1.0, 1.0), amp)


def _check_quartic(rng: np.random.Generator, n: int) -> CheckResult:
    import numpy as np

    devs = []
    for _ in range(n):
        osc = _draw_separated_roots(rng)
        mine = np.asarray(quartic_roots(osc).roots)
        ref = np.sort(np.roots(quartic_coefficients(osc)).real)
        scale = mine[-1] - mine[0]
        devs.append(max(
            float(np.max(np.abs(mine - ref))) / scale,
            abs(float(np.sum(mine)) - 2.0 * osc.params.l0) / scale,
        ))
    return _tally("quartic-roots", devs, QUARTIC_TOL)


def run_invariant_suite(
    samples: int = 1000, seed: int = 0, rel_tol: float = 1e-12
) -> VerifyReport:
    """Run every invariant check and collect the outcomes.

    The heavyweight checks (bounds, cross-method) use all `samples` draws;
    the cheap structural ones use fixed subsample sizes.
    """
    import numpy as np

    if samples < 1:
        raise InvalidParameters(f"samples must be at least 1, got {samples!r}")
    rng = np.random.default_rng(seed)
    oscs = _draw_oscillations(rng, samples)
    elliptic_tol = min(1e-13, rel_tol)
    sandwich, cross = _check_sandwich_and_cross(oscs, rel_tol, elliptic_tol)
    scaling = _check_scaling(oscs[: min(50, samples)], rng, rel_tol)
    legendre = _check_legendre(rng, 200)
    quartic = _check_quartic(rng, 100)
    return VerifyReport(seed, samples, (sandwich, cross, scaling, legendre, quartic))
