#!/usr/bin/env python3
"""Check the ODE engine's error estimate against 40-digit periods and count
its work.

Runs `simulate` + `measure_period` on the three oracle cells of
tests/test_odesim.py at rel_tol 1e-6, 1e-10, 1e-13 and 1e-15, and on two sets of
256 draws from `oracle.random_cells`, against `oracle.period_mp`. The first
set has y0/l in 1e-6..1e4 (seed 20081, whose first 32 draws are those of
`test_error_estimate_covers_random_draws`) and runs twice: as the default
run, which stops at its first zero crossing and reads the period off the
turning at twice that time, and with n_periods=1, whose events are tiled
from the same quarter period, so it must read the same row. The second set
has y0/l in 1e6..1e10 (seed 20082, whose first 32 draws are those of
`test_error_estimate_covers_crossings_at_large_amplitude`), where the default
run's crossing step jumps the force's turn near y = 0, and runs the default
run at rel_tol 1e-10, 1e-13 and 1e-15.

For each group it prints the worst relative error, the smallest
err_estimate/actual error (an estimate covers its error where this is above
1), the largest err_estimate/value, and the mean and largest accepted steps,
rejected steps and force evaluations per run. Forces are computed from each
run's step counts: twelve per accepted step, eleven per rejected one,
eleven for the step to the zero crossing where the crossing step carries y
below 0 (a crossing step that lands on y = 0 exactly would save them) and
one at the start (the first stage, whose value also gives the chord
frequency), the identity tests/test_odesim.py::test_default_run_force_count
pins.

A last group runs the default run at the bottom of the float range: l/l0 in
{1.25, 1+1e-9, 1+1e-12, 100} on l0 = sigma = mass = 1, y0 = 10**(-318 + j/2)
for j in 0..40, and rel_tol 1e-6, 1e-10 and 1e-13, 492 cells, where the
rounding of y and of the force is the run's error. Each cell must either be
refused (InvalidParameters) or answer a period whose err_estimate covers its
distance from `exact_period` and which passes `check_sandwich`, in at most
100 attempted steps. It prints the counts of refused and answered cells, the
smallest err_estimate/actual of the answers and the most attempted steps.

Then two scans hold the estimate to `period_elliptic` on the benchmark's
draws (`perfbench.workloads.draw`, read and not changed), where a run's
error is far above the closed form's: 6000 draws at the default rel_tol
(seed 77, 3000 in each of the `harmonic` and `anharmonic` bands, in that
order), and 5000 draws with y0/l in 1e-4..1e8 (seed 5) at rel_tol 1e-3,
5e-3 and 9.9e-3. These are the scans of ROADMAP item 20: under a first step
of a hundredth of the linear period the first had 1 row and the second 30
rows at 9.9e-3 whose estimate fell short of the distance to the closed form.
For each it prints the rows short, the least and median err_estimate over
that distance, and the mean force values per row.

Exits 1 when, in any group, an err_estimate/actual ratio is not above 1 or
the smallest is not finite: an estimate that fails to cover its error, a NaN,
or a group whose every error reads exactly 0 and so tests nothing; or when a
cell of the subnormal group answers dishonestly or takes more than 100
steps; or when a scan has a row short.

Run:  python3 scripts/ode_coverage.py   (needs numpy and mpmath)
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

from ssp import (  # noqa: E402
    InvalidParameters,
    Oscillation,
    SimConfig,
    StringParams,
    check_sandwich,
    exact_period,
    measure_period,
    period_elliptic,
    simulate,
)

ORACLE_CELLS = (
    ((1.0, 1.25, 1.0, 1.0, 0.5), oracle.P_REF),
    (oracle.ANHARMONIC_PARAMS, oracle.P_ANHARMONIC),
    (oracle.NEAR_L0_PARAMS, oracle.P_NEAR_L0),
)


def random_draws(seed: int, y0_over_l: tuple[float, float]) -> list[tuple[tuple[float, ...], float]]:
    return [(cell, oracle.period_mp(*cell)) for cell in oracle.random_cells(seed, 256, y0_over_l)]


def report(label: str, cells, cfg: SimConfig) -> bool:
    """Print the group's row; True where every estimate covers its error."""
    rel_err, cover, size, acc, rej, forces = [], [], [], [], [], []
    for cell, period in cells:
        traj = simulate(Oscillation(StringParams(*cell[:4]), cell[4]), cfg)
        est = measure_period(traj)
        actual = abs(est.value - period)
        rel_err.append(actual / period)
        cover.append(est.err_estimate / actual if actual else math.inf)
        size.append(est.err_estimate / est.value)
        acc.append(traj.n_accepted)
        rej.append(traj.n_rejected)
        forces.append(12 * traj.n_accepted + 11 * traj.n_rejected + 11 + 1)
    print(
        f"{label:<36} worst rel err {max(rel_err):.3g}  min est/actual {min(cover):.3g}  "
        f"max est/value {max(size):.3g}  accepted {np.mean(acc):.1f} (max {max(acc)})  "
        f"rejected {np.mean(rej):.2f} (max {max(rej)})  forces {np.mean(forces):.1f} "
        f"(max {max(forces)})"
    )
    return all(c > 1.0 for c in cover) and math.isfinite(min(cover))


def report_subnormal() -> bool:
    """Print the subnormal-scale group's row; True where every cell is
    refused or answers honestly within 100 attempted steps."""
    refused, dishonest, cover, steps = 0, 0, [], []
    for l in (1.25, 1.0 + 1e-9, 1.0 + 1e-12, 100.0):
        for j in range(41):
            osc = Oscillation(StringParams(1.0, l, 1.0, 1.0), 10.0 ** (-318 + 0.5 * j))
            for rel_tol in (1e-6, 1e-10, 1e-13):
                try:
                    traj = simulate(osc, SimConfig(rel_tol=rel_tol))
                except InvalidParameters:
                    refused += 1
                    continue
                est = measure_period(traj)
                actual = abs(est.value - exact_period(osc).value)
                honest = actual <= est.err_estimate and check_sandwich(osc, est).passed
                cover.append(est.err_estimate / actual if actual else math.inf)
                steps.append(traj.n_accepted + traj.n_rejected)
                if not honest:
                    dishonest += 1
                    print(f"  dishonest: l = {l!r}, y0 = {osc.y0!r}, rel_tol = {rel_tol:g}")
    print(
        f"{'492 cells y0 1e-318..1e-298':<36} refused {refused}  answered {len(cover)}  "
        f"dishonest {dishonest}  min est/actual {min(cover):.3g}  most steps {max(steps)}"
    )
    return dishonest == 0 and max(steps) <= 100


def report_scan(label: str, oscs, cfg: SimConfig) -> bool:
    """Print the scan's row; True where no estimate falls short of its
    distance to period_elliptic."""
    short, cover, forces = 0, [], []
    for osc in oscs:
        traj = simulate(osc, cfg)
        est = measure_period(traj)
        actual = abs(est.value - period_elliptic(osc).value)
        short += not actual <= est.err_estimate
        cover.append(est.err_estimate / actual if actual else math.inf)
        forces.append(12 * traj.n_accepted + 11 * traj.n_rejected + 11 + 1)
    print(
        f"{label:<36} short {short}  min est/actual {min(cover):.3g}  "
        f"median est/actual {np.median(cover):.3g}  forces {np.mean(forces):.1f}"
    )
    return short == 0


def main() -> int:
    covered = [
        report(f"oracle cells rel_tol={rel_tol:g}", ORACLE_CELLS, SimConfig(rel_tol=rel_tol))
        for rel_tol in (1e-6, 1e-10, 1e-13, 1e-15)
    ]
    draws = random_draws(20081, (1e-6, 1e4))
    covered.append(report("256 draws rel_tol=1e-10", draws, SimConfig()))
    covered.append(report("256 draws n_periods=1", draws, SimConfig(n_periods=1)))
    large = random_draws(20082, (1e6, 1e10))
    for rel_tol in (1e-10, 1e-13, 1e-15):
        label = f"256 draws y0/l 1e6..1e10 rel_tol={rel_tol:g}"
        covered.append(report(label, large, SimConfig(rel_tol=rel_tol)))
    covered.append(report_subnormal())
    rng = np.random.default_rng(77)
    pool = workloads.draw(rng, 3000, workloads.SMALL) + workloads.draw(rng, 3000, workloads.LARGE)
    covered.append(report_scan("6000 pool draws rel_tol=1e-10", pool, SimConfig()))
    wide = workloads.draw(np.random.default_rng(5), 5000, (1e-4, 1e8))
    for rel_tol in (1e-3, 5e-3, 9.9e-3):
        label = f"5000 draws y0/l 1e-4..1e8 rel_tol={rel_tol:g}"
        covered.append(report_scan(label, wide, SimConfig(rel_tol=rel_tol)))
    if not all(covered):
        print(
            "FAIL: an err_estimate does not cover its actual error, or a "
            "subnormal-scale run took more than 100 steps",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
