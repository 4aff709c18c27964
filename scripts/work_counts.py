#!/usr/bin/env python3
"""Print the engines' work counts on the benchmark's seed-3 pools.

The counts do not depend on the machine, so two trees can be compared by
them where wall times are too noisy to tell. The pools are those of
perfbench/workloads.py at seed 3, drawn through `perfbench.workloads.draw`
by the workloads' own classes, which this script reads and does not change:
8000 strings of `harmonic` (y0/l in 1e-4..1) and of `anharmonic` (1..100),
and 256 of `ode`, both bands in alternate rows.

For each pool it prints the mean and the largest count per row:
- `harmonic`, `anharmonic`: integrand evaluations per `exact_period`,
  counted by wrapping the integrand that `exact_period` hands to
  `quadrature.trapezoid_ladder`, then how many rows stop at each count
  (the ladder's levels hold 2**k + 1 nodes);
- `ode`: accepted and rejected steps of the default `simulate` run, and its
  force values, counted by wrapping the force that `odesim` binds through
  `model._bound_acceleration`; then the same for each band alone (`ode
  small`, y0/l in 1e-4..1, the even rows, and `ode large`, 1..100, the odd
  ones), with the width of the run's first attempted step over its first
  zero crossing t_q, read by wrapping `_dop853.step`.

Then it prints the engine calls of one `run_invariant_suite(samples=200,
seed=3)`, the library call behind `ssp verify`: `exact_period`,
`period_elliptic` and `elliptic._cel`, each counted by wrapping the name
it is called through.

Run:  python3 scripts/work_counts.py   (needs numpy)
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from ssp import _dop853, elliptic, odesim, quadrature, verify  # noqa: E402

SEED = 3


def integrand_evaluations(oscs) -> list[int]:
    """Integrand evaluations of each exact_period call on oscs."""
    ladder, calls = quadrature.trapezoid_ladder, [0]

    def counting(f, rel_tol):
        def counted(*node):
            calls[0] += 1
            return f(*node)

        return ladder(counted, rel_tol)

    counts = []
    quadrature.trapezoid_ladder = counting
    try:
        for osc in oscs:
            calls[0] = 0
            quadrature.exact_period(osc)
            counts.append(calls[0])
    finally:
        quadrature.trapezoid_ladder = ladder
    return counts


def ode_work(oscs) -> dict[str, list[float]]:
    """Accepted steps, rejected steps and force values of each default
    simulate run on oscs, and its first step's width over t_q."""
    bind, step, calls, widths = odesim._bound_acceleration, _dop853.step, [0], []

    def counting(p):
        force = bind(p)

        def counted(y):
            calls[0] += 1
            return force(y)

        return counted

    def recording(accel, y, v, k0, h, *args):
        widths.append(h)
        return step(accel, y, v, k0, h, *args)

    work = {"accepted steps": [], "rejected steps": [], "force values": [], "first step / t_q": []}
    odesim._bound_acceleration, _dop853.step = counting, recording
    try:
        for osc in oscs:
            calls[0] = 0
            widths.clear()
            run = odesim._release(osc, odesim.SimConfig())
            work["accepted steps"].append(run.n_accepted)
            work["rejected steps"].append(run.n_rejected)
            work["force values"].append(calls[0])
            work["first step / t_q"].append(widths[0] / run.t_q)
    finally:
        odesim._bound_acceleration, _dop853.step = bind, step
    return work


def verify_calls() -> dict[str, int]:
    """Engine calls of one run_invariant_suite(samples=200, seed=SEED)."""
    bindings = ((verify, "exact_period"), (verify, "period_elliptic"), (elliptic, "_cel"))
    originals = [getattr(module, name) for module, name in bindings]
    calls = dict.fromkeys((name for _, name in bindings), 0)

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)

        return counted

    for (module, name), f in zip(bindings, originals):
        setattr(module, name, counting(name, f))
    try:
        verify.run_invariant_suite(samples=200, seed=SEED)
    finally:
        for (module, name), f in zip(bindings, originals):
            setattr(module, name, f)
    return calls


def line(pool: str, count: str, values: list[float]) -> None:
    mean, most = sum(values) / len(values), max(values)
    if isinstance(most, int):
        print(f"{pool:<11} {count:<37} mean {mean:8.2f}  max {most:5d}  ({len(values)} rows)")
    else:
        print(f"{pool:<11} {count:<37} mean {mean:8.4f}  max {most:.4f}  ({len(values)} rows)")


def main() -> None:
    for name in ("harmonic", "anharmonic"):
        oscs = workloads.make(name, SEED).oscs
        counts = integrand_evaluations(oscs)
        line(name, "integrand evaluations per period", counts)
        for n in sorted(set(counts)):
            print(f"{name:<11} {f'rows stopping at {n} nodes':<37} {counts.count(n):8d}")
    work = ode_work(workloads.make("ode", SEED).oscs)
    for count in ("accepted steps", "rejected steps", "force values"):
        line("ode", count, work[count])
    # the pool's rows alternate between the bands, the small one first
    for band, start in (("ode small", 0), ("ode large", 1)):
        for count, values in work.items():
            line(band, count, values[start::2])
    for name, n in verify_calls().items():
        print(f"{'verify':<11} {name + ' calls per run':<37} {n:8d}")


if __name__ == "__main__":
    main()
