#!/usr/bin/env python3
"""Print SHA-256 digests of the library's outputs and of fixed CLI runs.

Two trees whose digests match compute the same bits. Each library digest
covers every field the function returns, in repr form, on the benchmark's
parameter pools: `perfbench.workloads.draw`, 8000 rows per band, seeds 1-3,
both amplitude bands (48000 rows). An exception counts as its type name,
so a row that raises in one tree and not in the other changes the digest.
The `check_sandwich(...).passed` digests cover the verdicts alone, so a
verdict that moves shows apart from a change in the report's other fields.
The `simulate` digest covers the arrays, counts and `local_err` of 128 default
runs, which stop at their first zero crossing, and the `measure_period`
digest the period estimates of the same runs. On the same 128 strings,
`simulate(n_periods=1)` covers the arrays, counts, `local_err` and period
estimate of a one-period run, which is tiled from the same quarter period
as the default run. The `acceleration` digest covers
the model's force at y = 0, y0/2 and y0 on the library pools.
The whole-range digests cover WIDE_DRAWS strings drawn from the whole float
range, far outside the benchmark's pools, where the unit-scale conversions
overflow or underflow: `l0`, `sigma` and `mass` log-uniform over 1e+-300,
`l/l0 - 1` over 1e+-15, and `y0/l` over 1e+-300 on even draws and 1e+-6 on
odd ones. They digest each string's fields and unit values, its bounds, both
closed forms, their sandwich checks and verdicts and `radicand_g`, and the
default ODE run on every WIDE_ODE_EVERY-th draw.
Each CLI digest covers one command's stdout, exit code, whether stderr
holds a traceback or a Python warning, and the summary lines stderr holds
(`sweep`'s pass count, `convergence`'s fitted slope), run as a fresh
`python -m ssp.cli` process.

The first line names the Python and numpy versions and the platform,
since libm and numpy may round differently elsewhere.
scripts/output_digests.txt holds this output at the current commit.

Run:  python3 scripts/output_digest.py
      python3 scripts/output_digest.py --check scripts/output_digests.txt
            (prints each digest that differs from the file, exits 1 if any)
"""

import argparse
import hashlib
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from ssp import bounds, elliptic, model, odesim, quadrature  # noqa: E402

SEEDS = (1, 2, 3)
BANDS = (("harmonic", workloads.SMALL), ("anharmonic", workloads.LARGE))
SIM_RUNS = 64  # per band
WIDE_DRAWS = 20_000
WIDE_ODE_EVERY = 40

CLI_COMMANDS = (
    ("period",),
    ("period", "--method", "all", "--format", "csv"),
    ("period", "--format", "json"),
    ("period", "--method", "quadrature", "--y0", "3.1"),
    ("period", "--y0", "40", "--l", "1.01", "--format", "csv"),
    ("period", "--y0", "1e200", "--method", "quadrature", "--format", "json"),
    ("period", "--sigma", "1e300", "--mass", "1e-300", "--format", "csv"),
    ("period", "--l", "1.000000000001", "--y0", "2e-9", "--method", "quadrature"),
    ("period", "--y0", "0", "--format", "json"),
    ("period", "--y0", "1e308", "--method", "quadrature"),
    ("period", "--y0", "1e307", "--method", "elliptic"),
    ("period", "--method", "ode", "--sigma", "1e-300", "--mass", "1e300", "--format", "json"),
    ("period", "--y0", "50", "--l", "1.01", "--format", "json"),
    ("period", "--l0", "1e100", "--l", "2e100", "--sigma", "1e-300", "--mass", "1e300", "--y0", "1e99"),
    ("period", "--l0", "5e-324", "--l", "1e10", "--y0", "1"),
    ("period", "--l0", "1e150", "--l", "2e150", "--y0", "1e160"),
    ("period", "--l", "1.05", "--sigma", "10", "--y0", "2.1", "--method", "elliptic", "--format", "csv"),
    ("period", "--l0", "0.25", "--l", "0.5", "--y0", "1e308", "--method", "quadrature"),
    ("period", "--bogus"),
    # the closed forms' amplitude cap, y0 = 2**60*l, at and above it
    ("period", "--y0", "1e308", "--method", "elliptic", "--format", "json"),
    ("period", "--y0", repr(2.0**60 * 1.25), "--method", "all", "--format", "json"),
    ("period", "--y0", repr(2.0**61 * 1.25), "--method", "all", "--format", "json"),
    ("sweep", "--sweep", "y0", "--from", "0.1", "--to", "1.0", "--points", "4"),
    ("sweep", "--sweep", "sigma", "--from", "0.1", "--to", "10", "--points", "3", "--log", "--method", "all"),
    ("sweep", "--sweep", "l", "--from", "1.1", "--to", "3", "--points", "3", "--method", "elliptic", "--format", "json"),
    ("sweep", "--sweep", "mass", "--from", "0.5", "--to", "2", "--points", "2"),
    ("sweep", "--sweep", "l0", "--from", "0.5", "--to", "1.2", "--points", "3"),
    ("convergence",),
    ("convergence", "--from", "0.01", "--to", "0.04", "--points", "3", "--format", "json"),
    ("convergence", "--points", "1"),
    ("convergence", "--from", "1e-12", "--to", "1e-11"),
    ("trajectory", "--periods", "2"),
    ("verify", "--samples", "40", "--seed", "3"),
    ("verify", "--samples", "0"),
    ("verify", "--samples", "200", "--tol", "1e-3"),
    ("--help",),
    ("sweep", "--help"),
)


class Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, value: object) -> None:
        self._h.update(repr(value).encode() + b"\n")

    def call(self, fn, *args) -> object:
        try:
            out = fn(*args)
        except Exception as exc:  # a raise is an output too
            out = type(exc).__name__
        self.add(out)
        return out

    def hexdigest(self) -> str:
        return self._h.hexdigest()


ENGINE_DIGESTS = (
    "exact_period", "period_elliptic", "compute_bounds",
    "check_sandwich(quadrature)", "check_sandwich(elliptic)",
    "check_sandwich(quadrature).passed", "check_sandwich(elliptic).passed", "radicand_g",
)


def digest_engines(d: dict[str, Digest], osc) -> None:
    """Add osc's ENGINE_DIGESTS outputs to d, radicand_g at y = 0, y0/2, y0."""
    quad = d["exact_period"].call(quadrature.exact_period, osc)
    ell = d["period_elliptic"].call(elliptic.period_elliptic, osc)
    d["compute_bounds"].call(bounds.compute_bounds, osc)
    for label, est in (("quadrature", quad), ("elliptic", ell)):
        name = f"check_sandwich({label})"
        if isinstance(est, str):
            d[name].add(None)
            d[name + ".passed"].add(None)
        else:
            report = d[name].call(bounds.check_sandwich, osc, est)
            d[name + ".passed"].add(report if isinstance(report, str) else report.passed)
    for y in (0.0, 0.5 * osc.y0, osc.y0):
        d["radicand_g"].call(quadrature.radicand_g, osc, y)


def library_digests() -> dict[str, str]:
    d = {name: Digest() for name in ENGINE_DIGESTS + ("acceleration",)}
    for seed in SEEDS:
        for name, band in BANDS:
            rng = np.random.default_rng([seed, workloads.WORKLOADS.index(name)])
            for osc in workloads.draw(rng, workloads.EngineRows.pool, band):
                digest_engines(d, osc)
                for y in (0.0, 0.5 * osc.y0, osc.y0):
                    d["acceleration"].call(model.acceleration, osc.params, y)
    return {name: dig.hexdigest() for name, dig in d.items()}


def wide_draws(rng: np.random.Generator, n: int) -> list[tuple[float, ...]]:
    """(l0, l, sigma, mass, y0) rows over the whole float range; l or y0
    may overflow, and StringParams or Oscillation then refuses the row."""

    def log_uniform(lo: float, hi: float) -> np.ndarray:
        return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

    l0, stretch = log_uniform(1e-300, 1e300), log_uniform(1e-15, 1e15)
    sigma, mass = log_uniform(1e-300, 1e300), log_uniform(1e-300, 1e300)
    amp = np.where(np.arange(n) % 2 == 0, log_uniform(1e-300, 1e300), log_uniform(1e-6, 1e6))
    with np.errstate(over="ignore"):
        l = l0 * (1.0 + stretch)
        y0 = amp * l
    return list(zip(l0.tolist(), l.tolist(), sigma.tolist(), mass.tolist(), y0.tolist()))


def whole_range_digests() -> dict[str, str]:
    names = ("StringParams",) + ENGINE_DIGESTS + ("simulate", "measure_period")
    d = {name: Digest() for name in names}

    def oscillation(l0, l, sigma, mass, y0):
        osc = model.Oscillation(model.StringParams(l0, l, sigma, mass), y0)
        return osc, [getattr(osc.params, name) for name in model.StringParams.__slots__], osc._unit_y0

    rng = np.random.default_rng(2008)
    for i, row in enumerate(wide_draws(rng, WIDE_DRAWS)):
        made = d["StringParams"].call(oscillation, *row)
        if isinstance(made, str):
            continue
        osc = made[0]
        digest_engines(d, osc)
        if i % WIDE_ODE_EVERY == 0:
            traj = d["simulate"].call(odesim.simulate, osc)
            if isinstance(traj, str):
                d["measure_period"].add(None)
            else:
                d["simulate"].add(trajectory_fields(traj))
                d["measure_period"].call(odesim.measure_period, traj)
    return {f"whole-range {name}": dig.hexdigest() for name, dig in d.items()}


def trajectory_fields(traj: odesim.Trajectory) -> tuple:
    arrays = (traj.t, traj.y, traj.v, traj.e, traj.events)
    return [a.tobytes() for a in arrays], traj.n_accepted, traj.n_rejected, traj.local_err


def simulate_digests() -> dict[str, str]:
    names = ("simulate", "measure_period", "simulate(n_periods=1)")
    d = {name: Digest() for name in names}
    rng = np.random.default_rng([1, workloads.WORKLOADS.index("ode")])
    oscs = workloads.draw(rng, SIM_RUNS, workloads.SMALL) + workloads.draw(rng, SIM_RUNS, workloads.LARGE)
    one_period = odesim.SimConfig(n_periods=1)
    for osc in oscs:
        traj = d["simulate"].call(odesim.simulate, osc)
        if isinstance(traj, str):
            d["measure_period"].add(None)
        else:
            d["simulate"].add(trajectory_fields(traj))
            d["measure_period"].call(odesim.measure_period, traj)
        traj = d["simulate(n_periods=1)"].call(odesim.simulate, osc, one_period)
        if not isinstance(traj, str):
            d["simulate(n_periods=1)"].add(trajectory_fields(traj))
            d["simulate(n_periods=1)"].call(odesim.measure_period, traj)
    return {name: dig.hexdigest() for name, dig in d.items()}


def cli_digest(argv: tuple[str, ...]) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "ssp.cli", *argv], env=env, capture_output=True, timeout=300
    )
    crash = " traceback" if b"Traceback" in done.stderr else ""
    # warnings.showwarning's "file:line: Category: message"
    warned = " warning" if re.search(rb":\d+: \w*Warning: ", done.stderr) else ""
    tail = f"\nexit {done.returncode}{crash}{warned}\n"
    summary = b"".join(re.findall(rb"(?m)^(?:sweep: |fitted \|R\| slope: ).*\n", done.stderr))
    return hashlib.sha256(done.stdout + tail.encode() + summary).hexdigest()


def digests():
    """(name, digest) of every output, in the order they print."""
    yield from library_digests().items()
    yield from simulate_digests().items()
    yield from whole_range_digests().items()
    for argv in CLI_COMMANDS:
        yield f"ssp {' '.join(argv)}", cli_digest(argv)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", help="compare with FILE's digests instead")
    args = parser.parse_args()
    if args.check is None:
        print(f"# Python {platform.python_version()}, numpy {np.__version__}, "
              f"{platform.system()} {platform.machine()}")
        for name, digest in digests():
            print(f"{digest}  {name}")
        return
    lines = Path(args.check).read_text().splitlines()
    expected = dict(reversed(line.split("  ", 1)) for line in lines if not line.startswith("#"))
    moved = 0
    for name, digest in digests():
        if expected.pop(name, None) != digest:
            moved += 1
            print(f"{digest}  {name}")
    for name in expected:
        moved += 1
        print(f"{'(gone)':<64}  {name}")
    sys.exit(1 if moved else 0)


if __name__ == "__main__":
    main()
