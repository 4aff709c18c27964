#!/usr/bin/env python3
"""Print SHA-256 digests of the library's outputs and of fixed CLI runs.

Two trees whose digests match compute the same bits. Each library digest
covers every field the function returns, in repr form, on the benchmark's
parameter pools: `perfbench.workloads.draw`, 8000 rows per band, seeds 1-3,
both amplitude bands (48000 rows); the `tension` and `rayleigh_solution`
digests also cover one string each at sigma/m = 1e600 and 1e-600. An
exception counts as its type name, so a row that raises in one tree and not
in the other changes the digest. The
`simulate` digest covers the arrays, counts and `local_err` of 128 default
runs, which stop at their first zero crossing, and the `measure_period`
digest the period estimates of the same runs. On the same 128 strings,
`simulate(n_periods=1)` covers the arrays, counts, `local_err` and period
estimate of a one-period run, and `integrate` the turning events of a run
over 1.25 linear periods from rest at y0: both read their events off the
velocity root of the continuous extension.
Each CLI digest covers one command's stdout, exit code and whether stderr
holds a traceback or a Python warning, run as a fresh `python -m ssp.cli`
process.

Run:  python3 scripts/output_digest.py
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from ssp import Oscillation, StringParams, bounds, elliptic, model, odesim, quadrature  # noqa: E402

SEEDS = (1, 2, 3)
BANDS = (("harmonic", workloads.SMALL), ("anharmonic", workloads.LARGE))
SIM_RUNS = 64  # per band
# sigma/m = 1e600 and 1e-600, beyond the float range
EXTREME = tuple(
    Oscillation(StringParams(1.0, 1.25, s, m), 0.5) for s, m in ((1e300, 1e-300), (1e-300, 1e300))
)

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


def model_rows(d: dict[str, Digest], osc: Oscillation) -> None:
    p = osc.params
    for y in (0.0, 0.5 * osc.y0, osc.y0):
        d["tension"].call(model.tension, p, y)
    period = model.rayleigh_period(p)
    for frac in (0.0, 0.25, 0.3, 0.5, 3.5):
        d["rayleigh_solution"].call(model.rayleigh_solution, p, osc.y0, frac * period)


def library_digests() -> dict[str, str]:
    names = (
        "exact_period", "period_elliptic", "compute_bounds",
        "check_sandwich(quadrature)", "check_sandwich(elliptic)", "speed", "radicand_g",
        "tension", "rayleigh_solution",
    )
    d = {name: Digest() for name in names}
    for seed in SEEDS:
        for name, band in BANDS:
            rng = np.random.default_rng([seed, workloads.WORKLOADS.index(name)])
            for osc in workloads.draw(rng, workloads.EngineRows.pool, band):
                quad = d["exact_period"].call(quadrature.exact_period, osc)
                ell = d["period_elliptic"].call(elliptic.period_elliptic, osc)
                d["compute_bounds"].call(bounds.compute_bounds, osc)
                for label, est in (("quadrature", quad), ("elliptic", ell)):
                    if isinstance(est, str):
                        d[f"check_sandwich({label})"].add(None)
                    else:
                        d[f"check_sandwich({label})"].call(bounds.check_sandwich, osc, est)
                for y in (0.0, 0.5 * osc.y0, osc.y0):
                    d["speed"].call(quadrature.speed, osc, y)
                    d["radicand_g"].call(quadrature.radicand_g, osc, y)
                model_rows(d, osc)
    for osc in EXTREME:
        model_rows(d, osc)
    return {name: dig.hexdigest() for name, dig in d.items()}


def trajectory_fields(traj: odesim.Trajectory) -> tuple:
    arrays = (traj.t, traj.y, traj.v, traj.e, traj.events)
    return [a.tobytes() for a in arrays], traj.n_accepted, traj.n_rejected, traj.local_err


def events_over(osc: Oscillation, periods: float) -> bytes:
    span = (0.0, periods * model.rayleigh_period(osc.params))
    return odesim.integrate(osc, span, (osc.y0, 0.0)).events.tobytes()


def simulate_digests() -> dict[str, str]:
    names = ("simulate", "measure_period", "simulate(n_periods=1)", "integrate")
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
        d["integrate"].call(events_over, osc, 1.25)
    return {name: dig.hexdigest() for name, dig in d.items()}


def cli_digest(argv: tuple[str, ...]) -> str:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SSP_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-m", "ssp.cli", *argv], env=env, capture_output=True, timeout=300
    )
    crash = " traceback" if b"Traceback" in done.stderr else ""
    # warnings.showwarning's "file:line: Category: message"
    warned = " warning" if re.search(rb":\d+: \w*Warning: ", done.stderr) else ""
    tail = f"\nexit {done.returncode}{crash}{warned}\n"
    return hashlib.sha256(done.stdout + tail.encode()).hexdigest()


def main() -> None:
    for name, digest in library_digests().items():
        print(f"{digest}  {name}")
    for name, digest in simulate_digests().items():
        print(f"{digest}  {name}")
    for argv in CLI_COMMANDS:
        print(f"{cli_digest(argv)}  ssp {' '.join(argv)}")


if __name__ == "__main__":
    main()
