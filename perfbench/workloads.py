"""Inputs, rows and output checks of the four benchmark workloads.

Every row is driven through the public functions of an `ssp` module, looked
up on the module at call time so that the tracer can interpose. Outputs are
checked after the timed loop against an independent numpy reference: a
4096-node midpoint rule on the sin-substituted period integral, whose
integrand is smooth and even about both ends, so the rule converges
geometrically and agrees with the engines to a few ulps up to y0/l = 100.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ssp import bounds, cli, elliptic, odesim, quadrature, verify
from ssp.model import Oscillation, StringParams
from ssp.quadrature import Method

ROOT = Path(__file__).resolve().parent.parent

# verify's log-uniform ranges; the workloads differ only in the y0/l band
L0 = (0.5, 2.0)
STRETCH = (1.01, 10.0)
SIGMA_OVER_M = (1e-2, 1e2)
MASS = (0.5, 2.0)
SMALL = (1e-4, 1.0)
LARGE = (1.0, 100.0)

# relative tolerances against the reference: the engines' own defaults are
# rel_tol 1e-12 (quadrature), 1e-13 (Carlson) and 1e-10 (DP5 steps)
EXACT_TOL = 1e-12
ODE_TOL = 1e-8

WORKLOADS = ("harmonic", "anharmonic", "ode", "cli")


def _log_uniform(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Latin-hypercube draw: one point in each of n equal log strata, shuffled.

    Stratifying keeps the cost mix of a pool steady from seed to seed.
    """
    u = (rng.permutation(n) + rng.random(n)) / n
    return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def draw(rng: np.random.Generator, n: int, band: tuple[float, float]) -> list[Oscillation]:
    l0 = _log_uniform(rng, n, *L0)
    l = l0 * _log_uniform(rng, n, *STRETCH)
    mass = _log_uniform(rng, n, *MASS)
    sigma = _log_uniform(rng, n, *SIGMA_OVER_M) * mass
    y0 = _log_uniform(rng, n, *band) * l
    return [
        Oscillation(StringParams(float(l0[i]), float(l[i]), float(sigma[i]), float(mass[i])), float(y0[i]))
        for i in range(n)
    ]


def reference_periods(oscs: list[Oscillation], nodes: int = 4096) -> np.ndarray:
    """Midpoint rule on P = 4*sqrt(m/(2*sigma)) * int_0^{pi/2} g(y0*sin t)^-1/2 dt."""
    p = [(o.params.l0, o.params.l, o.params.sigma, o.params.mass, o.y0) for o in oscs]
    l0, l, sigma, mass, y0 = (np.array(c)[:, None] for c in zip(*p))
    h = 0.5 * math.pi / nodes
    sin_t = np.sin((np.arange(nodes) + 0.5) * h)[None, :]
    out = np.empty(len(oscs))
    for s in range(0, len(oscs), 64):
        c = slice(s, s + 64)
        y = y0[c] * sin_t
        z = np.hypot(l[c], y)
        z0 = np.hypot(l[c], y0[c])
        gap = (l[c] - l0[c]) * (l[c] + l0[c])
        # z - l0 and z0 - l0 through their square gaps: no cancellation at l ~ l0
        g = ((gap + y * y) / (z + l0[c]) + (gap + y0[c] ** 2) / (z0 + l0[c])) / (l0[c] * (z + z0))
        integral = h * np.sum(1.0 / np.sqrt(g), axis=1)
        out[c] = 4.0 * np.sqrt(mass[c, 0] / (2.0 * sigma[c, 0])) * integral
    return out


def _close(value: float, ref: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol * ref


class EngineRows:
    """harmonic / anharmonic: exact_period, period_elliptic, compute_bounds,
    check_sandwich on one oscillation per row."""

    stages = ("row", "quad", "elliptic", "bounds")
    ops_per_row = 4
    window_s = 0.003
    tail = 95.0
    pool = 8000
    trace_rows = range(400)

    def __init__(self, name: str, seed: int) -> None:
        band = SMALL if name == "harmonic" else LARGE
        self.oscs = draw(np.random.default_rng([seed, WORKLOADS.index(name)]), self.pool, band)
        self._ref: np.ndarray | None = None

    def row(self, i: int):
        osc = self.oscs[i]
        clock = time.perf_counter
        t0 = clock()
        q = quadrature.exact_period(osc)
        t1 = clock()
        e = elliptic.period_elliptic(osc)
        t2 = clock()
        b = bounds.compute_bounds(osc)
        s = bounds.check_sandwich(osc, q)
        t3 = clock()
        key = (q.value, e.value, e.method, b.lower_corrected, b.upper, s.passed, q.err_estimate)
        return (t3 - t0, t1 - t0, t2 - t1, t3 - t2), key

    def check(self, i: int, key) -> int:
        """Number of the row's operations whose output is wrong."""
        if self._ref is None:
            self._ref = reference_periods(self.oscs)
        ref = float(self._ref[i])
        quad, ell, _, lower, upper, passed, _ = key
        inside = lower <= ref * (1.0 + EXACT_TOL) and ref <= upper * (1.0 + EXACT_TOL)
        return (
            (not _close(quad, ref, EXACT_TOL))
            + (not _close(ell, ref, EXACT_TOL))
            + (not (math.isfinite(lower) and math.isfinite(upper) and inside))
            + (not passed)
        )

    def warm_up(self) -> None:
        self.row(0)

    traced_row = row

    def describe(self, i: int, key) -> str:
        ref = float(self._ref[i])
        quad, ell, method, lower, upper, passed, err = key
        return (f"{_describe(self.oscs[i])}: exact_period rel err {(quad - ref) / ref:.3g} "
                f"(err_estimate {err / ref:.3g}), period_elliptic ({method.value}) rel err "
                f"{(ell - ref) / ref:.3g}, bounds [{lower!r}, {upper!r}], sandwich {passed}")


class OdeRows:
    """ode: simulate + measure_period with the default SimConfig, both bands
    in alternate rows."""

    stages = ("row",)
    ops_per_row = 2
    window_s = 0.03
    tail = 90.0
    pool = 256
    trace_rows = range(10)

    def __init__(self, name: str, seed: int) -> None:
        rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        small = draw(rng, self.pool // 2, SMALL)
        large = draw(rng, self.pool // 2, LARGE)
        self.oscs = [o for pair in zip(small, large) for o in pair]
        self._ref: np.ndarray | None = None

    def row(self, i: int):
        osc = self.oscs[i]
        t0 = time.perf_counter()
        traj = odesim.simulate(osc)
        est = odesim.measure_period(traj)
        t1 = time.perf_counter()
        return (t1 - t0,), (est.value, traj.events.size, traj.n_accepted, traj.n_rejected)

    def check(self, i: int, key) -> int:
        if self._ref is None:
            self._ref = reference_periods(self.oscs)
        value, events, _, _ = key
        want = 2 * odesim.SimConfig().n_periods + 1
        return (events != want) + (not _close(value, float(self._ref[i]), ODE_TOL))

    def warm_up(self) -> None:
        self.row(0)

    traced_row = row

    def kind(self, i: int) -> str:
        return "ode"

    def describe(self, i: int, key) -> str:
        ref = float(self._ref[i])
        return f"{_describe(self.oscs[i])}: period rel err {(key[0] - ref) / ref:.3g}, {key[1]} events"


def _describe(osc: Oscillation) -> str:
    p = osc.params
    return f"l0={p.l0!r} l={p.l!r} sigma={p.sigma!r} mass={p.mass!r} y0={osc.y0!r}"


def _params_argv(osc: Oscillation) -> list[str]:
    p = osc.params
    return ["--l0", repr(p.l0), "--l", repr(p.l), "--sigma", repr(p.sigma), "--mass", repr(p.mass)]


class CliRows:
    """cli: `ssp period`, `ssp sweep --sweep y0 --log` and `ssp verify`, each
    row one process started from a fresh interpreter."""

    stages = ("row",)
    ops_per_row = 1
    # two commands per reference-process window
    window_s = 0.3
    tail = 75.0
    cycles = 24
    sweep_points = 20
    verify_samples = 200
    # period (small band), sweep, verify, period (large band)
    trace_rows = range(4)

    def __init__(self, name: str, seed: int) -> None:
        rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        small = draw(rng, self.cycles, SMALL)
        large = draw(rng, self.cycles, LARGE)
        swept = draw(rng, self.cycles, SMALL)
        self.rows: list[tuple[str, Oscillation | None, list[str]]] = []
        for c in range(self.cycles):
            osc = small[c] if c % 2 == 0 else large[c]
            self.rows.append(
                ("period", osc, ["period", *_params_argv(osc), "--y0", repr(osc.y0), "--format", "json"])
            )
            base = swept[c]
            lo, hi = SMALL[0] * base.params.l, LARGE[1] * base.params.l
            self.rows.append(
                ("sweep", base, ["sweep", "--sweep", "y0", "--log", "--from", repr(lo), "--to", repr(hi),
                                 "--points", str(self.sweep_points), *_params_argv(base)])
            )
            self.rows.append(
                ("verify", None, ["verify", "--samples", str(self.verify_samples), "--seed", str(seed * 1000 + c)])
            )
        self.pool = len(self.rows)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def row(self, i: int):
        argv = [sys.executable, "-m", "ssp.cli", *self.rows[i][2]]
        t0 = time.perf_counter()
        done = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True, timeout=60)
        t1 = time.perf_counter()
        return (t1 - t0,), (done.returncode, done.stdout)

    def traced_row(self, i: int):
        """The same argument vector through ssp.cli.main, output captured."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self.rows[i][2])
        return (), (code, out.getvalue().encode())

    def warm_up(self) -> None:
        self.traced_row(0)

    def kind(self, i: int) -> str:
        return self.rows[i][0]

    def describe(self, i: int, key) -> str:
        return f"ssp {' '.join(self.rows[i][2])}: exit {key[0]}"

    def check(self, i: int, key) -> int:
        code, stdout = key
        if code != 0:
            return 1
        kind, osc, _ = self.rows[i]
        text = stdout.decode()
        if kind == "verify":
            return int("all invariants hold" not in text)
        if kind == "period":
            out = json.loads(text)
            ref = float(reference_periods([osc])[0])
            quad = quadrature.exact_period(osc).value
            ell = elliptic.period_elliptic(osc).value
            ode = odesim.measure_period(odesim.simulate(osc)).value
            ok = (
                (out["period_quadrature"], out["period_elliptic"], out["period_ode"]) == (quad, ell, ode)
                and _close(quad, ref, EXACT_TOL)
                and _close(ell, ref, EXACT_TOL)
                and _close(ode, ref, ODE_TOL)
                and out["pass"] is True
            )
            return int(not ok)
        rows = list(csv.DictReader(io.StringIO(text)))
        p = osc.params
        grid = np.geomspace(SMALL[0] * p.l, LARGE[1] * p.l, self.sweep_points)
        oscs = [Oscillation(p, float(y0)) for y0 in grid]
        refs = reference_periods(oscs)
        ok = len(rows) == len(oscs) and all(
            float(r["y0"]) == o.y0
            and float(r["period_quadrature"]) == quadrature.exact_period(o).value
            and _close(float(r["period_quadrature"]), float(ref), EXACT_TOL)
            and r["pass"] == "true"
            for r, o, ref in zip(rows, oscs, refs)
        )
        return int(not ok)


def make(name: str, seed: int):
    if name == "cli":
        return CliRows(name, seed)
    if name == "ode":
        return OdeRows(name, seed)
    return EngineRows(name, seed)


def _fallbacks(tracer, est) -> None:
    tracer.count("period_elliptic.fallback", est.method is Method.ELLIPTIC_FALLBACK)


def _steps(tracer, traj) -> None:
    tracer.count("simulate.accepted", traj.n_accepted)
    tracer.count("simulate.rejected", traj.n_rejected)
    tracer.count("simulate.events", traj.events.size)


def install(tracer) -> None:
    """Wrap every binding the engines, the invariant suite and the CLI call."""
    for module, attr, observe in (
        (quadrature, "exact_period", None),
        (quadrature, "adaptive_gk", None),
        (quadrature, "radicand_g", None),
        (elliptic, "period_elliptic", _fallbacks),
        (elliptic, "exact_period", None),
        (elliptic, "rf", None),
        (elliptic, "rj", None),
        (odesim, "simulate", _steps),
        (odesim, "measure_period", None),
        (odesim, "acceleration", None),
        (bounds, "compute_bounds", None),
        (bounds, "check_sandwich", None),
        (verify, "exact_period", None),
        (verify, "period_elliptic", _fallbacks),
        (verify, "check_sandwich", None),
        (cli, "main", None),
        (cli, "exact_period", None),
        (cli, "period_elliptic", _fallbacks),
        (cli, "simulate", _steps),
        (cli, "measure_period", None),
        (cli, "compute_bounds", None),
        (cli, "check_sandwich", None),
        (cli, "run_invariant_suite", None),
    ):
        tracer.wrap(module, attr, observe)
