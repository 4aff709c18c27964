"""Command-line front-end.

Subcommands: period (single-shot computation), sweep (one parameter varied
over a grid), trajectory (simulation samples), verify (randomized invariant
suite), convergence (amplitude study of the linear-limit error with a fitted
log-log slope).

Machine formats use shortest round-trip floats (repr), so CSV and JSON carry
identical numeric content at 17 significant digits; human summaries use 7.
Data goes to stdout, diagnostics to stderr. Exit codes: 0 ok, 1 invalid
input, 2 numerical-engine failure, 3 invariant violation (verify only).
Flags are the only settings; no environment variable changes a result.
period, verify and linear sweeps run without numpy; sweep --log, convergence
(for its log grid) and trajectory import it where they use it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Sequence

from .bounds import _BOUND_ULPS, check_sandwich, compute_bounds
from .elliptic import period_elliptic
from .errors import EngineFailure, InvalidParameters
from .model import Oscillation, StringParams, rayleigh_period
from .odesim import SimConfig, _release, measure_period, simulate
from .quadrature import Method, PeriodEstimate, exact_period
from .verify import run_invariant_suite

__all__ = ["main", "entrypoint"]

_TOL_MIN = 1e-15
_TOL_MAX = 1e-3
_METHODS = ("quadrature", "elliptic", "ode")
# the most grid points: at 8 bytes a point, sys.maxsize/8 fill the address
# space, and numpy fails sizes near that with ValueError or IndexError where a
# smaller one raises MemoryError (exit 1); half of it keeps clear of them
_POINTS_MAX = sys.maxsize // 16


def _fmt_machine(value: object) -> str:
    """A bool as true or false, a float (every other value) as its repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def _write_csv(rows: Sequence[dict[str, object]], header: Sequence[str]) -> None:
    out = sys.stdout
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt_machine(row[k]) for k in header) + "\n")


def _json_ready(value: object) -> object:
    """Non-finite floats become the CSV's tokens ("inf", "-inf", "nan"),
    which JSON has no number for."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_ready(v) for v in value]
    return value


def _write_json(payload: object) -> None:
    import json

    text = json.dumps(_json_ready(payload), indent=2, allow_nan=False)
    sys.stdout.write(text + "\n")


def _checked_tol(explicit: float | None, fallback: float) -> float:
    """--tol if given, else the fallback, refused outside [_TOL_MIN, _TOL_MAX]."""
    tol = fallback if explicit is None else explicit
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise InvalidParameters(
            f"tol must be in [{_TOL_MIN:g}, {_TOL_MAX:g}], got {tol!r}"
        )
    return tol


def _oscillation(args: argparse.Namespace, **override: float) -> Oscillation:
    """The oscillation the flags describe, with override's values in place."""
    v = {**vars(args), **override}
    return Oscillation(StringParams(v["l0"], v["l"], v["sigma"], v["mass"]), v["y0"])


def _ode_estimate(osc: Oscillation, cfg: SimConfig) -> PeriodEstimate:
    # the rest state has no turning point to simulate
    if osc.y0 == 0.0:
        return PeriodEstimate(rayleigh_period(osc.params), Method.ODE_SIM, 0.0)
    return measure_period(_release(osc, cfg))


def _build_row(
    osc: Oscillation,
    methods: Sequence[str],
    quad_tol: float,
    sim_cfg: SimConfig,
) -> dict[str, object]:
    """One output record; the quadrature period anchors R and the verdict."""
    p = osc.params
    row: dict[str, object] = {
        "l0": p.l0,
        "l": p.l,
        "sigma": p.sigma,
        "mass": p.mass,
        "y0": osc.y0,
    }
    quad = exact_period(osc, quad_tol)
    if "quadrature" in methods:
        row["period_quadrature"] = quad.value
    if "elliptic" in methods:
        row["period_elliptic"] = period_elliptic(osc).value
    if "ode" in methods:
        row["period_ode"] = _ode_estimate(osc, sim_cfg).value
    bounds = compute_bounds(osc)
    row["upper"] = bounds.upper
    row["lower_corrected"] = bounds.lower_corrected
    row["lower_printed"] = bounds.lower_printed
    row["R"] = (quad.value - bounds.upper) / quad.value
    row["R_bound_corrected"] = bounds.rel_error_bound_corrected
    row["pass"] = check_sandwich(osc, quad).passed
    return row


def _selected_methods(raw: str) -> tuple[str, ...]:
    return _METHODS if raw == "all" else (raw,)


def _engine_configs(args: argparse.Namespace) -> tuple[float, SimConfig]:
    """Quadrature tolerance and simulation config."""
    tol = _checked_tol(args.tol, 1e-12)
    return tol, SimConfig(rel_tol=_checked_tol(args.tol, 1e-10))


def cmd_period(args: argparse.Namespace) -> int:
    osc = _oscillation(args)
    quad_tol, sim_cfg = _engine_configs(args)
    methods = _selected_methods(args.method)
    row = _build_row(osc, methods, quad_tol, sim_cfg)
    header = list(row.keys())
    if args.format == "csv":
        _write_csv([row], header)
    elif args.format == "json":
        _write_json(row)
    else:
        p = osc.params
        print(
            f"l0={p.l0:.7g}  l={p.l:.7g}  sigma={p.sigma:.7g}  "
            f"mass={p.mass:.7g}  y0={osc.y0:.7g}"
        )
        for m in methods:
            print(f"{'period (' + m + ')':<20s}{row['period_' + m]:.7g}")
        print(f"{'upper bound':<20s}{row['upper']:.7g}")
        print(f"{'lower (corrected)':<20s}{row['lower_corrected']:.7g}")
        print(f"{'lower (printed)':<20s}{row['lower_printed']:.7g}")
        print(f"{'R':<20s}{row['R']:.7g}")
        print(f"{'R lower bound':<20s}{row['R_bound_corrected']:.7g}")
        print(f"{'sandwich':<20s}{'pass' if row['pass'] else 'FAIL'}")
    return 0


def _grid(low: float, high: float, points: int, log: bool) -> Sequence[float]:
    """points values from low to high, spaced evenly or, with log, geometrically.

    The linear grid is np.linspace's recipe, bit for bit. The log grid stays
    np.geomspace, whose SIMD log10 and power differ from libm's in the last
    bit, so no pure-Python copy would keep log sweeps' outputs.
    """
    if points < 1:
        raise InvalidParameters(f"points must be >= 1, got {points}")
    if points > _POINTS_MAX:
        raise InvalidParameters(f"points must be <= {_POINTS_MAX}, got {points}")
    if not (math.isfinite(low) and math.isfinite(high)):
        raise InvalidParameters("grid endpoints must be finite")
    if points == 1:
        return [low]
    if log:
        if low <= 0.0 or high <= 0.0:
            raise InvalidParameters("log grids need positive endpoints")
        import numpy as np

        return np.geomspace(low, high, points)
    div = points - 1
    delta = high - low
    if not math.isfinite(delta):
        raise InvalidParameters(f"grid span {high!r} - {low!r} overflows")
    step = delta / div
    if step == 0.0:
        # equal endpoints, or a step that underflows: scale by delta last
        grid = [i / div * delta + low for i in range(div)]
    else:
        grid = [i * step + low for i in range(div)]
    return [*grid, high]


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.low is None or args.high is None:
        raise InvalidParameters("sweep needs both --from and --to")
    quad_tol, sim_cfg = _engine_configs(args)
    methods = _selected_methods(args.method)
    rows = [
        _build_row(_oscillation(args, **{args.sweep: float(value)}), methods, quad_tol, sim_cfg)
        for value in _grid(args.low, args.high, args.points, args.log)
    ]
    header = list(rows[0].keys())
    if args.format == "json":
        _write_json(rows)
    else:
        _write_csv(rows, header)
    n_pass = sum(1 for r in rows if r["pass"])
    print(f"sweep: {n_pass}/{len(rows)} rows pass the sandwich check", file=sys.stderr)
    return 0


def cmd_trajectory(args: argparse.Namespace) -> int:
    osc = _oscillation(args)
    sim_cfg = _engine_configs(args)[1]
    traj = simulate(osc, SimConfig(sim_cfg.rel_tol, args.periods))
    header = ["t", "y", "v", "E"]
    rows = [
        {"t": float(t), "y": float(y), "v": float(v), "E": float(e)}
        for t, y, v, e in zip(traj.t, traj.y, traj.v, traj.e)
    ]
    if args.format == "json":
        _write_json(rows)
    else:
        _write_csv(rows, header)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    tol = _checked_tol(args.tol, 1e-12)
    report = run_invariant_suite(samples=args.samples, seed=args.seed, rel_tol=tol)
    for c in report.checks:
        status = "pass" if c.ok else "FAIL"
        print(
            f"{c.name:<24s} samples={c.samples:<5d} failures={c.failures:<4d} "
            f"worst={c.worst:.3e} {status}"
        )
    if report.passed:
        print(f"all invariants hold (seed={report.seed}, samples={report.samples})")
        return 0
    print(
        f"INVARIANT VIOLATION (seed={report.seed}, samples={report.samples})",
        file=sys.stderr,
    )
    return 3


def cmd_convergence(args: argparse.Namespace) -> int:
    low = args.low if args.low is not None else 0.01 * args.l
    high = args.high if args.high is not None else 0.2 * args.l
    if args.points < 2 or low == high:
        raise InvalidParameters("the slope fit needs two distinct amplitudes or more")
    tol = _checked_tol(args.tol, 1e-12)
    amps = _grid(low, high, args.points, log=True)
    header = ["y0", "period", "R", "R_bound_corrected"]
    rows = []
    for y0 in amps:
        osc = _oscillation(args, y0=float(y0))
        quad, bounds = exact_period(osc, tol), compute_bounds(osc)
        # within the quadrature's error and the bounds' rounding, R is noise
        gap = quad.value - bounds.upper
        if abs(gap) <= quad.err_estimate + _BOUND_ULPS * math.ulp(bounds.upper):
            raise InvalidParameters(
                f"|R| is within its error of 0 at y0={osc.y0!r}, too small for the slope fit"
            )
        row = (osc.y0, quad.value, gap / quad.value, bounds.rel_error_bound_corrected)
        rows.append(dict(zip(header, row)))
    # the least-squares slope of log|R| against log y0
    xs = [math.log(y0) for y0 in amps]
    ys = [math.log(abs(r["R"])) for r in rows]
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / math.fsum((x - x_mean) ** 2 for x in xs)
    if args.format == "json":
        _write_json({"rows": rows, "slope": slope})
    else:
        _write_csv(rows, header)
        print(f"fitted |R| slope: {slope:.7g}", file=sys.stderr)
    return 0


def _add_params(sub: argparse.ArgumentParser, with_y0: bool = True) -> None:
    sub.add_argument("--l0", type=float, default=1.0, help="relaxed half length")
    sub.add_argument("--l", type=float, default=1.25, help="stretched half length")
    sub.add_argument("--sigma", type=float, default=1.0, help="stiffness constant")
    sub.add_argument("--mass", type=float, default=1.0, help="particle mass")
    if with_y0:
        sub.add_argument("--y0", type=float, default=0.5, help="release amplitude")
    sub.add_argument("--tol", type=float, default=None, help="relative tolerance")


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ssp", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("period", help="compute the period of one configuration")
    _add_params(sp)
    sp.add_argument("--method", choices=_METHODS + ("all",), default="all")
    _add_format(sp)
    sp.set_defaults(func=cmd_period)

    sw = subs.add_parser("sweep", help="vary one parameter over a grid")
    _add_params(sw)
    sw.add_argument("--method", choices=_METHODS + ("all",), default="quadrature")
    sw.add_argument(
        "--sweep",
        choices=("l0", "l", "sigma", "mass", "y0"),
        required=True,
        help="parameter used as the sweep axis",
    )
    sw.add_argument("--from", dest="low", type=float, default=None)
    sw.add_argument("--to", dest="high", type=float, default=None)
    sw.add_argument("--points", type=int, default=10)
    sw.add_argument("--log", action="store_true", help="geometric grid spacing")
    _add_format(sw)
    sw.set_defaults(func=cmd_sweep)

    tr = subs.add_parser("trajectory", help="simulate and export t,y,v,E samples")
    _add_params(tr)
    tr.add_argument("--periods", type=float, default=10)
    _add_format(tr)
    tr.set_defaults(func=cmd_trajectory)

    ve = subs.add_parser("verify", help="run the randomized invariant suite")
    ve.add_argument("--samples", type=int, default=1000)
    ve.add_argument("--seed", type=int, default=0, help="RNG seed")
    ve.add_argument("--tol", type=float, default=None)
    ve.set_defaults(func=cmd_verify)

    cv = subs.add_parser(
        "convergence", help="amplitude study of the linear-limit error"
    )
    _add_params(cv, with_y0=False)
    cv.add_argument("--from", dest="low", type=float, default=None)
    cv.add_argument("--to", dest="high", type=float, default=None)
    cv.add_argument("--points", type=int, default=5)
    _add_format(cv)
    cv.set_defaults(func=cmd_convergence)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; the contract
        # reserves 2 for engine failures, so usage errors exit 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EngineFailure as exc:
        print(f"engine failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream consumer (head, etc.) closed the pipe mid-write.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
