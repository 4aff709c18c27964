"""Command-line front-end.

Subcommands: period (single-shot computation), sweep (one parameter varied
over a grid), trajectory (simulation samples), verify (randomized invariant
suite), convergence (amplitude study of the linear-limit error with a fitted
log-log slope).

Machine formats use shortest round-trip floats (repr), so CSV and JSON carry
identical numeric content at 17 significant digits; human summaries use 7.
Data goes to stdout, diagnostics to stderr. Exit codes: 0 ok, 1 invalid
input, 2 numerical-engine failure, 3 invariant violation (verify only).
Environment overrides for defaults: SSP_REL_TOL, SSP_SEED.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import Sequence

import numpy as np

from .bounds import check_sandwich, compute_bounds
from .elliptic import period_elliptic
from .errors import EngineFailure, InvalidParameters
from .model import Oscillation, StringParams, rayleigh_period
from .odesim import SimConfig, measure_period, simulate
from .quadrature import Method, PeriodEstimate, exact_period
from .verify import run_invariant_suite

__all__ = ["main", "entrypoint"]

_TOL_MIN = 1e-15
_TOL_MAX = 1e-3
_METHODS = ("quadrature", "elliptic", "ode")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract reserves 2 for engine
    failures, so usage errors are remapped to 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt_machine(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
    text = json.dumps(_json_ready(payload), indent=2, allow_nan=False)
    sys.stdout.write(text + "\n")


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise InvalidParameters(f"{name} is not a number: {raw!r}") from None


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameters(f"{name} is not an integer: {raw!r}") from None


def _resolve_tol(explicit: float | None, fallback: float) -> float:
    tol = explicit
    if tol is None:
        tol = _env_float("SSP_REL_TOL")
    if tol is None:
        tol = fallback
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise InvalidParameters(
            f"tol must be in [{_TOL_MIN:g}, {_TOL_MAX:g}], got {tol!r}"
        )
    return tol


def _resolve_seed(explicit: int | None) -> int:
    seed = explicit
    if seed is None:
        seed = _env_int("SSP_SEED")
    if seed is None:
        seed = 0
    if seed < 0:
        raise InvalidParameters(f"seed must be >= 0, got {seed!r}")
    return seed


def _oscillation(args: argparse.Namespace) -> Oscillation:
    return Oscillation(
        StringParams(l0=args.l0, l=args.l, sigma=args.sigma, mass=args.mass), args.y0
    )


def _ode_estimate(osc: Oscillation, cfg: SimConfig) -> PeriodEstimate:
    # the rest state has no turning point to simulate
    if osc.y0 == 0.0:
        return PeriodEstimate(rayleigh_period(osc.params), Method.ODE_SIM, 0.0)
    return measure_period(simulate(osc, cfg))


def _build_row(
    osc: Oscillation,
    methods: Sequence[str],
    quad_tol: float,
    sim_cfg: SimConfig,
    elliptic_tol: float,
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
        row["period_elliptic"] = period_elliptic(osc, elliptic_tol).value
    if "ode" in methods:
        row["period_ode"] = _ode_estimate(osc, sim_cfg).value
    bounds = compute_bounds(osc)
    row["upper"] = bounds.upper
    row["lower_corrected"] = bounds.lower_corrected
    row["lower_printed"] = bounds.lower_printed
    row["R"] = (quad.value - bounds.upper) / quad.value
    row["R_bound_corrected"] = bounds.rel_error_bound_corrected
    verdict = check_sandwich(osc, quad)
    row["pass"] = verdict.lower_ok and verdict.upper_ok
    return row


def _selected_methods(raw: str) -> tuple[str, ...]:
    return _METHODS if raw == "all" else (raw,)


def _engine_configs(args: argparse.Namespace) -> tuple[float, SimConfig, float]:
    """Quadrature tolerance, simulation config and elliptic tolerance."""
    tol = _resolve_tol(args.tol, 1e-12)
    sim_tol = max(_resolve_tol(args.tol, 1e-10), 1e-13)
    return tol, SimConfig(rel_tol=sim_tol), min(1e-13, tol)


def cmd_period(args: argparse.Namespace) -> int:
    osc = _oscillation(args)
    quad_tol, sim_cfg, elliptic_tol = _engine_configs(args)
    methods = _selected_methods(args.method)
    row = _build_row(osc, methods, quad_tol, sim_cfg, elliptic_tol)
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


def _grid(low: float, high: float, points: int, log: bool) -> np.ndarray:
    if points < 1:
        raise InvalidParameters(f"points must be >= 1, got {points}")
    if not (math.isfinite(low) and math.isfinite(high)):
        raise InvalidParameters("grid endpoints must be finite")
    if points == 1:
        return np.asarray([low])
    if log:
        if low <= 0.0 or high <= 0.0:
            raise InvalidParameters("log grids need positive endpoints")
        return np.geomspace(low, high, points)
    return np.linspace(low, high, points)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.low is None or args.high is None:
        raise InvalidParameters("sweep needs both --from and --to")
    quad_tol, sim_cfg, elliptic_tol = _engine_configs(args)
    methods = _selected_methods(args.method)
    base = {
        "l0": args.l0,
        "l": args.l,
        "sigma": args.sigma,
        "mass": args.mass,
        "y0": args.y0,
    }
    rows = []
    for value in _grid(args.low, args.high, args.points, args.log):
        vals = dict(base)
        vals[args.sweep] = float(value)
        osc = Oscillation(
            StringParams(vals["l0"], vals["l"], vals["sigma"], vals["mass"]),
            vals["y0"],
        )
        rows.append(_build_row(osc, methods, quad_tol, sim_cfg, elliptic_tol))
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
    if osc.y0 == 0.0:
        raise InvalidParameters("trajectory needs y0 > 0")
    if args.periods < 1:
        raise InvalidParameters(f"periods must be >= 1, got {args.periods}")
    sim_cfg = _engine_configs(args)[1]
    traj = simulate(osc, replace(sim_cfg, n_periods=args.periods))
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
    if args.samples < 1:
        raise InvalidParameters(f"samples must be >= 1, got {args.samples}")
    tol = _resolve_tol(args.tol, 1e-12)
    seed = _resolve_seed(args.seed)
    report = run_invariant_suite(samples=args.samples, seed=seed, rel_tol=tol)
    for c in report.checks:
        status = "pass" if c.ok else "FAIL"
        print(
            f"{c.name:<24s} samples={c.samples:<5d} failures={c.failures:<4d} "
            f"worst={c.worst:.3e} tol={c.tolerance:.1e} {status}"
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
    osc_base = Oscillation(
        StringParams(l0=args.l0, l=args.l, sigma=args.sigma, mass=args.mass), 1.0
    )
    p = osc_base.params
    low = args.low if args.low is not None else 0.01 * p.l
    high = args.high if args.high is not None else 0.2 * p.l
    if args.points < 2:
        raise InvalidParameters(f"points must be >= 2, got {args.points}")
    if low <= 0.0 or high <= 0.0 or low == high:
        raise InvalidParameters("convergence needs distinct positive y0 endpoints")
    quad_tol = _resolve_tol(args.tol, 1e-12)
    amps = np.geomspace(low, high, args.points)
    rows = []
    for y0 in amps:
        osc = Oscillation(p, float(y0))
        period = exact_period(osc, quad_tol).value
        bounds = compute_bounds(osc)
        rows.append(
            {
                "y0": float(y0),
                "period": period,
                "R": (period - bounds.upper) / period,
                "R_bound_corrected": bounds.rel_error_bound_corrected,
            }
        )
    slope = float(
        np.polyfit(np.log(amps), np.log([abs(r["R"]) for r in rows]), 1)[0]
    )
    if args.format == "json":
        _write_json({"rows": rows, "slope": slope})
    else:
        _write_csv(rows, ["y0", "period", "R", "R_bound_corrected"])
        print(f"fitted |R| slope: {slope:.7g}", file=sys.stderr)
    return 0


def _add_params(sub: argparse.ArgumentParser, with_y0: bool = True) -> None:
    sub.add_argument("--l0", type=float, default=1.0, help="relaxed half length")
    sub.add_argument("--l", type=float, default=1.25, help="stretched half length")
    sub.add_argument("--sigma", type=float, default=1.0, help="stiffness constant")
    sub.add_argument("--mass", type=float, default=1.0, help="particle mass")
    if with_y0:
        sub.add_argument("--y0", type=float, default=0.5, help="release amplitude")
    sub.add_argument(
        "--tol", type=float, default=None, help="relative tolerance (SSP_REL_TOL)"
    )


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ssp", description=__doc__.splitlines()[0])
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
    tr.add_argument("--periods", type=int, default=10)
    _add_format(tr)
    tr.set_defaults(func=cmd_trajectory)

    ve = subs.add_parser("verify", help="run the randomized invariant suite")
    ve.add_argument("--samples", type=int, default=1000)
    ve.add_argument("--seed", type=int, default=None, help="RNG seed (SSP_SEED)")
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
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EngineFailure as exc:
        print(f"engine failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (head, etc.) closed the pipe mid-write.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
