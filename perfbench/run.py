"""Benchmark of the ssp engines, invariant suite and CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seconds S]   every workload, both modes
    python3 perfbench/run.py --check-design           workload-design self-check

One process, one thread, closed loop: each row starts after the previous one
returns. With --trace 0 the run times rows for S seconds and reports the
end-to-end metrics; with --trace 1 it runs a fixed set of rows traced and
untraced, in turns, for S seconds and reports per-layer counts and self
times. The last line of standard output is one JSON object; the lines before
it are a readable table with sample counts, raw times and the calibration
probe time each figure was scaled with (see calib.py). Outputs are checked
against an independent reference after the timed loop; a wrong, non-finite
or raised output counts as a failed operation.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calib
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("harmonic", "anharmonic", "ode", "cli")
SETUP_PROBES = 7
IMPORT_PROBES = 5

E2E_UNITS = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "row_us_p50": "us",
    "row_us_tail": "us",
    "peak_rss_mb": "MB",
}


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def _line(name: str, value: float, unit: str, n: int, raw: float | None = None, probe: str = "") -> str:
    extra = "" if raw is None else f"  raw={raw:.6g}  probe={probe}"
    return f"  {name:<40s} {value:>14.6g} {unit:<6s} n={n}{extra}"


def _processes(argvs: list[list[str]]) -> tuple[calib.Clock, list[str]]:
    """Time each argv as a process, each between two reference processes.

    Returns the clock and the last stderr line of each process that failed.
    """
    clock = calib.Clock(1, 0.0, processes=True)
    failed = []
    for argv in argvs:
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        clock.add(time.perf_counter() - t0)
        if done.returncode != 0:
            failed.append(f"exit {done.returncode}: " + (done.stderr.strip().splitlines() or [""])[-1])
    return clock, failed


def run_timed(wl, workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    probe = [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    setup, probes_failed = _processes([probe] * SETUP_PROBES)

    clock = calib.Clock(len(wl.stages), wl.window_s, processes=workload == "cli")
    first: dict[int, object] = {}
    runs: dict[int, int] = {}
    idxs: list[int] = []
    attempted = 0
    raised: list[tuple[int, str]] = []
    changed: list[int] = []
    i = 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        idx = i % wl.pool
        i += 1
        attempted += wl.ops_per_row
        try:
            durations, key = wl.row(idx)
        except Exception as exc:  # a raised error fails the row, and the run goes on
            raised.append((idx, repr(exc)))
            continue
        clock.add(*durations)
        idxs.append(idx)
        runs[idx] = runs.get(idx, 0) + 1
        if idx not in first:
            first[idx] = key
        elif first[idx] != key:
            changed.append(idx)
    clock.finish()
    # children: the set-up probes (each runs one row in a fresh process) and,
    # for cli, the commands; the benchmark's own sample storage stays out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    wrong = []
    failed = wl.ops_per_row * (len(raised) + len(changed))
    for idx, key in first.items():
        try:
            bad = wl.check(idx, key)
        except Exception:  # an output that cannot be parsed or recomputed is wrong
            bad = wl.ops_per_row
        if bad:
            wrong.append(idx)
        failed += runs[idx] * bad
    failed = min(failed, attempted)
    # a set-up probe runs one warm-up row
    attempted += SETUP_PROBES * wl.ops_per_row
    failed += len(probes_failed) * wl.ops_per_row

    n = len(clock)
    if n == 0:
        raise RuntimeError("no row completed")
    cal, raw = clock.calibrated(0), clock.raw(0)
    probe_txt = f"{clock.probe_s() * 1e6:.4g}us" if workload != "cli" else f"{clock.probe_s():.4g}s"
    metrics = {
        "setup_s": (statistics.median(setup.calibrated()), SETUP_PROBES, statistics.median(setup.raw()),
                    f"{setup.probe_s():.4g}s"),
        "rows_per_s": (n / sum(cal), n, n / sum(raw), probe_txt),
        "row_us_p50": (statistics.median(cal) * 1e6, n, statistics.median(raw) * 1e6, probe_txt),
        "row_us_tail": (_percentile(cal, wl.tail) * 1e6, n, _percentile(raw, wl.tail) * 1e6, probe_txt),
        "peak_rss_mb": (peak_rss_mb, 1, None, ""),
    }
    lines = [f"# {workload} seed {seed}: {n} rows over {len(first)} distinct inputs, "
             f"row_us_tail is p{wl.tail:g}"]
    for name, (value, count, r, p) in metrics.items():
        lines.append(_line(name, value, E2E_UNITS[name], count, r, p))
    lines.append("  breakdown (printed, not gated):")
    for name, value, unit, count in breakdown(wl, clock, idxs):
        lines.append(_line(name, value, unit, count))
    lines.append(_line("fail_frac", failed / attempted, "ratio", attempted))
    lines += [f"# wrong output: {wl.describe(idx, first[idx])}" for idx in wrong[:5]]
    lines += [f"# raised {exc} on row {idx}" for idx, exc in raised[:5]]
    lines += [f"# output changed on repeat: {wl.describe(idx, first[idx])}" for idx in changed[:5]]
    lines += [f"# set-up probe failed, {msg}" for msg in probes_failed]
    out = {name: {"value": v[0], "unit": E2E_UNITS[name]} for name, v in metrics.items()}
    return out, attempted, failed, lines


def breakdown(wl, clock, idxs: list[int]):
    """Per-engine and per-command figures behind the row metrics."""
    if len(wl.stages) > 1:
        for col, stage in ((1, "quad"), (2, "elliptic"), (3, "bounds")):
            cal = clock.calibrated(col)
            yield f"{stage}_us_p50", statistics.median(cal) * 1e6, "us", len(cal)
            if stage != "bounds":
                yield f"{stage}_us_p99", _percentile(cal, 99) * 1e6, "us", len(cal)
        return
    cal = clock.calibrated(0)
    kinds: dict[str, list[float]] = {}
    for c, i in zip(cal, idxs):
        kinds.setdefault(wl.kind(i), []).append(c)
    for kind, sel in kinds.items():
        if kind == "ode":
            yield "ode_ms_p50", statistics.median(sel) * 1e3, "ms", len(sel)
            yield "ode_ms_p90", _percentile(sel, 90) * 1e3, "ms", len(sel)
        else:
            yield f"cli_{kind}_s", statistics.median(sel), "s", len(sel)


def run_traced(wl, workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Alternate traced and untraced passes over wl.trace_rows."""
    import workloads

    rows = list(wl.trace_rows)
    passes = []
    attempted = failed = 0
    spans = HERE / "out" / f"spans-{workload}-seed{seed}.npz"
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        tr = tracing.Tracer()
        workloads.install(tr)
        gc.collect()
        k0 = calib.kernel_time()
        t0 = time.perf_counter()
        try:
            keys = [tr.row(op, lambda i=i: wl.traced_row(i))[1] for op, i in enumerate(rows)]
        finally:
            t1 = time.perf_counter()
            tr.restore()
        k1 = calib.kernel_time()
        gc.collect()
        t2 = time.perf_counter()
        plain = [wl.traced_row(i)[1] for i in rows]
        t3 = time.perf_counter()
        k2 = calib.kernel_time()
        attempted += 2 * len(rows) * wl.ops_per_row
        for i, key, again in zip(rows, keys, plain):
            bad = wl.check(i, key)
            failed += bad + (wl.ops_per_row if again != key else bad)
        scale = 2.0 * calib.K_REF_S / (k0 + k1)
        overhead = (t1 - t0) * scale / ((t3 - t2) * 2.0 * calib.K_REF_S / (k1 + k2))
        passes.append((tr.summary(), dict(tr.counts), overhead, scale))
        if len(passes) == 1:
            first = tr
    spans.parent.mkdir(exist_ok=True)
    first.write(str(spans))

    def counts(p) -> tuple:
        return {name: calls for name, (calls, _) in p[0].items()}, p[1]

    repeat = all(counts(p) == counts(passes[0]) for p in passes)
    per_pass = [layer_metrics(summary, c, scale) for summary, c, _, scale in passes]
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit) for name, (_, unit) in per_pass[0].items()}
    metrics["cli.import_s"] = (import_seconds() if workload == "cli" else 0.0, "s")
    metrics["trace.overhead_frac"] = (statistics.median(p[2] for p in passes), "ratio")
    lines = [f"# {workload} seed {seed} traced: {len(passes)} passes of {len(rows)} rows, "
             f"counts repeat across passes: {repeat}, spans of pass 1 in {spans.relative_to(ROOT)}"]
    lines += [_line(name, value, unit, len(passes)) for name, (value, unit) in metrics.items()]
    if not repeat:
        failed += 1
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return out, attempted, min(failed, attempted), lines


def layer_metrics(summary: dict, counts: dict, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass; times calibrated by `scale`.

    A function's figures add up its spans under every binding; `<module>.
    <function>.calls` for a binding other than the home module counts only
    the calls through that binding.
    """

    def fn(func: str) -> tuple[int, float]:
        hits = [v for name, v in summary.items() if name.endswith("." + func)]
        return sum(c for c, _ in hits), sum(s for _, s in hits) * scale

    def per(total: float, n: float, unit: float = 1.0) -> float:
        return total / n * unit if n else 0.0

    def via(name: str) -> int:
        return summary.get(name, (0, 0.0))[0]

    quad_n, quad_s = fn("exact_period")
    gk_n, gk_s = fn("adaptive_gk")
    g_n, g_s = fn("radicand_g")
    ell_n, ell_s = fn("period_elliptic")
    rf_n, rf_s = fn("rf")
    rj_n, rj_s = fn("rj")
    sim_n, sim_s = fn("simulate")
    mp_n, mp_s = fn("measure_period")
    acc_n, acc_s = fn("acceleration")
    cb_n, cb_s = fn("compute_bounds")
    cs_n, cs_s = fn("check_sandwich")
    inv_n, inv_s = fn("run_invariant_suite")
    main_n, main_s = fn("main")
    evals = per(g_n, quad_n)
    accepted = counts.get("simulate.accepted", 0.0)
    rejected = counts.get("simulate.rejected", 0.0)
    return {
        "quadrature.exact_period.calls": (quad_n, "count"),
        "quadrature.exact_period.self_us": (per(quad_s, quad_n, 1e6), "us"),
        "quadrature.adaptive_gk.self_us": (per(gk_s, gk_n, 1e6), "us"),
        "quadrature.radicand_g.calls_per_period": (evals, "count"),
        "quadrature.radicand_g.self_us": (per(g_s, g_n, 1e6), "us"),
        # the crude trapezoid pass costs 33 evaluations, each GK15 panel 15
        "quadrature.panels_per_period": ((evals - 33.0) / 15.0 if evals else 0.0, "count"),
        "quadrature.budget_pass_frac": (33.0 / evals if evals else 0.0, "ratio"),
        "elliptic.period_elliptic.calls": (ell_n, "count"),
        "elliptic.period_elliptic.self_us": (per(ell_s, ell_n, 1e6), "us"),
        "elliptic.fallback_frac": (per(counts.get("period_elliptic.fallback", 0.0), ell_n), "ratio"),
        "elliptic.exact_period.calls": (via("elliptic.exact_period"), "count"),
        "elliptic.rf.calls": (rf_n, "count"),
        "elliptic.rf.self_us": (per(rf_s, rf_n, 1e6), "us"),
        "elliptic.rj.calls": (rj_n, "count"),
        "elliptic.rj.self_us": (per(rj_s, rj_n, 1e6), "us"),
        "odesim.simulate.self_ms": (per(sim_s, sim_n, 1e3), "ms"),
        "odesim.measure_period.self_us": (per(mp_s, mp_n, 1e6), "us"),
        "odesim.steps_accepted_per_sim": (per(accepted, sim_n), "count"),
        "odesim.steps_rejected_per_sim": (per(rejected, sim_n), "count"),
        "odesim.reject_frac": (per(rejected, accepted + rejected), "ratio"),
        "odesim.events_per_sim": (per(counts.get("simulate.events", 0.0), sim_n), "count"),
        "model.acceleration.calls_per_sim": (per(acc_n, sim_n), "count"),
        "model.acceleration.self_ms": (per(acc_s, sim_n, 1e3), "ms"),
        "bounds.compute_bounds.self_us": (per(cb_s, cb_n, 1e6), "us"),
        "bounds.check_sandwich.self_us": (per(cs_s, cs_n, 1e6), "us"),
        "verify.run_invariant_suite.self_s": (per(inv_s, inv_n), "s"),
        "verify.exact_period.calls": (via("verify.exact_period"), "count"),
        "verify.period_elliptic.calls": (via("verify.period_elliptic"), "count"),
        "cli.main.self_s": (per(main_s, main_n), "s"),
    }


def import_seconds() -> float:
    """`python -c "import ssp.cli"` minus a bare interpreter, medians."""
    path = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})"
    pairs = [[sys.executable, "-c", code] for _ in range(IMPORT_PROBES) for code in (path, path + "; import ssp.cli")]
    clock, failed = _processes(pairs)
    if failed:
        raise RuntimeError(f"import probe failed, {failed[0]}")
    cal = clock.calibrated()
    return statistics.median(cal[1::2]) - statistics.median(cal[0::2])


def _run_child(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    argv = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} failed:\n{done.stderr}")
    lines = done.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_design(seed: int) -> int:
    """The workloads exercise what they exist for.

    harmonic runs the real closed form (fallback share < 0.05), anharmonic
    runs the quadrature through the elliptic entry point (share > 0.8) and
    needs more integrand evaluations per period.
    """
    got = {w: _run_child(w, seed, 1.0, 1)[1]["metrics"] for w in ("harmonic", "anharmonic")}
    fb = {w: got[w]["elliptic.fallback_frac"]["value"] for w in got}
    ev = {w: got[w]["quadrature.radicand_g.calls_per_period"]["value"] for w in got}
    checks = [
        (f"harmonic elliptic.fallback_frac {fb['harmonic']:.4f} < 0.05", fb["harmonic"] < 0.05),
        (f"anharmonic elliptic.fallback_frac {fb['anharmonic']:.4f} > 0.8", fb["anharmonic"] > 0.8),
        (f"quadrature.radicand_g.calls_per_period anharmonic {ev['anharmonic']:.1f} > "
         f"harmonic {ev['harmonic']:.1f}", ev["anharmonic"] > ev["harmonic"]),
    ]
    for text, ok in checks:
        print(f"{'pass' if ok else 'FAIL'}  design: {text}")
    return 0 if all(ok for _, ok in checks) else 1


def report(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, then the design self-check."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = _run_child(workload, seed, seconds, trace)
            print("\n".join(lines))
            print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            ok = ok and result["correct"]
    return check_design(seed) or (0 if ok else 1)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--report", action="store_true", help="run every workload and print all metrics")
    ap.add_argument("--check-design", action="store_true", help="check that the workloads differ as designed")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ssp" / "__init__.py").is_file():
        print(f"error: no ssp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.report:
        return report(args.seed, args.seconds)
    if args.check_design:
        return check_design(args.seed)
    if args.workload is None:
        ap.error("--workload is required")

    import workloads

    wl = workloads.make(args.workload, args.seed)
    wl.warm_up()
    if args.probe_setup:  # set-up as a fresh process pays it, timed by the parent
        return 0
    run = run_traced if args.trace else run_timed
    metrics, attempted, failed, lines = run(wl, args.workload, args.seed, args.seconds)
    print("\n".join(lines))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
