"""Command-line contract: exit codes, formats, determinism, flags as the only settings."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ssp.cli
from ssp import EngineFailure, Method, PeriodEstimate
from ssp.cli import main
from ssp.verify import CheckResult, VerifyReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


# --- period ------------------------------------------------------------------


def test_period_human_output(capsys):
    code, out, err = run_cli(capsys, "period")
    assert code == 0
    assert "period (quadrature)" in out
    assert "period (elliptic)" in out
    assert "period (ode)" in out
    assert "sandwich" in out and "pass" in out


def test_period_csv_json_agree(capsys):
    code, out_csv, _ = run_cli(capsys, "period", "--format", "csv", "--method", "all")
    assert code == 0
    code, out_json, _ = run_cli(capsys, "period", "--format", "json", "--method", "all")
    assert code == 0
    header, rows = parse_csv(out_csv)
    payload = json.loads(out_json)
    assert len(rows) == 1
    row = rows[0]
    assert set(header) == set(payload.keys())
    for key in header:
        if key == "pass":
            assert row[key] == ("true" if payload[key] else "false")
            continue
        # Machine formats carry shortest round-trip representations, so the
        # CSV text reparses to the identical binary value.
        assert float(row[key]) == payload[key]
        assert repr(float(row[key])) == row[key]


def _assert_large_amplitude_limit(period):
    # At y0/l = 8e199 the period equals its large-amplitude limit
    # pi*sqrt(2*m*l0/sigma) = pi*sqrt(2) far below one ulp.
    from ssp import Oscillation, StringParams, exact_period

    est = exact_period(Oscillation(StringParams(1.0, 1.25, 1.0, 1.0), 1e200))
    assert period == est.value
    assert abs(period - math.pi * math.sqrt(2.0)) <= est.err_estimate


def test_period_at_overflowing_amplitude(capsys):
    # y0^2 overflows in the bounds; the command still reports the period.
    code, out, _ = run_cli(
        capsys, "period", "--y0", "1e200", "--method", "quadrature", "--format", "csv"
    )
    assert code == 0
    _, rows = parse_csv(out)
    _assert_large_amplitude_limit(float(rows[0]["period_quadrature"]))
    assert rows[0]["pass"] == "true"


@pytest.mark.parametrize("sigma, mass", [("1e300", "1e-300"), ("1e-300", "1e300")])
def test_period_at_extreme_sigma_over_mass(capsys, sigma, mass):
    # sigma/m = 1e600 overflows and 1e-600 underflows: every engine and the
    # bounds still hold
    params = ("--sigma", sigma, "--mass", mass, "--format", "csv")
    for method in ("quadrature", "elliptic", "all"):
        code, out, _ = run_cli(capsys, "period", *params, "--method", method)
        assert code == 0
        assert parse_csv(out)[1][0]["pass"] == "true"
    row = parse_csv(out)[1][0]
    quad, ode = float(row["period_quadrature"]), float(row["period_ode"])
    assert abs(ode - quad) <= 1e-8 * quad


@pytest.mark.parametrize("sigma, mass", [("1e308", "1e-10"), (repr(sys.float_info.max), "1")])
def test_period_where_twice_sigma_overflows(capsys, sigma, mass):
    # 2*sigma overflows, sigma/m does not: the quadrature period is finite
    # and R is formed from it
    code, out, _ = run_cli(capsys, "period", "--sigma", sigma, "--mass", mass, "--format", "csv")
    assert code == 0
    row = parse_csv(out)[1][0]
    assert row["pass"] == "true"
    assert 0.0 < float(row["period_quadrature"]) < float(row["upper"])


def _reject_constant(token):
    raise ValueError(f"not a JSON number: {token}")


def test_period_at_the_top_of_the_float_range(capsys):
    # z + z0 overflows in g from y0 = 9e307; the quadrature period is still
    # pi*sqrt(2)
    code, out, _ = run_cli(
        capsys, "period", "--y0", "1e308", "--method", "quadrature", "--format", "csv"
    )
    assert code == 0
    row = parse_csv(out)[1][0]
    assert row["pass"] == "true"
    assert abs(float(row["period_quadrature"]) - math.pi * math.sqrt(2.0)) <= 1e-12


def test_elliptic_answers_at_the_top_of_the_float_range(capsys):
    # the closed form's AGM overflowed from y0 = 1.353e306 (exit 2); it now
    # runs at most at y0 = 2**60*l, where the period is pi*sqrt(2*m*l0/sigma)
    # to under an ulp
    for params in (("--y0", "1e307"), ("--l0", "1", "--l", "2", "--y0", "1e308")):
        code, out, err = run_cli(
            capsys, "period", *params, "--method", "elliptic", "--format", "csv"
        )
        assert code == 0, err
        row = parse_csv(out)[1][0]
        assert row["pass"] == "true"
        assert abs(float(row["period_elliptic"]) - math.pi * math.sqrt(2.0)) <= 1e-12


def test_quadrature_answers_where_y0_over_l_overflows(capsys):
    # asinh(y0/l) read asinh(inf): exit 2, "level difference nan of nan"
    params = ("--l0", "0.25", "--l", "0.5", "--y0", "1e308", "--format", "csv")
    code, out, err = run_cli(capsys, "period", *params, "--method", "quadrature")
    assert code == 0, err
    row = parse_csv(out)[1][0]
    assert row["pass"] == "true"
    assert abs(float(row["period_quadrature"]) - math.pi * math.sqrt(0.5)) <= 1e-12


# l0*y0/2 passes DBL_MAX on the unit lengths
TOP_CELL = ("--l0", "1.5", "--l", "1.9", "--y0", "1.7e308")


def test_quadrature_answers_where_l0_times_y0_passes_dbl_max(capsys):
    # g's denominator is formed on l0/2, so it no longer overflows to a g of
    # 0; the period is the limit pi*sqrt(2*m*l0/sigma)
    code, out, _ = run_cli(capsys, "period", *TOP_CELL, "--method", "quadrature", "--format", "csv")
    assert code == 0
    row = parse_csv(out)[1][0]
    assert row["pass"] == "true"
    assert abs(float(row["period_quadrature"]) - math.pi * math.sqrt(3.0)) <= 1e-12


@pytest.mark.parametrize(
    "params, code, prefix",
    [
        # the linear-limit period overflows; ldexp raised an OverflowError
        (("--l0", "1e100", "--l", "2e100", "--sigma", "1e-300", "--mass", "1e300", "--y0", "1e99"),
         1, "error:"),
        # the unit l0 underflows to 0; the linear period reads 0.0
        (("--l0", "5e-324", "--l", "1e10", "--y0", "1"), 1, "error:"),
        # the force overflows; both closed forms answer
        (TOP_CELL, 2, "engine failure:"),
    ],
)
def test_cells_beyond_the_float_range_fail_cleanly(capsys, params, code, prefix):
    methods = ("quadrature", "elliptic", "ode", "all")
    for method in methods[2:] if params == TOP_CELL else methods:
        got, out, err = run_cli(capsys, "period", *params, "--method", method)
        assert got == code
        assert out == ""
        assert err.startswith(prefix) and len(err.splitlines()) == 1
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "params",
    [
        # on raw lengths l0*(hz + hz0) overflowed in g: exit 2
        ("--l0", "1e150", "--l", "2e150", "--y0", "1e160"),
        # on raw lengths the quarter gap overflowed: exit 2
        ("--l0", "1", "--l", "1e300", "--y0", "1"),
        # on raw lengths g's denominator underflowed: exit 2
        ("--l0", "1e-201", "--l", "1e-200", "--y0", "1e-200"),
    ],
)
def test_cells_at_extreme_lengths_answer(capsys, params):
    for method in ("quadrature", "elliptic", "ode", "all"):
        code, out, err = run_cli(capsys, "period", *params, "--method", method, "--format", "csv")
        assert code == 0, err
        assert parse_csv(out)[1][0]["pass"] == "true"
        assert "Traceback" not in err


def test_period_json_stays_valid_at_overflowing_amplitude(capsys):
    code, out, _ = run_cli(
        capsys, "period", "--y0", "1e200", "--method", "quadrature", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["R_bound_corrected"] == "-inf"
    _assert_large_amplitude_limit(payload["period_quadrature"])


def test_period_methods_subset(capsys):
    code, out, _ = run_cli(capsys, "period", "--format", "csv", "--method", "elliptic")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "l0", "l", "sigma", "mass", "y0",
        "period_elliptic",
        "upper", "lower_corrected", "lower_printed",
        "R", "R_bound_corrected", "pass",
    ]
    assert rows[0]["pass"] == "true"


def test_period_zero_amplitude_reports_harmonic_everywhere(capsys):
    # The rest state's ode period is the linear limit itself; both closed
    # forms compute it to within an ulp or two.
    code, out, _ = run_cli(
        capsys, "period", "--y0", "0", "--format", "json", "--method", "all"
    )
    assert code == 0
    row = json.loads(out)
    assert row["period_ode"] == row["upper"]
    for key in ("period_quadrature", "period_elliptic"):
        assert abs(row[key] - row["upper"]) <= 2e-15 * row["upper"]
    assert row["pass"] is True


def test_period_at_subnormal_amplitude(capsys):
    # The closed forms reach y0 = 5e-324; the simulation's absolute error
    # floors underflow there, and it says so instead of tracing back.
    for method in ("quadrature", "elliptic"):
        code, out, _ = run_cli(
            capsys, "period", "--y0", "5e-324", "--format", "json", "--method", method
        )
        assert code == 0
        assert json.loads(out)["pass"] is True
    code, out, err = run_cli(capsys, "period", "--y0", "5e-324", "--method", "all")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_period_values_match_library(capsys, reference_osc):
    from ssp import compute_bounds, exact_period

    code, out, _ = run_cli(capsys, "period", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["period_quadrature"] == exact_period(reference_osc).value
    assert payload["upper"] == compute_bounds(reference_osc).upper


def test_pass_is_the_library_verdict(capsys, monkeypatch, reference_osc):
    # a period at upper lies within slack of it, but at y0 = 0.5 the
    # secant bound is far below upper, so the strict verdict fails it
    from ssp import check_sandwich, compute_bounds

    def at_upper(osc, tol):
        return PeriodEstimate(compute_bounds(osc).upper, Method.QUADRATURE, 0.0)

    report = check_sandwich(reference_osc, at_upper(reference_osc, None))
    assert report.lower_ok and report.upper_ok and not report.passed
    monkeypatch.setattr(ssp.cli, "exact_period", at_upper)
    code, out, _ = run_cli(capsys, "period", "--format", "csv")
    assert code == 0
    assert parse_csv(out)[1][0]["pass"] == "false"
    code, out, _ = run_cli(capsys, "period", "--format", "json")
    assert code == 0
    assert json.loads(out)["pass"] is False
    code, out, _ = run_cli(capsys, "period")
    assert code == 0
    assert out.splitlines()[-1] == f"{'sandwich':<20s}FAIL"
    code, _, err = run_cli(
        capsys, "sweep", "--sweep", "y0", "--from", "0.25", "--to", "0.5", "--points", "2"
    )
    assert code == 0
    assert "sweep: 0/2 rows pass the sandwich check" in err


# --- sweep -------------------------------------------------------------------


def test_sweep_rows_in_axis_order(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--sweep", "y0", "--from", "0.1", "--to", "1.0",
        "--points", "4", "--format", "csv",
    )
    assert code == 0
    _, rows = parse_csv(out)
    amps = [float(r["y0"]) for r in rows]
    assert amps == [0.1, 0.4, 0.7, 1.0]
    assert all(r["pass"] == "true" for r in rows)
    assert "sweep: 4/4 rows pass the sandwich check" in err


@pytest.mark.parametrize("axis", ["l0", "l", "sigma", "mass", "y0"])
def test_sweep_single_point_matches_period(capsys, axis):
    # a one-point sweep at the axis's default is the default period row
    value = {"l0": "1", "l": "1.25", "sigma": "1", "mass": "1", "y0": "0.5"}[axis]
    code, out_sweep, _ = run_cli(
        capsys, "sweep", "--sweep", axis, "--from", value, "--to", value,
        "--points", "1", "--format", "csv", "--method", "all",
    )
    assert code == 0
    code, out_period, _ = run_cli(capsys, "period", "--format", "csv", "--method", "all")
    assert code == 0
    assert out_sweep.strip().splitlines()[-1] == out_period.strip().splitlines()[-1]


def test_sweep_other_axis_and_log_spacing(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--sweep", "sigma", "--from", "0.1", "--to", "10",
        "--points", "3", "--log", "--format", "csv",
    )
    assert code == 0
    _, rows = parse_csv(out)
    np.testing.assert_allclose(
        [float(r["sigma"]) for r in rows], [0.1, 1.0, 10.0], rtol=1e-12
    )
    # Period scales as sigma^(-1/2) with everything else fixed.
    p = [float(r["period_quadrature"]) for r in rows]
    np.testing.assert_allclose(p[0] / p[1], np.sqrt(10.0), rtol=1e-10)


def test_linear_grid_is_linspace_bit_for_bit():
    # linear sweeps print the same y0 column as when numpy built the grid
    rng = np.random.default_rng(17)
    cases = [
        (0.1, 1.0, 2),
        (-3.0, 3.0, 7),
        (2.5, 2.5, 4),  # zero step
        (0.0, 1e-323, 5),  # the step underflows to zero: linspace scales last
        (0.0, 1e-320, 5),  # subnormal step
    ]
    for _ in range(500):
        lo, hi = rng.choice([-1.0, 1.0], 2) * np.exp(rng.uniform(-700.0, 700.0, 2))
        cases.append((float(lo), float(hi), int(rng.choice([2, 3, 10, int(rng.integers(2, 200))]))))
    with np.errstate(all="ignore"):
        for lo, hi, points in cases:
            mine = np.array(ssp.cli._grid(lo, hi, points, log=False), dtype=float)
            assert mine.tobytes() == np.linspace(lo, hi, points).tobytes(), (lo, hi, points)


def test_sweep_refuses_a_span_that_overflows(capsys):
    # high - low overflows, where linspace's recipe would make NaN points
    code, out, err = run_cli(
        capsys, "sweep", "--sweep", "y0", "--from=-1e308", "--to", "1e308", "--points", "3"
    )
    assert (code, out) == (1, "")
    assert err == "error: grid span 1e+308 - -1e+308 overflows\n"


def test_sweep_requires_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "--sweep", "y0")
    assert code == 1


def test_sweep_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--sweep", "y0", "--from", "0.2", "--to", "0.8",
        "--points", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 3
    assert all(r["pass"] for r in payload)


# --- trajectory --------------------------------------------------------------


def test_trajectory_contract(capsys):
    code, out, _ = run_cli(
        capsys, "trajectory", "--periods", "2", "--format", "csv"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "y", "v", "E"]
    assert len(rows) > 2
    first = rows[0]
    assert float(first["t"]) == 0.0
    assert float(first["y"]) == 0.5
    assert float(first["v"]) == 0.0
    t = np.array([float(r["t"]) for r in rows])
    assert np.all(np.diff(t) > 0.0)
    e = np.array([float(r["E"]) for r in rows])
    assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-8


def test_trajectory_half_period_is_mirrored(capsys):
    # --periods 0.5 is the default run: the samples before the zero crossing
    # and their mirror images, ending at rest at -y0
    code, out, _ = run_cli(capsys, "trajectory", "--periods", "0.5", "--format", "csv")
    assert code == 0
    _, rows = parse_csv(out)
    t = np.array([float(r["t"]) for r in rows])
    y = np.array([float(r["y"]) for r in rows])
    assert np.all(np.diff(t) > 0.0)
    assert np.array_equal(y[::-1], -y)
    assert (float(rows[-1]["y"]), float(rows[-1]["v"])) == (-0.5, 0.0)


def test_trajectory_refuses_a_period_count_off_the_half_grid(capsys):
    code, out, err = run_cli(capsys, "trajectory", "--periods", "1.3")
    assert code == 1
    assert out == ""
    assert err == "error: n_periods must be a positive multiple of 0.5, got 1.3\n"


@pytest.mark.parametrize("periods", ["1e20", "1e300"])
def test_trajectory_refuses_a_span_below_the_step_floor(capsys, periods):
    # the horizon's step floor exceeds the first step: exit 1, not the
    # engine failure "step size underflowed" before any step was tried
    code, out, err = run_cli(capsys, "trajectory", "--periods", periods)
    assert code == 1
    assert out == ""
    assert err.startswith("error: t_span (0.0, ") and "cannot be stepped" in err


def test_period_names_the_overflowing_trial_steps(capsys):
    # the closed forms answer at y0 = 1e307; the ODE's trial steps overflow
    code, out, err = run_cli(capsys, "period", "--y0", "1e307")
    assert code == 2
    assert out == ""
    assert err.startswith("engine failure: the trial steps were not finite")


def test_trajectory_rejects_zero_amplitude(capsys):
    code, _, err = run_cli(capsys, "trajectory", "--y0", "0")
    assert code == 1
    assert "error:" in err


def test_trajectory_rejects_underflowing_amplitude(capsys):
    # main maps InvalidParameters to exit 1; a raw ZeroDivisionError would
    # propagate out of main and fail the test
    code, _, err = run_cli(capsys, "trajectory", "--y0", "5e-324", "--periods", "1")
    assert code == 1
    assert err.startswith("error:")


# --- verify ------------------------------------------------------------------


def test_verify_ok(capsys):
    code, out, err = run_cli(capsys, "verify", "--samples", "40", "--seed", "3")
    assert code == 0
    assert "all invariants hold (seed=3, samples=40)" in out
    assert "INVARIANT VIOLATION" not in err


def test_verify_deterministic(capsys):
    first = run_cli(capsys, "verify", "--samples", "40", "--seed", "3")
    second = run_cli(capsys, "verify", "--samples", "40", "--seed", "3")
    assert first == second


def test_verify_rejects_zero_samples(capsys):
    code, _, err = run_cli(capsys, "verify", "--samples", "0")
    assert code == 1


def test_verify_reports_violation(capsys, monkeypatch):
    broken = VerifyReport(
        seed=0,
        samples=5,
        checks=(
            CheckResult(
                name="period-inside-bounds", samples=5, failures=2,
                worst=3.4e-6, tolerance=1e-9,
            ),
        ),
    )
    monkeypatch.setattr(ssp.cli, "run_invariant_suite", lambda **kw: broken)
    code, out, err = run_cli(capsys, "verify", "--samples", "5")
    assert code == 3
    assert "INVARIANT VIOLATION" in err


# --- convergence -------------------------------------------------------------


def test_convergence_default_grid(capsys):
    code, out, err = run_cli(capsys, "convergence", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["y0", "period", "R", "R_bound_corrected"]
    assert len(rows) == 5
    r_vals = [float(r["R"]) for r in rows]
    bounds = [float(r["R_bound_corrected"]) for r in rows]
    for r, b in zip(r_vals, bounds):
        assert b <= r <= 0.0
    mags = [abs(r) for r in r_vals]
    assert all(b > a for a, b in zip(mags, mags[1:]))
    assert "fitted |R| slope:" in err


def test_convergence_json_slope(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert 1.9 <= payload["slope"] <= 2.1
    assert len(payload["rows"]) == 5


def test_convergence_rows_match_library(capsys):
    from ssp import Oscillation, StringParams, compute_bounds, exact_period

    code, out, _ = run_cli(capsys, "convergence", "--format", "json", "--points", "4")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4
    for row in rows:
        osc = Oscillation(StringParams(1.0, 1.25, 1.0, 1.0), row["y0"])
        period = exact_period(osc).value
        bounds = compute_bounds(osc)
        assert row["period"] == period
        assert row["R"] == (period - bounds.upper) / period
        assert row["R_bound_corrected"] == bounds.rel_error_bound_corrected


@pytest.mark.parametrize(
    "argv",
    [
        ("convergence", "--points", "1"),
        ("convergence", "--from", "0.1", "--to", "0.1"),
        ("trajectory", "--periods", "0"),
    ],
)
def test_degenerate_runs_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_verify_refuses_a_negative_seed(capsys):
    assert run_cli(capsys, "verify", "--seed", "-1") == (1, "", "error: seed must be >= 0, got -1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--sweep", "y0", "--log", "--from", "0.1", "--to", "1", "--points", str(10**15)),
        ("convergence", "--points", str(10**15)),
    ],
)
def test_an_unallocatable_log_grid_exits_1(capsys, argv):
    # numpy refuses 7.11 PiB at once, without allocating
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: out of memory: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, first",
    [
        (("--from", "1e-12", "--to", "1e-11"), "1e-12"),
        (("--from", "1e-9", "--to", "1e-8", "--format", "json"), "1e-09"),
    ],
)
def test_convergence_refuses_a_zero_r(argv, first):
    # where the period rounds to the linear-limit one, R is 0 and its log
    # is -inf; the command names the amplitude instead of fitting a nan
    src = str(Path(ssp.cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "ssp.cli", "convergence", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: |R| is 0 at y0=" + first + ";")
    assert len(done.stderr.splitlines()) == 1
    assert "Warning" not in done.stderr


def test_convergence_custom_grid(capsys):
    code, out, _ = run_cli(
        capsys, "convergence", "--from", "0.01", "--to", "0.04",
        "--points", "3", "--format", "csv",
    )
    assert code == 0
    _, rows = parse_csv(out)
    np.testing.assert_allclose(
        [float(r["y0"]) for r in rows], [0.01, 0.02, 0.04], rtol=1e-12
    )


# --- exit codes and settings -------------------------------------------------


def test_invalid_geometry_exits_1(capsys):
    code, _, err = run_cli(capsys, "period", "--l", "0.9")
    assert code == 1
    assert "error:" in err


def test_unknown_flag_exits_1(capsys):
    code, _, _ = run_cli(capsys, "period", "--bogus")
    assert code == 1


@pytest.mark.parametrize("argv", [("--help",), ("sweep", "--help")])
def test_help_exits_0(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: ssp")


def test_missing_subcommand_exits_1(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_bad_method_choice_exits_1(capsys):
    code, _, _ = run_cli(capsys, "period", "--method", "simpson")
    assert code == 1


def test_out_of_range_tol_exits_1(capsys):
    code, _, err = run_cli(capsys, "period", "--tol", "0.5")
    assert code == 1


def test_engine_failure_exits_2(capsys, monkeypatch):
    def explode(*a, **kw):
        raise EngineFailure("refinement budget exhausted")

    monkeypatch.setattr(ssp.cli, "exact_period", explode)
    code, _, err = run_cli(capsys, "period", "--format", "csv")
    assert code == 2
    assert "engine failure:" in err


def test_environment_changes_no_result(capsys, monkeypatch):
    # flags are the only settings: stray variables named like the removed
    # overrides leave every byte of stdout as it is
    argvs = (("period", "--format", "json"), ("verify", "--samples", "25"))
    base = [run_cli(capsys, *argv) for argv in argvs]
    monkeypatch.setenv("SSP_REL_TOL", "1e-6")
    monkeypatch.setenv("SSP_SEED", "11")
    assert [run_cli(capsys, *argv) for argv in argvs] == base
    assert all(code == 0 for code, _, _ in base)
    assert "seed=0," in base[1][1]


def test_ode_estimate_degenerate_amplitude():
    # Reaching through the CLI helper: a zero amplitude cannot be simulated,
    # so the reported ode period falls back to the harmonic value.
    from ssp import Oscillation, SimConfig, StringParams, rayleigh_period

    p = StringParams(l0=1.0, l=1.25, sigma=1.0, mass=1.0)
    est = ssp.cli._ode_estimate(Oscillation(p, 0.0), SimConfig())
    assert isinstance(est, PeriodEstimate)
    assert est.method is Method.ODE_SIM
    assert est.value == rayleigh_period(p)
