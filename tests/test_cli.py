"""Command-line contract: exit codes, formats, determinism, env overrides."""

import json
import math
import sys

import numpy as np
import pytest

import ssp.cli
from ssp import ConvergenceFailure, Method, PeriodEstimate
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


def test_elliptic_overflow_is_an_engine_failure(capsys):
    # the closed form's AGM overflows from y0 = 1.353e306: exit 2, not a 0
    code, out, err = run_cli(capsys, "period", "--y0", "1e307", "--method", "elliptic")
    assert code == 2
    assert out == ""
    assert err.startswith("engine failure:")


def test_quadrature_overflow_is_an_engine_failure(capsys):
    # the quadrature's quarter gap overflows at l = 1e200: exit 2, where a
    # period of 0.0 divided by zero in the row's relative error
    code, out, err = run_cli(
        capsys, "period", "--l", "1e200", "--y0", "1e200", "--method", "quadrature"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("engine failure:")


@pytest.mark.parametrize(
    "params, code, prefix",
    [
        # the linear-limit period overflows; ldexp raised an OverflowError
        (("--l0", "1e100", "--l", "2e100", "--sigma", "1e-300", "--mass", "1e300", "--y0", "1e99"),
         1, "error:"),
        # the unit stiffness overflows; the linear period read 0.0
        (("--l0", "5e-324", "--l", "1e10", "--y0", "1"), 1, "error:"),
        # l0*(hz + hz0) overflows in g; the integrand divided by zero
        (("--l0", "1e150", "--l", "2e150", "--y0", "1e160"), 2, "engine failure:"),
    ],
)
def test_cells_beyond_the_float_range_fail_cleanly(capsys, params, code, prefix):
    for method in ("quadrature", "elliptic", "ode", "all"):
        got, out, err = run_cli(capsys, "period", *params, "--method", method)
        assert got == code
        assert out == ""
        assert err.startswith(prefix) and len(err.splitlines()) == 1
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


# --- exit codes and environment ----------------------------------------------


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
        raise ConvergenceFailure("refinement budget exhausted")

    monkeypatch.setattr(ssp.cli, "exact_period", explode)
    code, _, err = run_cli(capsys, "period", "--format", "csv")
    assert code == 2
    assert "engine failure:" in err


def test_env_tol_override(capsys, monkeypatch):
    monkeypatch.setenv("SSP_REL_TOL", "0.5")
    code, _, _ = run_cli(capsys, "period")
    assert code == 1
    monkeypatch.setenv("SSP_REL_TOL", "not-a-number")
    code, _, _ = run_cli(capsys, "period")
    assert code == 1
    monkeypatch.setenv("SSP_REL_TOL", "1e-11")
    code, _, _ = run_cli(capsys, "period")
    assert code == 0


def test_explicit_tol_beats_env(capsys, monkeypatch):
    base = run_cli(capsys, "period", "--format", "csv", "--tol", "1e-12")
    monkeypatch.setenv("SSP_REL_TOL", "1e-6")
    overridden = run_cli(capsys, "period", "--format", "csv", "--tol", "1e-12")
    assert overridden == base


def test_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("SSP_SEED", "11")
    code, out, _ = run_cli(capsys, "verify", "--samples", "25")
    assert code == 0
    assert "seed=11" in out
    monkeypatch.setenv("SSP_SEED", "abc")
    code, _, _ = run_cli(capsys, "verify", "--samples", "25")
    assert code == 1


def test_ode_estimate_degenerate_amplitude():
    # Reaching through the CLI helper: a zero amplitude cannot be simulated,
    # so the reported ode period falls back to the harmonic value.
    from ssp import Oscillation, SimConfig, StringParams, rayleigh_period

    p = StringParams(l0=1.0, l=1.25, sigma=1.0, mass=1.0)
    est = ssp.cli._ode_estimate(Oscillation(p, 0.0), SimConfig())
    assert isinstance(est, PeriodEstimate)
    assert est.method is Method.ODE_SIM
    assert est.value == rayleigh_period(p)
