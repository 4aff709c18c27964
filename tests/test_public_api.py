"""The package's top-level surface, and where the other names live."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import ssp

SUPPORTED = [
    "StringParams", "Oscillation", "rayleigh_period",
    "PeriodEstimate", "Method", "exact_period", "period_elliptic",
    "SimConfig", "Trajectory", "simulate", "measure_period",
    "PeriodBounds", "SandwichReport", "compute_bounds", "check_sandwich",
    "CheckResult", "VerifyReport", "run_invariant_suite",
    "SspError", "InvalidParameters", "EngineFailure",
]

# kernels: importable from their modules, not re-exported
MODULE_ONLY = {
    "ssp.model": ["acceleration"],
    "ssp.quadrature": ["radicand_g"],
}


def test_all_is_the_supported_surface():
    assert len(SUPPORTED) == 21
    assert sorted(ssp.__all__) == sorted(SUPPORTED)
    for name in ssp.__all__:
        assert getattr(ssp, name) is not None


def test_module_only_names_import_from_their_modules():
    names = [n for group in MODULE_ONLY.values() for n in group]
    assert len(names) == 2
    for module, group in MODULE_ONLY.items():
        mod = importlib.import_module(module)
        for name in group:
            assert callable(getattr(mod, name)), f"{module}.{name}"
            assert name not in ssp.__all__


def test_bounds_are_reached_through_the_record_alone():
    bounds, elliptic, model, odesim = ssp.bounds, ssp.elliptic, ssp.model, ssp.odesim
    quadrature = ssp.quadrature
    assert bounds.__all__ == ["PeriodBounds", "SandwichReport", "compute_bounds", "check_sandwich"]
    assert elliptic.__all__ == ["period_elliptic"]
    gone = (
        (bounds, "upper_bound"), (bounds, "lower_bound_corrected"),
        (bounds, "lower_bound_printed"), (bounds, "relative_error_bounds"),
        (bounds, "rel_error_bound_printed"), (model.StringParams, "rest_tension"),
        (elliptic, "to_z_space"), (odesim, "integrate"),
        (model, "tension"), (model, "vertical_force"), (model, "energy"),
        (model, "rayleigh_solution"), (model.StringParams, "linear_stiffness"),
        (quadrature, "speed"), (elliptic, "QuarticRoots"), (elliptic, "quartic_roots"),
        (elliptic, "quartic_coefficients"),
    )
    assert [name for owner, name in gone if hasattr(owner, name)] == []


def _last_line_of(code):
    """The last stdout line of a fresh interpreter that runs code."""
    src = str(Path(ssp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return done.stdout.splitlines()[-1]


def test_runtime_needs_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone
    code = (
        "import sys, ssp, ssp.cli\n"
        "assert ssp.cli.main(['period']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _last_line_of(code) == "[]"


def test_import_and_period_load_no_numpy():
    # numpy builds the trajectory arrays and the log sweep grids; the package
    # and every `ssp period` run need none of it
    code = (
        "import sys, ssp, ssp.cli\n"
        "loaded = ['numpy' in sys.modules]\n"
        "for extra in ([], ['--format', 'csv'], ['--format', 'json'],\n"
        "              ['--method', 'ode'], ['--y0', '0']):\n"
        "    assert ssp.cli.main(['period', *extra]) == 0\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "print(loaded)"
    )
    assert _last_line_of(code) == str([False] * 6)


def test_verify_and_linear_sweep_load_no_numpy():
    code = (
        "import sys, ssp.cli\n"
        "loaded = []\n"
        "for argv in (['verify', '--samples', '20'],\n"
        "             ['sweep', '--sweep', 'y0', '--from', '0.1', '--to', '1', '--points', '3'],\n"
        "             ['sweep', '--sweep', 'l', '--from', '1.1', '--to', '2', '--points', '2',\n"
        "              '--method', 'all', '--format', 'json']):\n"
        "    assert ssp.cli.main(argv) == 0\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "# a geometric grid may load it\n"
        "assert ssp.cli.main(['sweep', '--sweep', 'y0', '--from', '0.1', '--to', '1', '--log']) == 0\n"
        "print(loaded)"
    )
    assert _last_line_of(code) == str([False] * 3)


def test_cli_runs_load_no_dataclasses_or_inspect():
    # each CLI process would pay about 14 ms to import them
    code = (
        "import sys, ssp\n"
        "def loaded():\n"
        "    return [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "seen = [loaded()]\n"
        "import ssp.cli\n"
        "seen.append(loaded())\n"
        "for argv in (['period'], ['period', '--format', 'json'], ['verify', '--samples', '20'],\n"
        "             ['sweep', '--sweep', 'y0', '--from', '0.1', '--to', '1', '--points', '3']):\n"
        "    assert ssp.cli.main(argv) == 0\n"
        "    seen.append(loaded())\n"
        "print(seen)"
    )
    assert _last_line_of(code) == str([[]] * 6)
