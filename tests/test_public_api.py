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
    "SimConfig", "Trajectory", "simulate", "integrate", "measure_period",
    "PeriodBounds", "SandwichReport", "compute_bounds", "check_sandwich",
    "CheckResult", "VerifyReport", "run_invariant_suite",
    "SspError", "InvalidParameters", "EngineFailure", "ConvergenceFailure",
    "StepFailure", "MaxStepsExceeded", "InsufficientEvents",
]

# kernels and single bounds: importable from their modules, not re-exported
MODULE_ONLY = {
    "ssp.model": ["acceleration", "energy", "tension", "vertical_force", "rayleigh_solution"],
    "ssp.quadrature": ["radicand_g", "speed"],
    "ssp.elliptic": [
        "QuarticRoots", "quartic_roots", "quartic_coefficients", "to_z_space",
    ],
    "ssp.bounds": [
        "upper_bound", "lower_bound_corrected", "lower_bound_printed",
        "relative_error_bounds", "rel_error_bound_printed",
    ],
}


def test_all_is_the_supported_surface():
    assert len(SUPPORTED) == 26
    assert sorted(ssp.__all__) == sorted(SUPPORTED)
    for name in ssp.__all__:
        assert getattr(ssp, name) is not None


def test_module_only_names_import_from_their_modules():
    names = [n for group in MODULE_ONLY.values() for n in group]
    assert len(names) == 16
    for module, group in MODULE_ONLY.items():
        mod = importlib.import_module(module)
        for name in group:
            assert callable(getattr(mod, name)), f"{module}.{name}"
            assert name not in ssp.__all__


def test_runtime_needs_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone
    code = (
        "import sys, ssp, ssp.cli\n"
        "assert ssp.cli.main(['period']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(ssp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.splitlines()[-1] == "[]"
