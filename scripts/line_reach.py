#!/usr/bin/env python3
"""Check that tier-1 runs every executable line of src/ssp.

Runs the tier-1 suite in this process under a line tracer
(`sys.settrace`, and `threading.settrace` for threads the tests start) and
compares the lines it reaches with the executable lines of each module
under src/ssp: those its compiled code objects name in `co_lines()`. The
tracer only follows frames whose code comes from those files, and it is
removed before the report is formed.

A line that no test reaches must be named in ALLOWLIST below, by module and
by its source text with surrounding blanks stripped, with the condition
under which it runs. The script prints each allowlisted line with its
reason, then exits 1 where
- a line is unreached and no entry names it,
- an entry names no unreached line: its line is now reached, or is gone,
- or the tests fail.

Run:  python3 scripts/line_reach.py [extra pytest arguments]
(needs the tier-1 test dependencies; about twice tier-1's time). Extra
arguments go to pytest after the tier-1 ones, e.g. `--deselect ID`.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ssp"
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]

# (module, stripped source text) -> the condition under which the line runs
ALLOWLIST = {
    ("odesim.py", "import numpy as np"): (
        "runs only under a type checker (TYPE_CHECKING): Trajectory's annotations name "
        "np.ndarray, and odesim imports numpy at run time only in simulate"
    ),
    ("odesim.py", "del ts[-1], ys[-1], vs[-1]"): (
        "runs where the Newton correction of the zero crossing rounds t_q onto or "
        "below the last accepted sample's time; no known input does"
    ),
    ("quadrature.py", 'raise NotImplementedError("a removed engine: this name is kept only for tracing")'): (
        "runs only if something calls the stub adaptive_gk, which exists so that "
        "perfbench --trace can wrap the name (ROADMAP item 1)"
    ),
    ("cli.py", "entrypoint()"): "runs only as `python -m ssp.cli`, in a subprocess",
}


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled code of path attributes instructions to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # line 0 and None mark instructions the compiler made up, on no line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(files: set[str], args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code on args, and the (file, line) pairs of files it ran."""
    import pytest

    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main([str(ROOT / "tests"), *TIER1, *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def main(argv: list[str]) -> int:
    modules = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    status, reached = run_traced(set(modules), argv)

    total, unreached = 0, {}
    for name, path in modules.items():
        lines = executable_lines(path)
        total += len(lines)
        text = path.read_text().splitlines()
        for line in sorted(lines):
            if (name, line) not in reached:
                unreached[(path.name, line)] = text[line - 1].strip()

    excused, missing = set(), 0
    print(f"\nline_reach: {total - len(unreached)} of {total} executable lines in src/ssp reached")
    for (module, line), source in unreached.items():
        reason = ALLOWLIST.get((module, source))
        if reason is None:
            missing += 1
            print(f"UNREACHED {module}:{line}: {source}")
        else:
            excused.add((module, source))
            print(f"allowed   {module}:{line}: {source}\n          ({reason})")
    stale = sorted(set(ALLOWLIST) - excused)
    for module, source in stale:
        print(f"STALE     allowlist entry {module}: {source!r} names no unreached line")
    if status != 0:
        print(f"the tests failed (pytest exit code {status})")
    return 1 if missing or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
