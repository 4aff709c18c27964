"""Timings corrected for the host's drifting speed.

The host runs in speed phases that last from one to twenty seconds and differ
by a factor of 1.5 to 1.8, so a raw wall time says as much about the phase as
about the code. Each timed block is bracketed by runs of a fixed pure-Python
kernel, and every time measured inside the block is scaled by the kernel's
speed in that block:

    calibrated = raw * K_REF_S / kernel_time

The kernel mixes a float loop with small-function calls and attribute
access. A float loop alone over-corrects and calls alone under-correct; the
mix tracks the engines' own speed through the phases.

A whole process (the CLI, a fresh set-up) spends most of its time loading
modules, which the phases slow by a different factor than they slow
arithmetic. Processes are therefore scaled by a reference process that
imports numpy and nothing else, started before and after each one:

    calibrated = raw * P_REF_S / reference_process_time

None of the kernel, the reference process, K_REF_S or P_REF_S may change once
figures have been recorded against them.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass

# Nominal kernel time: calibrated figures read as the time the code would take
# on a host where one kernel run takes exactly this long.
K_REF_S = 100e-6
# Nominal wall time of the reference process, for the same purpose.
P_REF_S = 0.15


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def _radicand(p: _Pair, x: float) -> float:
    z = math.hypot(p.a, x)
    return 1.0 / math.sqrt((z - p.b + 1.0) * (z + p.a))


def kernel() -> float:
    s = 0.0
    for i in range(1, 300):
        s += math.sqrt(i) * 1.0000001 / (i + 0.5)
    p = _Pair(1.3, 0.7)
    stack = [(0.0, 1.0)]
    for i in range(150):
        x = math.sin(i * 0.01)
        s += _radicand(p, x)
        stack.append((x, s))
        stack.pop()
    return s


def kernel_time(reps: int = 3) -> float:
    """Median wall time of `reps` kernel runs, in seconds."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def reference_process_time() -> float:
    """Wall time of a fresh interpreter that imports numpy, in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True)
    return time.perf_counter() - t0


class Clock:
    """Collects timed samples in windows bracketed by calibration probes.

    Each sample is a tuple of durations in seconds (a row and its stages). A
    window closes once `window_s` of wall time has passed since it opened;
    the probe then runs, and its time closes this window and opens the next.
    The probe is the kernel, or the reference process when `processes`.
    """

    def __init__(self, columns: int, window_s: float, processes: bool = False) -> None:
        self.window_s = window_s
        self.probe = reference_process_time if processes else kernel_time
        self.ref_s = P_REF_S if processes else K_REF_S
        self.cols = [array("d") for _ in range(columns)]
        self.win = array("i")
        self.probes = array("d", [self.probe()])
        self._opened = time.perf_counter()

    def add(self, *durations: float) -> None:
        for col, d in zip(self.cols, durations):
            col.append(d)
        self.win.append(len(self.probes) - 1)
        if time.perf_counter() - self._opened >= self.window_s:
            self._close_window()

    def _close_window(self) -> None:
        self.probes.append(self.probe())
        self._opened = time.perf_counter()

    def finish(self) -> None:
        if len(self.win) and self.win[-1] == len(self.probes) - 1:
            self._close_window()

    def __len__(self) -> int:
        return len(self.win)

    def scale(self) -> list[float]:
        """Per-sample factor: reference time / mean probe time of its window."""
        k = self.probes
        return [2.0 * self.ref_s / (k[w] + k[w + 1]) for w in self.win]

    def calibrated(self, column: int = 0) -> list[float]:
        return [d * s for d, s in zip(self.cols[column], self.scale())]

    def raw(self, column: int = 0) -> list[float]:
        return list(self.cols[column])

    def probe_s(self) -> float:
        """Median probe time of the run, in seconds."""
        return statistics.median(self.probes)
