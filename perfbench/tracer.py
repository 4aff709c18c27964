"""Spans around the module-level names the engines call through.

`from .x import f` binds a copy of `f` in the importing module, so each
binding is wrapped where its caller looks it up: `ssp.odesim.acceleration`
is what the stepper calls, `ssp.elliptic.exact_period` is the fallback path,
and `ssp.verify.exact_period` is the invariant suite's path. A span records
its name (`<binding module>.<function>`), start, end, parent span and the
operation (benchmark row) it belongs to. Spans stay in memory until written.
"""

from __future__ import annotations

import itertools
import time
from types import ModuleType
from typing import Callable

import numpy as np

ROW = "bench.row"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROW]
        self.records: list[tuple[int, int, float, float, int, int]] = []
        self.counts: dict[str, float] = {}
        self._stack = [-1]
        self._ids = itertools.count()
        self._op = 0
        self._patched: list[tuple[ModuleType, str, object]] = []

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(
        self,
        module: ModuleType,
        attr: str,
        observe: Callable[["Tracer", object], None] | None = None,
    ) -> None:
        """Replace module.attr by a spanning wrapper; `observe` sees results."""
        fn = getattr(module, attr)
        nid = len(self.names)
        self.names.append(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
        records, stack, ids, clock = self.records, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                records.append((sid, nid, t0, t1, parent, self._op))
            if observe is not None:
                observe(self, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def row(self, op: int, fn: Callable[[], object]) -> object:
        """Run one benchmark row as the root span of operation `op`."""
        self._op = op
        sid = next(self._ids)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.records.append((sid, 0, t0, t1, -1, op))

    def arrays(self) -> dict[str, np.ndarray]:
        rec = np.array(sorted(self.records), dtype=float).reshape(-1, 6)
        return {
            "sid": rec[:, 0].astype(np.int64),
            "name": rec[:, 1].astype(np.int64),
            "start": rec[:, 2],
            "end": rec[:, 3],
            "parent": rec[:, 4].astype(np.int64),
            "op": rec[:, 5].astype(np.int64),
        }

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds).

        Self time is a span's duration minus the durations of its child
        spans; one thread runs every span, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(dur.size)
        has = a["parent"] >= 0
        # span ids are dense from 0, so a parent id is also its row index
        np.add.at(child, a["parent"][has], dur[has])
        own = dur - child
        calls = np.bincount(a["name"], minlength=len(self.names))
        selfs = np.bincount(a["name"], weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(self.names)}

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
