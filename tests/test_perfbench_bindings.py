"""The benchmark's tracer still finds every binding it wraps.

`perfbench/run.py --trace 1` replaces module-level names of the library by
spanning wrappers, so renaming or deleting one of them breaks the traced
run. This loads `perfbench/workloads.py` as it is and records what
`install()` asks for, without patching anything.
"""

import importlib.util
from pathlib import Path

from ssp import Method

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


class _Recorder:
    def __init__(self):
        self.bound = []

    def wrap(self, module, attr, observe=None):
        self.bound.append((f"{module.__name__}.{attr}", getattr(module, attr, None)))


def test_traced_bindings_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    recorder = _Recorder()
    workloads.install(recorder)
    assert len(recorder.bound) == 23
    missing = [name for name, fn in recorder.bound if not callable(fn)]
    assert missing == []
    # the tracer's fallback counter reads this member
    assert isinstance(Method.ELLIPTIC_FALLBACK, Method)
