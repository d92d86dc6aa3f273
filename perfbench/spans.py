"""Span recording for the traced benchmark run.

The program is measured from outside: :func:`install` replaces public
functions and methods of the program's layers with wrappers that record
one span per call — span name, metric group, start, wall time, thread
CPU time (``time.thread_time``), a per-call count and whether the span
is the outermost of its group on its thread.  Recording costs one flag
test per call while :attr:`Recorder.on` is false, so a traced run can
time an untraced stretch in the same process and report the tracing
overhead.  Spans stay in memory and are written out when the run ends.

No wrapper is inherited by a child process except through ``fork``, and
nothing here relies on that: every process that must report spans
installs its own wrappers (see ``launch.py``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time


def _cells(args, result) -> int:
    """χ cells a fused sweep produced: rows × b of its output matrix."""
    return int(getattr(result, "size", 0))


def _native(args, result) -> int:
    """1 when a sweep builder handed back a compiled kernel, else 0."""
    return 0 if result is None else 1


def _length(args, result) -> int:
    """Items a call returned: decoded values, or results of a batch."""
    return len(result)


#: (span name, "module:attribute path", metric group, per-call count).
#: Spans of one group nest (a count sweep runs a PSI sweep inside), so
#: metrics read only the outermost span of a group on each thread.
TARGETS = (
    ("api.lower", "repro.api.planner:Planner.lower", "api.lower", None),
    ("api.execute_many", "repro.api.executor:Executor.execute_many",
     "api.execute_many", _length),
    ("api.tick", "repro.api.client:PrismClient._run_tick", "api.tick",
     None),
    ("serving.query_to_wire", "repro.serving.session:query_to_wire",
     "serving.wire", None),
    ("serving.query_from_wire", "repro.serving.session:query_from_wire",
     "serving.wire", None),
    ("serving.result_to_wire", "repro.serving.session:result_to_wire",
     "serving.wire", None),
    ("serving.result_from_wire", "repro.serving.session:result_from_wire",
     "serving.wire", None),
    ("core.batch", "repro.core.batch:QueryBatch.execute", "core.batch",
     None),
    ("core.round", "repro.core.interactive:InteractiveProgram.step",
     "core.round", None),
    ("server.psi", "repro.entities.server:PrismServer.psi_round_batch",
     "server", _cells),
    ("server.psi",
     "repro.entities.server:PrismServer.psi_cells_round_batch",
     "server", _cells),
    ("server.count", "repro.entities.server:PrismServer.count_round_batch",
     "server", _cells),
    ("server.psu", "repro.entities.server:PrismServer.psu_round_batch",
     "server", _cells),
    ("server.agg",
     "repro.entities.server:PrismServer.aggregate_round_batch",
     "server", _cells),
    ("kernels.sweep", "repro.kernels:psi_sweep", "kernels", _native),
    ("kernels.sweep", "repro.kernels:psu_sweep", "kernels", _native),
    ("kernels.sweep", "repro.kernels:agg_sweep", "kernels", _native),
    ("owner.decode", "repro.entities.owner:DBOwner.decode_cells",
     "owner.decode", _length),
    ("owner.finalize", "repro.entities.owner:DBOwner.finalize_psi",
     "owner.finalize", None),
    ("owner.finalize", "repro.entities.owner:DBOwner.finalize_psu",
     "owner.finalize", None),
    ("owner.finalize", "repro.entities.owner:DBOwner.finalize_aggregate",
     "owner.finalize", None),
    ("owner.finalize", "repro.entities.owner:DBOwner.psi_membership",
     "owner.finalize", None),
    ("owner.finalize", "repro.entities.owner:DBOwner.verify_psi",
     "owner.finalize", None),
    ("owner.outsource", "repro.entities.owner:DBOwner.outsource",
     "owner.outsource", None),
    ("crypto.share", "repro.entities.owner:DBOwner.additive_shares_of",
     "crypto.share", None),
    ("crypto.share", "repro.entities.owner:DBOwner.shamir_shares_of",
     "crypto.share", None),
    ("initiator.indicator", "repro.core.aggregate:indicator_shares",
     "initiator.indicator", None),
    ("network.remote_sweep",
     "repro.entities.remote:RemoteServer.psi_round_batch",
     "network.remote_sweep", None),
    ("network.remote_sweep",
     "repro.entities.remote:RemoteServer.psi_cells_round_batch",
     "network.remote_sweep", None),
    ("network.remote_sweep",
     "repro.entities.remote:RemoteServer.count_round_batch",
     "network.remote_sweep", None),
    ("network.remote_sweep",
     "repro.entities.remote:RemoteServer.psu_round_batch",
     "network.remote_sweep", None),
    ("network.remote_sweep",
     "repro.entities.remote:RemoteServer.aggregate_round_batch",
     "network.remote_sweep", None),
    ("network.codec", "repro.network.codec:encode_frame", "network.codec",
     None),
    ("network.codec", "repro.network.codec:decode_frame", "network.codec",
     None),
)


class Recorder:
    """In-memory span store; :attr:`on` gates recording."""

    def __init__(self):
        self.on = False
        self.origin = time.perf_counter()
        #: (name, group, start, wall, cpu, count, outermost) tuples.
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, group: str, fn, count=None):
        """A wrapper around ``fn`` that records one span per call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.on:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            outermost = group not in stack
            stack.append(group)
            start = time.perf_counter()
            cpu = time.thread_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                wall = time.perf_counter() - start
                cpu = time.thread_time() - cpu
                stack.pop()
                n = 1 if count is None else count(args, result)
                recorder.spans.append((name, group, start - recorder.origin,
                                       wall, cpu, n, outermost))

        return wrapper

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write every span (and ``extra`` counters) as one JSON file."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "missing": self.missing,
                       "extra": extra or {}}, handle)


def _resolve(spec: str):
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(recorder: Recorder) -> Recorder:
    """Wrap every :data:`TARGETS` entry this program version still has.

    A module-level function is replaced in its defining module *and* in
    every loaded ``repro`` module that imported it by name, so callers
    that did ``from module import function`` see the wrapper too.
    Targets that no longer exist are listed in ``recorder.missing``.
    """
    import repro  # noqa: F401  (loads the package's modules)
    for name, spec, group, count in TARGETS:
        try:
            owner, attr = _resolve(spec)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            recorder.missing.append(spec)
            continue
        wrapper = recorder.wrap(name, group, original, count)
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            continue
        for module_name, module in list(sys.modules.items()):
            if (module_name.startswith("repro") and module is not owner
                    and getattr(module, attr, None) is original):
                setattr(module, attr, wrapper)
    return recorder


def load(path: str) -> dict:
    """Read a span file written by :meth:`Recorder.dump`."""
    with open(path) as handle:
        data = json.load(handle)
    data["spans"] = [tuple(span) for span in data["spans"]]
    return data
