"""Host-clock spans recorded from the harness side of every layer seam.

The engine's own tracer runs on the simulated clock; until spans move
inside the program (a later change) the harness gets the host clock by
wrapping the public seams below at class/module level for one traced
pass and putting the originals back afterwards.  A span is
``(name, metric, start_ns, end_ns, parent, op)``; a layer's ``*_ms`` is
the **self time** of its spans — duration minus the part child spans
cover — so layer self times plus the time under no layer span
(``bench.unattributed_pct``) add up to the traced pass exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Iterator, Optional

#: (module, class or None, attribute, per-layer metric the self time
#: is booked to).  Module-level names are patched where they are
#: *bound for the call*: the operator functions in ``repro.blu.engine``,
#: ``build_serving_run`` in ``repro.workloads.driver``.
SEAMS = [
    ("repro.blu.sql", None, "parse_query", "blu.parse_ms"),
    ("repro.blu.optimizer", "Optimizer", "annotate", "blu.annotate_ms"),
    ("repro.blu.engine", "BluEngine", "execute_plan", "blu.engine_self_ms"),
    ("repro.blu.engine", None, "execute_scan", "blu.scan_ms"),
    ("repro.blu.engine", None, "execute_join", "blu.join_ms"),
    ("repro.blu.engine", None, "execute_groupby_cpu", "blu.groupby_cpu_ms"),
    ("repro.blu.engine", None, "execute_sort_cpu", "blu.sort_cpu_ms"),
    ("repro.blu.engine", None, "execute_project", "blu.tail_ms"),
    ("repro.blu.engine", None, "execute_rank", "blu.tail_ms"),
    ("repro.blu.engine", None, "execute_limit", "blu.tail_ms"),
    ("repro.core.hybrid_groupby", "HybridGroupByExecutor", "__call__",
     "core.groupby_ms"),
    ("repro.core.hybrid_sort", "HybridSortExecutor", "__call__",
     "core.sort_ms"),
    ("repro.core.hybrid_sort", "HybridSortExecutor", "rank_order",
     "core.sort_ms"),
    ("repro.core.hybrid_join", "HybridJoinExecutor", "__call__",
     "core.join_ms"),
    ("repro.core.monitoring", "PerformanceMonitor", "record_profile",
     "core.monitor_ms"),
    ("repro.gpu.fusion", "FusedExecutor", "__call__", "gpu.fused_ms"),
    ("repro.gpu.kernels.groupby_regular", "RegularGroupByKernel", "run",
     "gpu.kernel_groupby_ms"),
    ("repro.gpu.kernels.groupby_shared", "SharedMemoryGroupByKernel", "run",
     "gpu.kernel_groupby_ms"),
    ("repro.gpu.kernels.groupby_biglock", "GlobalLockGroupByKernel", "run",
     "gpu.kernel_groupby_ms"),
    ("repro.gpu.kernels.radix_sort", "RadixSortKernel", "run",
     "gpu.kernel_sort_ms"),
    ("repro.gpu.kernels.join", "HashJoinKernel", "run",
     "gpu.kernel_join_ms"),
    ("repro.gpu.device", "GpuDevice", "launch", "gpu.launch_ms"),
    ("repro.sim.simulator", "WorkloadSimulator", "run", "sim.run_s"),
    ("repro.workloads.driver", None, "build_serving_run",
     "obs.serving_build_s"),
]

#: Metric name the root (per-op) span's self time is booked to.
UNATTRIBUTED = "bench.unattributed"


def seam_owner(module: str, cls: Optional[str]):
    """The object (module or class) whose attribute a seam patches."""
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class SpanRecorder:
    """In-memory span list for one traced pass (single thread)."""

    def __init__(self) -> None:
        #: ``[name, metric, start_ns, end_ns, parent index, op id]``.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: Optional[str] = None

    def _enter(self, name: str, metric: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, metric, 0, 0, parent, self._op])
        self._stack.append(index)
        self.spans[index][2] = time.perf_counter_ns()
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, metric: str):
        """``fn`` with a span around every call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name, metric)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)
        return traced

    @contextmanager
    def op(self, op_id: str) -> Iterator[None]:
        """Root span of one workload op; its children share ``op_id``."""
        self._op = op_id
        index = self._enter(f"op:{op_id}", UNATTRIBUTED)
        try:
            yield
        finally:
            self._exit(index)
            self._op = None

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Install a wrapper on every seam; restore the originals on exit."""
        originals = []
        try:
            for module, cls, attr, metric in SEAMS:
                owner = seam_owner(module, cls)
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                label = ".".join(p for p in (module, cls, attr) if p)
                setattr(owner, attr, self.wrap(original, label, metric))
            yield
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Self time per metric: duration minus what child spans cover."""
        covered = [0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, int] = {}
        for (_, metric, start, end, _, _), inner in zip(self.spans, covered):
            out[metric] = out.get(metric, 0) + (end - start) - inner
        return out

    def root_ns(self) -> int:
        """Total duration of the op (root) spans."""
        return sum(end - start
                   for _, _, start, end, parent, _ in self.spans
                   if parent < 0)

    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        origin = self.spans[0][2] if self.spans else 0
        events = [
            {"name": name, "cat": metric, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
             "args": {"op": op, "span": index, "parent": parent}}
            for index, (name, metric, start, end, parent, op)
            in enumerate(self.spans)
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, f)
