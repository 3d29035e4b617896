"""The five workloads: what one op is, how it is checked, what it counts.

Every workload offers the same few calls to the runner —
``build(catalog)``, ``warm_up()``, ``reference()``, ``run(op)`` (the
only call that is timed) and ``digest(op, outcome)`` (untimed: the
simulated clock, the answer check, the counts).  Four are serial SQL
passes that differ in *which* queries run under *which* config; the
fifth replays BD Insights profiles through the discrete-event
simulator.  Importing this module imports ``repro`` — the runner times
that import as ``workloads.import_s``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.workloads.bdinsights import (
    bd_insights_queries,
    queries_by_category,
)
from repro.workloads.cognos_rolap import screen_queries
from repro.workloads.datagen import scaled_config
from repro.workloads.driver import (
    ConcurrentDriver,
    WorkloadDriver,
    table_checksum,
)
from repro.workloads.query import QueryCategory, WorkloadQuery

from wallbench.spec import DEGREE


@dataclass
class OpDigest:
    """What one op did, read after the clock stopped."""

    op_id: str
    sim_ms: float
    checksum: str
    attempted: int = 1
    failed: int = 0
    offloaded: int = 0
    cost_events: int = 0
    rows_in: int = 0
    #: Serving only: requests, p99_ms, qph, max_queue_depth,
    #: queue_wait_s, spans.
    serving: dict = field(default_factory=dict)


def _shuffled(ops: Sequence, seed: int) -> list:
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Serial SQL workloads
# ---------------------------------------------------------------------------


def _dashboard(driver: WorkloadDriver) -> list[WorkloadQuery]:
    return (queries_by_category(QueryCategory.SIMPLE)
            + queries_by_category(QueryCategory.INTERMEDIATE))


def _complex(driver: WorkloadDriver) -> list[WorkloadQuery]:
    return queries_by_category(QueryCategory.COMPLEX)


def _offload(driver: WorkloadDriver) -> list[WorkloadQuery]:
    runnable, _oversized = screen_queries(driver.gpu_engine)
    return _complex(driver) + runnable


def _over_memory(driver: WorkloadDriver) -> list[WorkloadQuery]:
    _runnable, oversized = screen_queries(driver.gpu_engine)
    return oversized


class SerialWorkload:
    """One pass = every selected query once through ``execute_sql``."""

    def __init__(self, name: str, seed: int,
                 select: Callable[[WorkloadDriver], list[WorkloadQuery]],
                 gpus: int = 2, join_offload: bool = False,
                 **config_overrides) -> None:
        self.name = name
        self.seed = seed
        self._select = select
        self._gpus = gpus
        self._join_offload = join_offload
        self._config_overrides = config_overrides
        self.ops: list[WorkloadQuery] = []
        self.ref_checksum: dict[str, str] = {}
        self.cpu_sim_ms: dict[str, float] = {}

    def build(self, catalog) -> None:
        config = dataclasses.replace(scaled_config(catalog, gpus=self._gpus),
                                     **self._config_overrides)
        self.driver = WorkloadDriver(catalog, config, degree=DEGREE,
                                     enable_join_offload=self._join_offload)
        self.engine = self.driver.gpu_engine
        self.ops = _shuffled(self._select(self.driver), self.seed)

    def op_id(self, op: WorkloadQuery) -> str:
        return op.query_id

    def attempts(self, op: WorkloadQuery) -> int:
        return 1

    def _sim_ms(self, result) -> float:
        host = self.driver.config.host
        return result.profile.elapsed_serial(DEGREE, host) * 1e3

    def warm_up(self) -> None:
        """One untimed pass: the device column cache fills."""
        for op in self.ops:
            self.run(op)

    def reference(self) -> None:
        """The stock CPU engine's answers and simulated times."""
        for op in self.ops:
            result = self.driver.cpu_engine.execute_sql(
                op.sql, query_id=op.query_id)
            self.ref_checksum[op.query_id] = table_checksum(result.table)
            self.cpu_sim_ms[op.query_id] = self._sim_ms(result)

    def run(self, op: WorkloadQuery):
        return self.engine.execute_sql(op.sql, query_id=op.query_id)

    def digest(self, op: WorkloadQuery, result) -> OpDigest:
        checksum = table_checksum(result.table)
        events = result.profile.events
        return OpDigest(
            op_id=op.query_id,
            sim_ms=self._sim_ms(result),
            checksum=checksum,
            failed=int(checksum != self.ref_checksum[op.query_id]),
            offloaded=int(result.profile.offloaded),
            cost_events=len(events),
            rows_in=sum(e.rows for e in events),
        )

    def span_count(self) -> int:
        return len(self.engine.tracer.spans)


# ---------------------------------------------------------------------------
# Serving replay
# ---------------------------------------------------------------------------


class ServingReplay:
    """One pass = the closed-loop replay at 8, 32 and 64 sessions.

    The engine only works during set-up (one profile per query, cached
    by the driver); a timed op is ``ConcurrentDriver.run(sessions)`` —
    the discrete-event simulator plus the serving telemetry build.
    """

    SESSIONS = (8, 32, 64)

    def __init__(self, name: str, seed: int, query_stride: int = 1) -> None:
        self.name = name
        self.seed = seed
        self._stride = query_stride
        self.ops: list[int] = []
        self.cpu_sim_ms: dict[str, float] = {}
        self._mismatched: set[str] = set()
        self._replay_spans = 0

    def build(self, catalog) -> None:
        self.driver = WorkloadDriver(catalog, scaled_config(catalog),
                                     degree=DEGREE)
        self.engine = self.driver.gpu_engine
        self.queries = bd_insights_queries()[::self._stride]
        self.concurrent = ConcurrentDriver(self.driver, self.queries,
                                           loops=1)
        self.ops = _shuffled(self.SESSIONS, self.seed)

    def op_id(self, op: int) -> str:
        return f"sessions_{op}"

    def attempts(self, op: int) -> int:
        return op * len(self.queries)

    def warm_up(self) -> None:
        """Fill the driver's profile cache (each query once on the GPU)."""
        for query in self.queries:
            self.driver.profile(query, gpu=True)

    def reference(self) -> None:
        """CPU-engine answers per query, CPU-only makespan per op."""
        self._mismatched = {
            q.query_id for q in self.queries
            if self.driver.result_checksum(q, gpu=True)
            != self.driver.result_checksum(q, gpu=False)
        }
        for op in self.ops:
            run = self.concurrent.run(op, gpu=False)
            self.cpu_sim_ms[self.op_id(op)] = run.makespan * 1e3

    def run(self, op: int):
        return self.concurrent.run(op)

    def digest(self, op: int, run) -> OpDigest:
        requests = run.sim.requests
        attempted = self.attempts(op)
        wrong = sum(1 for r in requests if r.query_id in self._mismatched)
        p99_ms = run.hist.p99 * 1e3
        qph = run.throughput_per_hour()
        self._replay_spans += len(run.tracer.spans)
        return OpDigest(
            op_id=self.op_id(op),
            sim_ms=run.makespan * 1e3,
            checksum=hashlib.sha256(
                repr((len(requests), p99_ms, qph)).encode()
            ).hexdigest()[:16],
            attempted=attempted,
            failed=attempted - len(requests) + wrong,
            offloaded=sum(1 for r in requests if r.offloaded),
            serving={
                "sessions": op,
                "requests": len(requests),
                "p99_ms": p99_ms,
                "qph": qph,
                "max_queue_depth": run.sim.max_queue_depth(),
                "queue_wait_s": run.queue_wait_seconds(),
            },
        )

    def span_count(self) -> int:
        """Spans the per-run replay tracers have recorded so far."""
        return self._replay_spans


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def make_workload(name: str, seed: int, quick: bool = False):
    """The workload object for a ``BENCHMARK.json`` workload name."""
    if name == "bd_dashboard":
        return SerialWorkload(name, seed, _dashboard)
    if name == "bd_rolap_offload":
        return SerialWorkload(name, seed, _offload)
    if name == "rolap_over_memory":
        return SerialWorkload(name, seed, _over_memory)
    if name == "scale_out_sharded":
        # The knobs of repro.obs.bench.run_scale_out: fusion would run
        # the whole chain on one device and hide the sharded branches.
        return SerialWorkload(name, seed, _complex, gpus=4,
                              join_offload=True, shard_enabled=True,
                              nvlink_enabled=True, fusion_enabled=False)
    if name == "serving_replay":
        # --quick keeps every fourth query so the smoke suite stays short;
        # the simulator's cost follows requests, not database scale.
        return ServingReplay(name, seed, query_stride=4 if quick else 1)
    raise KeyError(f"unknown workload {name!r}")
