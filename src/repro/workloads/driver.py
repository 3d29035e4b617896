"""Multi-user workload driver (the JMETER analogue).

The driver owns two engines over the same catalog, built from one config
by :func:`repro.core.accelerator.make_engine` — the machine with its GPUs
and the same machine without them — profiles each query once per arm
(caching the cost profile), and exposes the two run modes of section 5:

- ``run_serial``: one-at-a-time elapsed times (Figures 5-7, Table 2);
- ``closed_loop``: thread groups of closed-loop sessions cycling through
  their query lists in :mod:`repro.sim`, with the serving telemetry of
  :mod:`repro.obs.serving` attached — Table 3's N identical streams,
  Figures 8-9's mixed groups and ``repro serve-bench``'s session ladder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import SystemConfig
from repro.core.accelerator import make_engine
from repro.obs.serving import ServingRun, build_serving_run
from repro.sim import UserScript, WorkloadSimulator
from repro.timing import QueryProfile
from repro.workloads.query import SessionGroup, WorkloadQuery


@dataclass(frozen=True)
class SerialRun:
    """One query's serial measurement under one configuration."""

    query_id: str
    elapsed_ms: float
    offloaded: bool


def table_checksum(table) -> str:
    """Deterministic short digest of a result table's schema and values.

    The benchmark baselines record this per query so the regression gate
    (and CI's overlap-effectiveness step) can prove a perf change left
    the query *answers* untouched, not just the timings.
    """
    digest = hashlib.sha256()
    data = table.to_pydict()
    for name in table.schema.names():
        digest.update(name.encode())
        digest.update(b"\x00")
        digest.update(repr(data[name]).encode())
        digest.update(b"\x01")
    return digest.hexdigest()[:16]


def tables_match(a, b, float_tol: float = 1e-9) -> bool:
    """Structural + value equality of two result tables.

    Floats compare with a tolerance (aggregation order may differ between
    the CPU and GPU operator chains); everything else must be identical.
    """
    import numpy as np

    if a.schema.names() != b.schema.names() or a.num_rows != b.num_rows:
        return False
    da, db = a.to_pydict(), b.to_pydict()
    for name in a.schema.names():
        for x, y in zip(da[name], db[name]):
            if isinstance(x, float) or isinstance(y, float):
                if not np.isclose(x, y, rtol=float_tol, atol=1e-6,
                                  equal_nan=True):
                    return False
            elif x != y:
                return False
    return True


class WorkloadDriver:
    """Profiles workload queries and replays them serially or concurrently."""

    # Profiles are always collected at the widest degree of the Table-3
    # sweep and clamped down for narrower runs.
    PROFILE_DEGREE = 64

    def __init__(self, catalog, config: SystemConfig,
                 degree: int = 48, *,
                 enable_join_offload: bool = False) -> None:
        self.catalog = catalog
        self.config = config
        self.degree = degree
        self.gpu_engine, self.cpu_engine = (
            make_engine(catalog, config, gpu, default_degree=degree,
                        enable_join_offload=enable_join_offload)
            for gpu in (True, False))
        self._profiles: dict[tuple[str, bool], QueryProfile] = {}
        self._checksums: dict[tuple[str, bool], str] = {}

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------

    def profile(self, query: WorkloadQuery, gpu: bool) -> QueryProfile:
        """Execute (once) and cache the cost profile of ``query``."""
        key = (query.query_id, gpu)
        if key not in self._profiles:
            result = self._engine(gpu).execute_sql(
                query.sql, query_id=query.query_id,
                degree=self.PROFILE_DEGREE)
            self._profiles[key] = result.profile
            self._checksums[key] = table_checksum(result.table)
        return self._profiles[key]

    def result_checksum(self, query: WorkloadQuery, gpu: bool) -> str:
        """Digest of ``query``'s result table (executes once, cached)."""
        key = (query.query_id, gpu)
        if key not in self._checksums:
            self.profile(query, gpu)
        return self._checksums[key]

    def elapsed_ms(self, query: WorkloadQuery, gpu: bool,
                   degree: Optional[int] = None) -> float:
        """Stand-alone elapsed milliseconds at ``degree`` (driver default)."""
        degree = degree or self.degree
        profile = self._profile_at_degree(query, gpu, degree)
        return profile.elapsed_serial(degree, self.config.host) * 1e3

    def verify_parity(self, queries: Sequence[WorkloadQuery]) -> list[str]:
        """Run each query on both engines and compare the result tables.

        Returns the ids of queries whose GPU-engine results differ from
        the CPU baseline (empty list = full parity).  This is the chaos
        run's acceptance check: under any fault plan the accelerated
        engine must still produce the baseline answers.
        """
        mismatched = []
        for query in queries:
            got = self.gpu_engine.execute_sql(
                query.sql, query_id=f"{query.query_id}-parity-gpu").table
            want = self.cpu_engine.execute_sql(
                query.sql, query_id=f"{query.query_id}-parity-cpu").table
            if not tables_match(got, want):
                mismatched.append(query.query_id)
        return mismatched

    # ------------------------------------------------------------------
    # Run modes
    # ------------------------------------------------------------------

    def run_serial(self, queries: Sequence[WorkloadQuery],
                   gpu: bool) -> list[SerialRun]:
        """Serial one-user run at the driver's degree.  The simulation is
        deterministic, so one run stands for the paper's average of 5."""
        out = []
        for query in queries:
            profile = self.profile(query, gpu)
            elapsed = profile.elapsed_serial(self.degree, self.config.host)
            out.append(SerialRun(query.query_id, elapsed * 1e3,
                                 profile.offloaded))
        return out

    def closed_loop(self, groups: Sequence[SessionGroup], *,
                    gpu: bool = True, degree: Optional[int] = None,
                    loops: int = 1) -> ServingRun:
        """Run every group's sessions concurrently, ``loops`` times over
        their queries, and attach the serving telemetry.

        Session ids are the group name plus a 1-based index
        (``stream1``, ``session8``).  Profiles are clamped to ``degree``
        (the driver's by default); the engine's flight recorder receives
        the replay.
        """
        degree = degree or self.degree
        users = []
        class_of = {}
        for group in groups:
            profiles = [self._profile_at_degree(q, gpu, degree)
                        for q in group.queries]
            class_of.update((q.query_id, q.category.value)
                            for q in group.queries)
            users += [
                UserScript(f"{group.name}{i + 1}", list(profiles), loops,
                           group.think_seconds)
                for i in range(group.sessions)
            ]
        result = WorkloadSimulator(self._engine(gpu).config).run(users)
        return build_serving_run(result, class_of, sessions=len(users),
                                 recorder=self.gpu_engine.recorder)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _profile_at_degree(self, query: WorkloadQuery, gpu: bool,
                           degree: int) -> QueryProfile:
        """Profiles are degree-independent in work terms (cost events carry
        core-seconds and their own max_degree caps); the run degree only
        matters to the simulator via max_degree clamping, so we clamp here."""
        base = self.profile(query, gpu)
        if degree >= self.PROFILE_DEGREE:
            return base
        from repro.timing import CostEvent

        events = [
            CostEvent(
                op=e.op, rows=e.rows, cpu_seconds=e.cpu_seconds,
                max_degree=min(e.max_degree, degree) if e.max_degree > 1
                else e.max_degree,
                gpu_seconds=e.gpu_seconds,
                gpu_memory_bytes=e.gpu_memory_bytes,
                device_id=e.device_id,
                parallel_group=e.parallel_group,
            )
            for e in base.events
        ]
        return QueryProfile(base.query_id, base.gpu_enabled, events)

    def _engine(self, gpu: bool):
        return self.gpu_engine if gpu else self.cpu_engine


class ConcurrentDriver:
    """``sessions`` identical users over one query list: a one-group
    :meth:`WorkloadDriver.closed_loop`.

    It stays only because the host-clock harness in ``benchmarks/wall``
    builds it; new callers use :meth:`WorkloadDriver.closed_loop`.
    """

    def __init__(self, driver: WorkloadDriver,
                 queries: Sequence[WorkloadQuery], *,
                 loops: int = 1, think_seconds: float = 0.0) -> None:
        self.driver = driver
        self.queries = list(queries)
        self.loops = loops
        self.think_seconds = think_seconds

    def run(self, sessions: int, degree: Optional[int] = None,
            gpu: bool = True) -> ServingRun:
        """Run ``sessions`` closed-loop users and return the telemetry."""
        group = SessionGroup("session", sessions, self.queries,
                             self.think_seconds)
        return self.driver.closed_loop([group], gpu=gpu, degree=degree,
                                       loops=self.loops)
