"""Shared timing primitives: cost events and query profiles.

Everything in this repository computes *real results* but reports *simulated
time*.  The common currency is the :class:`CostEvent`: one operator stage,
carrying either CPU work (total core-seconds plus the maximum useful degree
of parallelism) or GPU work (a device-resident duration plus the device
memory it holds while running — transfers included, priced by the GPU
substrate when the event is produced).

A :class:`QueryProfile` is the ordered list of events one query execution
produced.  Serial experiments fold a profile directly into elapsed time;
concurrency experiments replay profiles through the processor-sharing
discrete-event simulator in :mod:`repro.sim`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class CostEvent:
    """One timed stage of query execution.

    Attributes
    ----------
    op:
        Short operator label ("SCAN", "JOIN", "GPU-GROUPBY", ...).
    rows:
        Input rows the stage processed (for reporting only).
    cpu_seconds:
        Total CPU work in core-seconds.  Elapsed time is
        ``cpu_seconds / degree_granted``.
    max_degree:
        The largest number of cores this stage can exploit (1 for the
        single dispatcher thread that launches a GPU kernel).
    gpu_seconds:
        Device-resident duration: transfer in + kernel + transfer out.
        Zero for pure-CPU stages.
    gpu_memory_bytes:
        Device memory reserved for the whole ``gpu_seconds`` window.
    device_id:
        Which simulated GPU ran the work (-1 when none).
    parallel_group:
        Events sharing a non-negative group id that appear consecutively
        in a profile may run concurrently (the multi-GPU data-parallel
        path of section 2.2: partitions "sent to some number of available
        GPU devices, to be operated on concurrently").  -1 = sequential.
    """

    op: str
    rows: int = 0
    cpu_seconds: float = 0.0
    max_degree: int = 1
    gpu_seconds: float = 0.0
    gpu_memory_bytes: int = 0
    device_id: int = -1
    parallel_group: int = -1

    @property
    def uses_gpu(self) -> bool:
        return self.gpu_seconds > 0.0

    def elapsed(self, cores: int, host=None) -> float:
        """Elapsed seconds when granted ``cores`` threads, uncontended.

        With a :class:`repro.config.HostSpec` supplied, thread counts above
        the physical core count earn only the SMT bonus.
        """
        degree = max(1, min(cores, self.max_degree))
        capacity = host.effective_capacity(degree) if host is not None \
            else float(degree)
        duration = self.cpu_seconds / max(capacity, 1e-9) \
            if self.cpu_seconds else 0.0
        return duration + self.gpu_seconds


class CostLedger:
    """Accumulates cost events during one query execution.

    ``on_add`` is the observability hook: the tracing layer registers a
    callback that advances the simulated trace clock as each event lands,
    so span boundaries line up with the accounted costs.
    """

    def __init__(self, on_add=None) -> None:
        self.events: list[CostEvent] = []
        self._on_add = on_add
        self._parallel_groups = itertools.count()

    def claim_parallel_group(self) -> int:
        """A parallel-group id no other event of this query carries.

        Ids rise with every claim, so a wave that claims one per device
        rank can sort its events by id; they are state of the query, not
        of the process — the same statement numbers its groups the same
        way on every run.
        """
        return next(self._parallel_groups)

    def add(self, event: CostEvent) -> None:
        self.events.append(event)
        if self._on_add is not None:
            self._on_add(event)

    def cpu(self, op: str, rows: int, cpu_seconds: float, max_degree: int) -> None:
        self.add(CostEvent(op=op, rows=rows, cpu_seconds=cpu_seconds,
                           max_degree=max_degree))

    def extend(self, events: Iterable[CostEvent]) -> None:
        for event in events:
            self.add(event)


@dataclass
class QueryProfile:
    """The timed trace of one query execution under one configuration."""

    query_id: str
    gpu_enabled: bool
    events: list[CostEvent] = field(default_factory=list)

    @property
    def cpu_core_seconds(self) -> float:
        return sum(e.cpu_seconds for e in self.events)

    @property
    def gpu_seconds(self) -> float:
        return sum(e.gpu_seconds for e in self.events)

    @property
    def offloaded(self) -> bool:
        return any(e.uses_gpu for e in self.events)

    @property
    def peak_gpu_memory(self) -> int:
        return max((e.gpu_memory_bytes for e in self.events), default=0)

    def elapsed_serial(self, cores: int, host=None) -> float:
        """Stand-alone elapsed seconds with ``cores`` threads granted.

        Consecutive events sharing a parallel group overlap: their
        contribution is the slowest member, not the sum (uncontended
        hardware is assumed — the simulator models contention).
        """
        total = 0.0
        i = 0
        events = self.events
        while i < len(events):
            event = events[i]
            if event.parallel_group < 0:
                total += event.elapsed(cores, host)
                i += 1
                continue
            group = event.parallel_group
            j = i
            slowest = 0.0
            while j < len(events) and events[j].parallel_group == group:
                slowest = max(slowest, events[j].elapsed(cores, host))
                j += 1
            total += slowest
            i = j
        return total

    def breakdown(self) -> dict[str, float]:
        """Elapsed-time-equivalent per operator label at degree=max."""
        out: dict[str, float] = {}
        for e in self.events:
            out[e.op] = out.get(e.op, 0.0) + e.elapsed(cores=10**9)
        return out


@dataclass(frozen=True)
class TimedResult:
    """A query result paired with its profile (what the engine returns)."""

    table: object          # repro.blu.table.Table
    profile: QueryProfile

    @property
    def elapsed_ms(self) -> float:
        """Convenience: serial elapsed at full machine width, in ms."""
        return self.profile.elapsed_serial(cores=24) * 1e3
