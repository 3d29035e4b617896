"""EXPLAIN ANALYZE: attributed per-query profiles built from span trees.

The paper's §2.3 monitor existed because nvidia-smi could not say where
a query's time went *inside* the host application.  This module is that
answer made first-class: it consumes one finished query's span tree
(:mod:`repro.obs.tracing`) plus the decision records the path selector,
moderator, and scheduler emitted along the way, and produces a
deterministic hierarchical :class:`QueryProfile`:

- per-operator simulated-time breakdown with CPU / transfer-in / kernel /
  transfer-out / launch-overhead attribution (every span's *self* time is
  charged to exactly one component of exactly one operator, so the
  per-operator rows sum to the query total to the last bit);
- the Figure-3 path-selection verdict with the T1/T2/T3 thresholds and
  the KMV group-count estimate vs. the **actual** group count — the
  estimation error the paper's engineers tuned against;
- the moderator's kernel choice, race outcomes, and overflow retries;
- per-device occupancy intervals (which GPU was busy when, and with what).

Renderings: ``to_text()`` (EXPLAIN ANALYZE-style report), ``to_dict()``
(JSON), and ``to_html()`` (a self-contained timeline, no external assets).

Not to be confused with :class:`repro.timing.QueryProfile`, the flat cost
event list the engine returns; this class is the *attributed* view built
on top of the trace that the cost events drove.
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from repro.obs.tracing import Span, Tracer

#: Attribution buckets, in display order.  ``queue_wait`` is the serving
#: layer's admission-queue phase; single-query traces never produce it,
#: so their reports are unchanged.
COMPONENTS = ("cpu", "transfer_in", "kernel", "transfer_out",
              "launch_overhead", "stall", "backoff", "queue_wait")

# Span name -> component its self-time is charged to.  ``gpu.kernel``
# is handled specially (it splits into launch_overhead + kernel using
# the launch_overhead attribute the device stamps on the span), as is
# ``session.execute`` (charged to kernel or cpu by its ``kind``).
_SPAN_COMPONENT = {
    "gpu.transfer_in": "transfer_in",
    "gpu.transfer_out": "transfer_out",
    "gpu.transfer_stall": "stall",
    "fault.backoff": "backoff",
    "session.queue_wait": "queue_wait",
}

#: Span names that appear as rows of the operator tree.
_OPERATOR_PREFIX = "op."
_OPERATOR_EXTRA = ("query", "plan")


def _is_operator(name: str) -> bool:
    return name.startswith(_OPERATOR_PREFIX) or name in _OPERATOR_EXTRA


class ProfileError(Exception):
    """No trace (or no matching query) to profile."""


# ---------------------------------------------------------------------------
# Profile nodes and sections
# ---------------------------------------------------------------------------


@dataclass
class OperatorNode:
    """One operator row: a span plus its attributed self-time."""

    span: Span
    depth: int
    children: list["OperatorNode"] = field(default_factory=list)
    self_components: dict[str, float] = field(
        default_factory=lambda: {c: 0.0 for c in COMPONENTS})
    #: Seconds this operator kept each device occupied (``gpu.launch``
    #: windows owned by this row) — the device axis of ``repro
    #: profile-diff``'s operator x component x device attribution.
    device_seconds: dict[int, float] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.span.name

    @property
    def duration(self) -> float:
        return self.span.duration

    @property
    def self_seconds(self) -> float:
        return sum(self.self_components.values())

    def walk(self) -> Iterable["OperatorNode"]:
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span.span_id,
            "start": self.span.start,
            "end": self.span.end,
            "duration": self.duration,
            "attributes": dict(self.span.attributes),
            "self_components": {
                c: v for c, v in self.self_components.items() if v
            },
            "device_seconds": {
                str(d): v for d, v in sorted(self.device_seconds.items())
            },
            "children": [c.to_dict() for c in self.children],
        }


@dataclass(frozen=True)
class PathVerdict:
    """One Figure-3 routing decision, joined with its group-by's counts."""

    operator: str              # "groupby" | "sort"
    rows: int
    path: str                  # "gpu" / "cpu-small" / ... (sort: offload flag)
    reason: str
    thresholds: dict           # {"t1": ..., "t2": ..., "t3": ...} (groupby)
    optimizer_groups: Optional[float] = None
    kmv_groups: Optional[int] = None
    actual_groups: Optional[int] = None

    @property
    def kmv_relative_error(self) -> Optional[float]:
        """``|kmv - actual| / actual`` — the paper's central tuning signal."""
        if self.kmv_groups is None or not self.actual_groups:
            return None
        return abs(self.kmv_groups - self.actual_groups) / self.actual_groups

    def to_dict(self) -> dict:
        return {
            "operator": self.operator, "rows": self.rows,
            "path": self.path, "reason": self.reason,
            "thresholds": dict(self.thresholds),
            "optimizer_groups": self.optimizer_groups,
            "kmv_groups": self.kmv_groups,
            "actual_groups": self.actual_groups,
            "kmv_relative_error": self.kmv_relative_error,
        }


@dataclass(frozen=True)
class KernelChoice:
    """One moderator outcome: the kernel that ran, and what it beat."""

    kernel: str
    reason: str
    raced: bool
    cancelled: tuple[str, ...]
    overflow_retries: int

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel, "reason": self.reason,
            "raced": self.raced, "cancelled": list(self.cancelled),
            "overflow_retries": self.overflow_retries,
        }


@dataclass(frozen=True)
class OccupancySlice:
    """One kernel launch window on one device (transfers included)."""

    device_id: int
    kernel: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        return {"device_id": self.device_id, "kernel": self.kernel,
                "start": self.start, "end": self.end}


# ---------------------------------------------------------------------------
# The profile
# ---------------------------------------------------------------------------


@dataclass
class QueryProfile:
    """The attributed EXPLAIN ANALYZE view of one executed query."""

    query_id: str
    trace_id: int
    degree: int
    gpu_enabled: bool
    root: OperatorNode
    verdicts: list[PathVerdict]
    kernel_choices: list[KernelChoice]
    occupancy: list[OccupancySlice]
    scheduler_events: list[dict]       # quarantine / readmit / faults
    decisions: list                    # OffloadDecision records (monitor)
    bytes_in: int
    bytes_out: int
    cache_events: list[dict] = field(default_factory=list)
    pipeline_events: list[dict] = field(default_factory=list)
    fusion_events: list[dict] = field(default_factory=list)
    partition_events: list[dict] = field(default_factory=list)
    shard_events: list[dict] = field(default_factory=list)
    #: ``(bytes, seconds, device_id, stall_seconds)`` per transfer span —
    #: the raw legs :meth:`link_utilization` folds into per-link rows.
    transfer_legs: list[tuple] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Total simulated seconds of the query."""
        return self.root.duration

    @property
    def bytes_moved(self) -> int:
        return self.bytes_in + self.bytes_out

    def operators(self) -> list[OperatorNode]:
        """All operator rows in pre-order (root first)."""
        return list(self.root.walk())

    def component_totals(self) -> dict[str, float]:
        """Query-wide seconds per attribution component.

        The values sum to :attr:`duration` (within float rounding) — the
        invariant the acceptance test pins.
        """
        totals = {c: 0.0 for c in COMPONENTS}
        for node in self.root.walk():
            for component, seconds in node.self_components.items():
                totals[component] += seconds
        return totals

    def device_busy_seconds(self) -> dict[int, float]:
        """Total occupied seconds per device id."""
        out: dict[int, float] = {}
        for s in self.occupancy:
            out[s.device_id] = out.get(s.device_id, 0.0) + s.duration
        return out

    def cache_summary(self) -> dict:
        """Aggregate of the query's column-cache activity.

        ``hit_bytes`` is exactly the host->device traffic the cache
        elided for this query — it plus :attr:`bytes_in` equals what the
        query would have shipped with the cache disabled.
        """
        summary = {"hits": 0, "hit_bytes": 0, "inserts": 0,
                   "inserted_bytes": 0, "evictions": 0, "evicted_bytes": 0}
        for event in self.cache_events:
            nbytes = int(event.get("bytes", 0))
            if event["name"] == "cache.hit":
                summary["hits"] += 1
                summary["hit_bytes"] += nbytes
            elif event["name"] == "cache.insert":
                summary["inserts"] += 1
                summary["inserted_bytes"] += nbytes
            elif event["name"] == "cache.evict":
                summary["evictions"] += 1
                summary["evicted_bytes"] += nbytes
        return summary

    def pipeline_summary(self) -> dict:
        """Aggregate of the query's stream-pipelined launches.

        ``saved_seconds`` is the simulated time the transfer/compute
        overlap shaved off this query: the sum over pipelined launches of
        (serial makespan − overlapped makespan).  Kept outside the
        component attribution on purpose — the components describe the
        time the query *did* spend, and they still sum to the total.
        """
        summary = {"launches": len(self.pipeline_events), "chunks": 0,
                   "saved_seconds": 0.0, "serial_seconds": 0.0,
                   "overlapped_seconds": 0.0}
        for event in self.pipeline_events:
            summary["chunks"] += int(event.get("chunks", 0))
            summary["saved_seconds"] += float(event.get("saved_seconds", 0.0))
            summary["serial_seconds"] += float(
                event.get("serial_seconds", 0.0))
            summary["overlapped_seconds"] += float(
                event.get("overlapped_seconds", 0.0))
        return summary

    def fusion_summary(self) -> dict:
        """Aggregate of the query's fused chains (``docs/fusion.md``).

        ``elided_bytes`` is the PCIe traffic the fused launches did not
        ship compared to running the same chains per-operator on the GPU
        (actual counts, not planner estimates); ``stages`` counts plan
        operators executed inside fused launches, so ``stages - chains``
        is the number of kernel launches fusion removed.
        """
        summary = {"chains": len(self.fusion_events), "stages": 0,
                   "joins": 0, "elided_bytes": 0}
        for event in self.fusion_events:
            summary["stages"] += int(event.get("stages", 0))
            summary["joins"] += int(event.get("joins", 0))
            summary["elided_bytes"] += int(event.get("elided_bytes", 0))
        return summary

    def partition_summary(self) -> dict:
        """Aggregate of the query's out-of-core partitioned operators
        (``docs/out_of_core.md``).

        ``operators`` counts sorts/group-bys that ran partitioned;
        ``partitions`` is how many device-sized pieces they split into
        (``gpu_partitions`` of which ran on a card, ``cpu_partitions``
        degraded to the host on lease failure or a fault);
        ``merge_seconds`` is the host-side merge cost the planner broke
        out for EXPLAIN ANALYZE.
        """
        summary = {"operators": len(self.partition_events), "partitions": 0,
                   "gpu_partitions": 0, "cpu_partitions": 0,
                   "merge_seconds": 0.0}
        for event in self.partition_events:
            summary["partitions"] += int(event.get("partitions", 0))
            summary["gpu_partitions"] += int(event.get("gpu_partitions", 0))
            summary["cpu_partitions"] += int(event.get("cpu_partitions", 0))
            summary["merge_seconds"] += float(
                event.get("merge_seconds", 0.0))
        return summary

    def shard_summary(self) -> dict:
        """Aggregate of the query's sharded operators
        (``docs/scale_out.md``).

        ``operators`` counts group-bys/sorts/join probes that split
        across devices; ``shards`` is how many home-device pieces they
        cut into (``gpu_shards`` of which ran on their card,
        ``cpu_shards`` degraded to the host, ``rerouted`` landed on a
        non-home device after loss or quarantine); ``exchange_bytes`` /
        ``exchange_seconds`` are the cross-shard repartition traffic and
        ``stall_seconds`` the switch-contention penalty the topology
        model charged.
        """
        summary = {"operators": len(self.shard_events), "shards": 0,
                   "gpu_shards": 0, "cpu_shards": 0, "rerouted": 0,
                   "exchange_bytes": 0, "exchange_seconds": 0.0,
                   "merge_seconds": 0.0, "stall_seconds": 0.0}
        for event in self.shard_events:
            summary["shards"] += int(event.get("shards", 0))
            summary["gpu_shards"] += int(event.get("gpu_shards", 0))
            summary["cpu_shards"] += int(event.get("cpu_shards", 0))
            summary["rerouted"] += int(event.get("rerouted", 0))
            summary["exchange_bytes"] += int(event.get("exchange_bytes", 0))
            summary["exchange_seconds"] += float(
                event.get("exchange_seconds", 0.0))
            summary["merge_seconds"] += float(
                event.get("merge_seconds", 0.0))
            summary["stall_seconds"] += float(
                event.get("stall_seconds", 0.0))
        return summary

    def link_utilization(self) -> dict[str, dict]:
        """Per-link interconnect totals for this query.

        ``pcie{d}`` rows aggregate the query's transfer spans by device;
        the exchange transport (``nvlink`` or the host bounce) comes
        from the shard events.  Busy seconds over the query duration is
        the utilization figure the ``-- shards --`` section prints.
        """
        links: dict[str, dict] = {}

        def row(label: str) -> dict:
            return links.setdefault(
                label, {"bytes_total": 0, "busy_seconds": 0.0,
                        "stall_seconds": 0.0})
        for span_bytes, seconds, device_id, stall in self.transfer_legs:
            r = row(f"pcie{device_id}")
            r["bytes_total"] += span_bytes
            r["busy_seconds"] += seconds
            r["stall_seconds"] += stall
        for event in self.shard_events:
            nbytes = int(event.get("exchange_bytes", 0))
            if nbytes <= 0:
                continue
            label = "nvlink" if event.get("nvlink") else "pcie-host"
            r = row(label)
            r["bytes_total"] += nbytes
            r["busy_seconds"] += float(event.get("exchange_seconds", 0.0))
        return {label: links[label] for label in sorted(links)}

    def overlap_saved_by_operator(self) -> dict[str, float]:
        """Per-operator overlap savings (the EXPLAIN ANALYZE attribution)."""
        out: dict[str, float] = {}
        for event in self.pipeline_events:
            name = str(event.get("operator", "?"))
            out[name] = out.get(name, 0.0) + float(
                event.get("saved_seconds", 0.0))
        return out

    # ------------------------------------------------------------------
    # Renderings
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable dump of the whole profile."""
        return {
            "query_id": self.query_id,
            "trace_id": self.trace_id,
            "degree": self.degree,
            "gpu_enabled": self.gpu_enabled,
            "duration_seconds": self.duration,
            "component_totals": {
                c: v for c, v in self.component_totals().items() if v
            },
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "operators": self.root.to_dict(),
            "path_selection": [v.to_dict() for v in self.verdicts],
            "kernel_choices": [k.to_dict() for k in self.kernel_choices],
            "occupancy": [s.to_dict() for s in self.occupancy],
            "cache": {
                "summary": self.cache_summary(),
                "events": list(self.cache_events),
            },
            "stream_pipeline": {
                "summary": self.pipeline_summary(),
                "events": list(self.pipeline_events),
                "saved_by_operator": self.overlap_saved_by_operator(),
            },
            "fusion": {
                "summary": self.fusion_summary(),
                "events": list(self.fusion_events),
            },
            "partitions": {
                "summary": self.partition_summary(),
                "events": list(self.partition_events),
            },
            "shards": {
                "summary": self.shard_summary(),
                "events": list(self.shard_events),
                "links": self.link_utilization(),
            },
            "scheduler_events": list(self.scheduler_events),
            "offload_decisions": [
                {
                    "operator": d.operator, "path": d.path,
                    "reason": d.reason, "kernel": d.kernel,
                    "device_id": d.device_id,
                }
                for d in self.decisions
            ],
        }

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        """The EXPLAIN ANALYZE report."""
        ms = 1e3
        lines = [
            f"EXPLAIN ANALYZE  query={self.query_id}  degree={self.degree}  "
            f"gpu={'on' if self.gpu_enabled else 'off'}",
            f"simulated total: {self.duration * ms:.3f} ms",
            "",
        ]
        totals = self.component_totals()
        # The queue column only appears when a serving trace actually
        # waited — single-query reports stay byte-identical.
        show_queue = totals.get("queue_wait", 0.0) > 0.0
        header = (f"{'operator':40} {'total ms':>10} {'cpu':>9} "
                  f"{'xfer-in':>9} {'kernel':>9} {'xfer-out':>9} "
                  f"{'launch':>8}"
                  + (f" {'queue':>9}" if show_queue else "")
                  + f" {'other':>8}")
        lines.append(header)
        lines.append("-" * len(header))
        for node in self.root.walk():
            label = ("  " * node.depth) + node.name
            extras = _node_extras(node.span)
            if extras:
                label += f" [{extras}]"
            c = node.self_components
            other = c["stall"] + c["backoff"]
            lines.append(
                f"{label:40} {node.duration * ms:>10.3f} "
                f"{c['cpu'] * ms:>9.3f} {c['transfer_in'] * ms:>9.3f} "
                f"{c['kernel'] * ms:>9.3f} {c['transfer_out'] * ms:>9.3f} "
                f"{c['launch_overhead'] * ms:>8.3f}"
                + (f" {c['queue_wait'] * ms:>9.3f}" if show_queue else "")
                + f" {other * ms:>8.3f}"
            )
        accounted = sum(totals.values())
        lines.append("")
        lines.append(
            "component totals: "
            + "  ".join(f"{name}={totals[name] * ms:.3f}ms"
                        for name in COMPONENTS if totals[name])
        )
        share = (accounted / self.duration * 100.0) if self.duration else 100.0
        lines.append(f"accounted: {accounted * ms:.3f} of "
                     f"{self.duration * ms:.3f} ms ({share:.2f}%)")

        lines.append("")
        lines.append("-- path selection (Figure 3) --")
        if not self.verdicts:
            lines.append("(no offloadable operators)")
        for v in self.verdicts:
            thr = " ".join(f"{k.upper()}={v}" for k, v in
                           sorted(v.thresholds.items()))
            lines.append(f"{v.operator:8} -> {v.path:12} rows={v.rows}"
                         + (f"  [{thr}]" if thr else ""))
            if v.operator == "groupby":
                parts = []
                if v.optimizer_groups is not None:
                    parts.append(f"optimizer~{v.optimizer_groups:.0f}")
                if v.kmv_groups is not None:
                    parts.append(f"kmv~{v.kmv_groups}")
                if v.actual_groups is not None:
                    parts.append(f"actual={v.actual_groups}")
                error = v.kmv_relative_error
                if error is not None:
                    parts.append(f"kmv error {error * 100:.2f}%")
                if parts:
                    lines.append(f"{'':8}    groups: " + "  ".join(parts))
            lines.append(f"{'':8}    reason: {v.reason}")

        lines.append("")
        lines.append("-- kernel moderation --")
        if not self.kernel_choices:
            lines.append("(no kernels launched)")
        for k in self.kernel_choices:
            raced = (f"raced, cancelled {', '.join(k.cancelled)}"
                     if k.raced else "not raced")
            lines.append(f"{k.kernel:24} {raced}; "
                         f"overflow_retries={k.overflow_retries}"
                         + (f"  ({k.reason})" if k.reason else ""))

        lines.append("")
        lines.append("-- device occupancy --")
        busy = self.device_busy_seconds()
        if not busy:
            lines.append("(no device time)")
        for device_id in sorted(busy):
            slices = [s for s in self.occupancy
                      if s.device_id == device_id]
            share = (busy[device_id] / self.duration * 100.0
                     if self.duration else 0.0)
            lines.append(
                f"GPU {device_id}: {len(slices)} launch(es), busy "
                f"{busy[device_id] * ms:.3f} ms ({share:.1f}% of query)")
            for s in slices:
                lines.append(f"   [{s.start * ms:9.3f} .. {s.end * ms:9.3f}]"
                             f" {s.kernel}")
        if self.bytes_moved:
            lines.append("")
            lines.append(f"PCIe traffic: {self.bytes_in} B in, "
                         f"{self.bytes_out} B out")
        if self.cache_events:
            summary = self.cache_summary()
            lines.append("")
            lines.append("-- column cache --")
            lines.append(
                f"hits={summary['hits']} "
                f"(elided {summary['hit_bytes']} B in)  "
                f"inserts={summary['inserts']} "
                f"({summary['inserted_bytes']} B)  "
                f"evictions={summary['evictions']} "
                f"({summary['evicted_bytes']} B)")
            for event in self.cache_events:
                action = event["name"].split(".", 1)[1]
                detail = (f"{event.get('table', '?')}."
                          f"{event.get('column', '?')}  "
                          f"{event.get('bytes', 0)} B")
                if event.get("reason"):
                    detail += f"  ({event['reason']})"
                lines.append(f"{action:8} GPU {event.get('device_id', '?')}"
                             f"  {detail}")
        if self.pipeline_events:
            summary = self.pipeline_summary()
            lines.append("")
            lines.append("-- stream pipeline --")
            lines.append(
                f"pipelined launches={summary['launches']} "
                f"(chunks={summary['chunks']})  "
                f"overlapped {summary['overlapped_seconds'] * ms:.3f} ms vs "
                f"serial {summary['serial_seconds'] * ms:.3f} ms  "
                f"saved {summary['saved_seconds'] * ms:.3f} ms")
            for event in self.pipeline_events:
                lines.append(
                    f"{event.get('kernel', '?'):24} "
                    f"GPU {event.get('device_id', '?')}  "
                    f"depth={event.get('pipeline_depth', '?')} "
                    f"chunks={event.get('chunks', '?')} "
                    f"{event.get('chunk_bytes', 0)} B/chunk  "
                    f"saved {float(event.get('saved_seconds', 0.0)) * ms:.3f}"
                    f" ms")
            saved_by_op = self.overlap_saved_by_operator()
            if saved_by_op:
                lines.append(
                    "overlap saved by operator: "
                    + "  ".join(f"{name}={secs * ms:.3f}ms"
                                for name, secs in sorted(
                                    saved_by_op.items())))
        if self.fusion_events:
            summary = self.fusion_summary()
            lines.append("")
            lines.append("-- fusion --")
            lines.append(
                f"fused chains={summary['chains']} "
                f"(stages={summary['stages']}, joins={summary['joins']})  "
                f"launches removed={summary['stages'] - summary['chains']}  "
                f"elided {summary['elided_bytes']} B of PCIe traffic")
            for event in self.fusion_events:
                lines.append(
                    f"{event.get('operator', '?'):16} "
                    f"GPU {event.get('device_id', '?')}  "
                    f"stages={event.get('stages', '?')} "
                    f"joins={event.get('joins', '?')} "
                    f"matches={event.get('matches', '?')}  "
                    f"groupby={event.get('groupby_kernel', '?')}  "
                    f"elided {event.get('elided_bytes', 0)} B")
        if self.partition_events:
            summary = self.partition_summary()
            lines.append("")
            lines.append("-- partitions (out-of-core) --")
            lines.append(
                f"partitioned operators={summary['operators']}  "
                f"partitions={summary['partitions']} "
                f"(gpu={summary['gpu_partitions']}, "
                f"cpu={summary['cpu_partitions']})  "
                f"merge {summary['merge_seconds'] * ms:.3f} ms")
            for event in self.partition_events:
                lines.append(
                    f"{event.get('operator', '?'):16} "
                    f"partitions={event.get('partitions', '?')} "
                    f"(gpu={event.get('gpu_partitions', '?')}, "
                    f"cpu={event.get('cpu_partitions', '?')})  "
                    f"rows={event.get('rows', '?')}  "
                    f"working set {event.get('working_set', 0)} B vs "
                    f"device {event.get('capacity', 0)} B  "
                    f"merge "
                    f"{float(event.get('merge_seconds', 0.0)) * ms:.3f} ms")
        if self.shard_events:
            summary = self.shard_summary()
            lines.append("")
            lines.append("-- shards --")
            lines.append(
                f"sharded operators={summary['operators']}  "
                f"shards={summary['shards']} "
                f"(gpu={summary['gpu_shards']}, "
                f"cpu={summary['cpu_shards']}, "
                f"rerouted={summary['rerouted']})  "
                f"exchange {summary['exchange_bytes']} B / "
                f"{summary['exchange_seconds'] * ms:.3f} ms  "
                f"merge {summary['merge_seconds'] * ms:.3f} ms  "
                f"stall {summary['stall_seconds'] * ms:.3f} ms")
            for event in self.shard_events:
                lines.append(
                    f"{event.get('operator', '?'):16} "
                    f"shards={event.get('shards', '?')} "
                    f"devices={event.get('devices', '?')}  "
                    f"rows={event.get('rows', '?')}  "
                    f"exchange {event.get('exchange_bytes', 0)} B  "
                    f"stall "
                    f"{float(event.get('stall_seconds', 0.0)) * ms:.3f} ms")
            links = self.link_utilization()
            if links:
                lines.append("per-link utilization:")
                for label, row in links.items():
                    share = (row["busy_seconds"] / self.duration * 100.0
                             if self.duration else 0.0)
                    stall = row["stall_seconds"]
                    lines.append(
                        f"   {label:10} {row['bytes_total']:>12} B  busy "
                        f"{row['busy_seconds'] * ms:.3f} ms "
                        f"({share:.1f}% of query)"
                        + (f"  stall {stall * ms:.3f} ms" if stall else ""))
        if self.scheduler_events:
            lines.append("")
            lines.append("-- scheduler / fault events --")
            for event in self.scheduler_events:
                detail = " ".join(f"{k}={v}" for k, v in
                                  sorted(event.items()) if k != "name")
                lines.append(f"{event['name']:22} {detail}")
        return "\n".join(lines)

    def to_html(self) -> str:
        """A self-contained HTML timeline (no external assets)."""
        return _render_html(self)


def _node_extras(span: Span) -> str:
    """The attribute snippet shown next to an operator row."""
    attrs = span.attributes
    parts = []
    for key in ("table", "keys", "left_key", "limit", "query_id"):
        if key in attrs and attrs[key] != "":
            parts.append(f"{key}={attrs[key]}")
    if "actual_groups" in attrs:
        parts.append(f"groups={attrs['actual_groups']}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


def build_profile(
    source: Union[Tracer, Sequence[Span]],
    query_id: Optional[str] = None,
    decisions: Sequence = (),
) -> QueryProfile:
    """Build the profile of one query from recorded spans.

    ``source`` is a :class:`Tracer` or a span list.  With ``query_id``
    the *last* root span stamped with that query id is profiled;
    without, the last root span wins.  ``decisions`` are the monitor's
    :class:`~repro.core.monitoring.OffloadDecision` records for the
    query (they carry the device id the trace instants do not).
    """
    spans = source.spans if isinstance(source, Tracer) else list(source)
    root_span = _find_root(spans, query_id)
    trace = [s for s in spans if s.trace_id == root_span.trace_id]
    children: dict[Optional[int], list[Span]] = {}
    for span in trace:
        children.setdefault(span.parent_id, []).append(span)

    # Map every span to its nearest operator ancestor (or itself).
    owner: dict[int, Span] = {}

    def assign_owner(span: Span, current: Span) -> None:
        mine = span if _is_operator(span.name) else current
        owner[span.span_id] = mine
        for child in children.get(span.span_id, ()):
            assign_owner(child, mine)

    assign_owner(root_span, root_span)

    # Build the operator tree.
    nodes: dict[int, OperatorNode] = {}

    def build_node(span: Span, depth: int) -> OperatorNode:
        node = OperatorNode(span=span, depth=depth)
        nodes[span.span_id] = node
        for child in children.get(span.span_id, ()):
            if _is_operator(child.name):
                node.children.append(build_node(child, depth + 1))
        return node

    root = build_node(root_span, 0)

    # Attribute every span's self-time to one component of its owner.
    for span in trace:
        child_time = sum(c.duration for c in children.get(span.span_id, ()))
        self_time = span.duration - child_time
        if self_time <= 0.0:
            continue
        target = nodes[owner[span.span_id].span_id].self_components
        if span.name == "gpu.kernel":
            overhead = min(self_time,
                           float(span.attributes.get("launch_overhead", 0.0)))
            target["launch_overhead"] += overhead
            target["kernel"] += self_time - overhead
        elif span.name == "session.execute":
            gpu_phase = span.attributes.get("kind") == "gpu"
            target["kernel" if gpu_phase else "cpu"] += self_time
        else:
            target[_SPAN_COMPONENT.get(span.name, "cpu")] += self_time

    verdicts = _collect_verdicts(trace)
    choices = [
        KernelChoice(
            kernel=s.attributes.get("kernel", ""),
            reason=s.attributes.get("reason", ""),
            raced=bool(s.attributes.get("raced", False)),
            cancelled=tuple(c for c in
                            str(s.attributes.get("cancelled", "")).split(",")
                            if c),
            overflow_retries=int(s.attributes.get("overflow_retries", 0)),
        )
        for s in trace if s.name == "moderator.run"
    ]
    occupancy = [
        OccupancySlice(
            device_id=int(s.attributes.get("device_id", -1)),
            kernel=str(s.attributes.get("kernel", "")),
            start=s.start, end=s.end,
        )
        for s in trace if s.name == "gpu.launch"
    ]
    # Device axis: charge each launch window to its owning operator.
    for s in trace:
        if s.name != "gpu.launch":
            continue
        node = nodes[owner[s.span_id].span_id]
        device_id = int(s.attributes.get("device_id", -1))
        node.device_seconds[device_id] = (
            node.device_seconds.get(device_id, 0.0) + s.duration
        )
    scheduler_events = [
        {"name": s.name, **s.attributes}
        for s in trace
        if s.name in ("scheduler.quarantine", "scheduler.readmit",
                      "fault.injected", "fault.fallback")
        or (s.name == "fault.backoff")
    ]
    bytes_in = sum(int(s.attributes.get("bytes", 0)) for s in trace
                   if s.name == "gpu.transfer_in")
    bytes_out = sum(int(s.attributes.get("bytes", 0)) for s in trace
                    if s.name == "gpu.transfer_out")
    cache_events = [
        {"name": s.name, **s.attributes}
        for s in trace
        if s.name in ("cache.hit", "cache.insert", "cache.evict")
    ]
    pipeline_events = [
        {
            "kernel": str(s.attributes.get("kernel", "")),
            "device_id": int(s.attributes.get("device_id", -1)),
            "operator": owner[s.span_id].name,
            "chunks": int(s.attributes.get("chunks", 0)),
            "pipeline_depth": int(s.attributes.get("pipeline_depth", 0)),
            "chunk_bytes": int(s.attributes.get("chunk_bytes", 0)),
            "overlapped_seconds": float(
                s.attributes.get("overlapped_seconds", 0.0)),
            "serial_seconds": float(s.attributes.get("serial_seconds", 0.0)),
            "saved_seconds": float(
                s.attributes.get("overlap_saved_seconds", 0.0)),
        }
        for s in trace
        if s.name == "gpu.launch" and int(s.attributes.get("chunks", 1)) > 1
    ]
    partition_events = [
        {
            "operator": str(s.attributes.get("operator", "")),
            "partitions": int(s.attributes.get("partitions", 0)),
            "gpu_partitions": int(s.attributes.get("gpu_partitions", 0)),
            "cpu_partitions": int(s.attributes.get("cpu_partitions", 0)),
            "rows": int(s.attributes.get("rows", 0)),
            "groups": int(s.attributes.get("groups", 0)),
            "merge_seconds": float(s.attributes.get("merge_seconds", 0.0)),
            "working_set": int(s.attributes.get("working_set", 0)),
            "capacity": int(s.attributes.get("capacity", 0)),
        }
        for s in trace if s.name == "partition.exec"
    ]
    shard_events = [
        {
            "operator": str(s.attributes.get("operator", "")),
            "shards": int(s.attributes.get("shards", 0)),
            "gpu_shards": int(s.attributes.get("gpu_shards", 0)),
            "cpu_shards": int(s.attributes.get("cpu_shards", 0)),
            "rerouted": int(s.attributes.get("rerouted", 0)),
            "devices": list(s.attributes.get("devices", [])),
            "rows": int(s.attributes.get("rows", 0)),
            "exchange_bytes": int(s.attributes.get("exchange_bytes", 0)),
            "exchange_seconds": float(
                s.attributes.get("exchange_seconds", 0.0)),
            "merge_seconds": float(s.attributes.get("merge_seconds", 0.0)),
            "stall_seconds": float(s.attributes.get("stall_seconds", 0.0)),
            "nvlink": bool(s.attributes.get("nvlink", False)),
        }
        for s in trace if s.name == "shard.exec"
    ]
    transfer_legs = []
    stalls: dict[int, float] = {}
    for s in trace:
        if s.name == "gpu.transfer_stall":
            device = int(s.attributes.get("device_id", -1))
            stalls[device] = stalls.get(device, 0.0) + s.duration
        elif s.name in ("gpu.transfer_in", "gpu.transfer_out"):
            device = int(s.attributes.get("device_id", -1))
            transfer_legs.append((
                int(s.attributes.get("bytes", 0)), s.duration, device,
                stalls.pop(device, 0.0),
            ))
    fusion_events = [
        {
            "operator": owner[s.span_id].name,
            "stages": int(s.attributes.get("stages", 0)),
            "joins": int(s.attributes.get("joins", 0)),
            "matches": int(s.attributes.get("matches", 0)),
            "elided_bytes": int(s.attributes.get("elided_bytes", 0)),
            "groupby_kernel": str(s.attributes.get("groupby_kernel", "")),
            "device_id": int(s.attributes.get("device_id", -1)),
        }
        for s in trace if s.name == "fusion.chain"
    ]

    return QueryProfile(
        query_id=str(root_span.attributes.get("query_id", "")),
        trace_id=root_span.trace_id,
        degree=int(root_span.attributes.get("degree", 0)),
        gpu_enabled=bool(root_span.attributes.get("gpu_enabled", False)),
        root=root,
        verdicts=verdicts,
        kernel_choices=choices,
        occupancy=occupancy,
        scheduler_events=scheduler_events,
        decisions=list(decisions),
        bytes_in=bytes_in,
        bytes_out=bytes_out,
        cache_events=cache_events,
        pipeline_events=pipeline_events,
        fusion_events=fusion_events,
        partition_events=partition_events,
        shard_events=shard_events,
        transfer_legs=transfer_legs,
    )


def _find_root(spans: Sequence[Span], query_id: Optional[str]) -> Span:
    for span in reversed(spans):
        if span.parent_id is not None:
            continue
        if query_id is None or span.attributes.get("query_id") == query_id:
            return span
    raise ProfileError(
        f"no trace recorded for query_id={query_id!r}"
        if query_id else "no trace recorded"
    )


def _collect_verdicts(trace: Sequence[Span]) -> list[PathVerdict]:
    """Join each ``pathselect.*`` instant with its group-by's counts.

    The instant's parent is the operator span, whose attributes carry the
    optimizer estimate and (after execution) the actual group count plus
    the KMV refinement the hybrid executor stamped.
    """
    # Imported here: repro.gpu itself imports repro.obs (the tracer).
    from repro.gpu.partition import (PARTITION_GATE, PARTITIONED_PATH,
                                     SHARD_GATE, SHARDED_PATH)

    by_id = {s.span_id: s for s in trace}
    out: list[PathVerdict] = []
    for span in trace:
        if span.name == "pathselect.groupby":
            parent = by_id.get(span.parent_id or -1)
            attrs = parent.attributes if parent is not None else {}
            out.append(PathVerdict(
                operator="groupby",
                rows=int(span.attributes.get("rows", 0)),
                path=str(span.attributes.get("path", "")),
                reason=str(span.attributes.get("reason", "")),
                thresholds={
                    "t1": span.attributes.get("t1"),
                    "t2": span.attributes.get("t2"),
                    "t3": span.attributes.get("t3"),
                },
                optimizer_groups=attrs.get("estimated_groups"),
                kmv_groups=attrs.get("kmv_groups"),
                actual_groups=attrs.get("actual_groups"),
            ))
        elif span.name == "pathselect.fused":
            fused = bool(span.attributes.get("fuse", False))
            out.append(PathVerdict(
                operator="fused",
                rows=0,
                path="fused" if fused else "per-op",
                reason=str(span.attributes.get("reason", "")),
                thresholds={
                    "stages": span.attributes.get("stages"),
                },
            ))
        elif span.name == PARTITION_GATE:
            partitioned = bool(span.attributes.get("partition", False))
            out.append(PathVerdict(
                operator=f"{span.attributes.get('operator', '?')}-partition",
                rows=0,
                path=PARTITIONED_PATH if partitioned else "cpu-large",
                reason=str(span.attributes.get("reason", "")),
                thresholds={
                    "partitions": span.attributes.get("partitions"),
                    "working_set": span.attributes.get("working_set"),
                    "capacity": span.attributes.get("capacity"),
                },
            ))
        elif span.name == SHARD_GATE:
            sharded = bool(span.attributes.get("shard", False))
            out.append(PathVerdict(
                operator=f"{span.attributes.get('operator', '?')}-shard",
                rows=0,
                path=SHARDED_PATH if sharded else "whole-job",
                reason=str(span.attributes.get("reason", "")),
                thresholds={
                    "shards": span.attributes.get("shards"),
                    "devices": str(span.attributes.get("devices", [])),
                },
            ))
        elif span.name == "pathselect.sort":
            offload = bool(span.attributes.get("offload", False))
            out.append(PathVerdict(
                operator="sort",
                rows=int(span.attributes.get("rows", 0)),
                path="gpu" if offload else "cpu-small",
                reason=f"threshold={span.attributes.get('threshold')}",
                thresholds={
                    "threshold": span.attributes.get("threshold"),
                },
            ))
    return out


# ---------------------------------------------------------------------------
# HTML timeline
# ---------------------------------------------------------------------------

_HTML_COLORS = {
    "query": "#4878a8", "plan": "#90a8c0", "op": "#4878a8",
    "gpu.transfer_in": "#d09048", "gpu.transfer_out": "#d09048",
    "gpu.transfer_stall": "#c05850", "gpu.kernel": "#58a068",
    "gpu.launch": "#388048", "sort.job": "#7890b0",
    "fault.backoff": "#c05850",
}


def _span_color(name: str) -> str:
    if name in _HTML_COLORS:
        return _HTML_COLORS[name]
    if name.startswith("op."):
        return _HTML_COLORS["op"]
    return "#888888"


def _render_html(profile: QueryProfile) -> str:
    """Render the operator tree + device lanes as a static timeline.

    One absolutely-positioned ``div`` per span, scaled to the query
    duration; deterministic output so two runs diff clean.
    """
    total = profile.duration or 1e-12
    width = 1080.0
    row_h = 22

    def box(span: Span, row: int, label: str) -> str:
        left = (span.start - profile.root.span.start) / total * width
        w = max(2.0, span.duration / total * width)
        title = _html.escape(
            f"{span.name}  {span.duration * 1e3:.3f} ms  "
            + " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
        )
        text = _html.escape(label)
        return (
            f'<div class="s" style="left:{left:.2f}px;top:{row * row_h}px;'
            f'width:{w:.2f}px;background:{_span_color(span.name)}" '
            f'title="{title}">{text}</div>'
        )

    rows: list[str] = []
    labels: list[str] = []
    row = 0
    for node in profile.root.walk():
        labels.append(
            f'<div class="l" style="top:{row * row_h}px">'
            f'{_html.escape("  " * node.depth + node.name)}</div>')
        rows.append(box(node.span, row,
                        f"{node.name} {node.duration * 1e3:.2f}ms"))
        row += 1
    for device_id in sorted({s.device_id for s in profile.occupancy}):
        labels.append(f'<div class="l lane" style="top:{row * row_h}px">'
                      f'GPU {device_id}</div>')
        for s in profile.occupancy:
            if s.device_id == device_id:
                rows.append(box(
                    Span(name="gpu.launch", trace_id=profile.trace_id,
                         span_id=0, parent_id=None, start=s.start, end=s.end,
                         attributes={"kernel": s.kernel,
                                     "device_id": s.device_id}),
                    row, s.kernel))
        row += 1

    height = row * row_h + 40
    ticks = []
    for i in range(11):
        x = i * width / 10
        t = total * i / 10 * 1e3
        ticks.append(f'<div class="t" style="left:{x:.1f}px">'
                     f'{t:.2f}ms</div>')
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>repro profile — {_html.escape(profile.query_id)}</title>
<style>
body {{ font: 12px/1.4 monospace; margin: 16px; color: #222; }}
h1 {{ font-size: 15px; }}
.wrap {{ position: relative; margin-left: 240px; width: {width:.0f}px;
        height: {height}px; border-left: 1px solid #ccc; }}
.s {{ position: absolute; height: {row_h - 4}px; border-radius: 2px;
     color: #fff; overflow: hidden; white-space: nowrap;
     font-size: 10px; padding: 1px 3px; box-sizing: border-box; }}
.l {{ position: absolute; left: -240px; width: 232px; height: {row_h}px;
     overflow: hidden; white-space: pre; text-align: right; }}
.l.lane {{ font-weight: bold; }}
.t {{ position: absolute; bottom: 0; color: #999; font-size: 10px; }}
pre {{ background: #f6f6f6; padding: 8px; overflow-x: auto; }}
</style></head><body>
<h1>EXPLAIN ANALYZE — query={_html.escape(profile.query_id)}
 ({profile.duration * 1e3:.3f} simulated ms,
 gpu={'on' if profile.gpu_enabled else 'off'})</h1>
<div class="wrap">
{''.join(labels)}
{''.join(rows)}
{''.join(ticks)}
</div>
<pre>{_html.escape(profile.to_text())}</pre>
</body></html>
"""


def write_html(profile: QueryProfile, path: str) -> str:
    """Write :meth:`QueryProfile.to_html` to ``path``; returns the path."""
    with open(path, "w") as f:
        f.write(profile.to_html())
    return path
