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

The event sections — column cache, stream pipeline, fusion, partitions,
shards, scheduler / fault events — are the rows of one table,
:data:`SECTIONS`, and the path-selection gates the rows of another,
:data:`VERDICTS`: a row says which spans a section selects, what it
keeps of them, how it sums them and how EXPLAIN prints them, so adding a
section is adding a row.

Renderings: ``to_text()`` (EXPLAIN ANALYZE-style report), ``to_dict()``
(JSON; :mod:`repro.obs.diff` reads its operator tree), and ``to_html()``
(a self-contained timeline, no external assets).

Not to be confused with :class:`repro.timing.QueryProfile`, the flat cost
event list the engine returns; this class is the *attributed* view built
on top of the trace that the cost events drove.
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.gpu.partition import (PARTITION_GATE, PARTITIONED_PATH,
                                 SHARD_GATE, SHARDED_PATH)
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
        return {**asdict(self), "kmv_relative_error": self.kmv_relative_error}


@dataclass(frozen=True)
class KernelChoice:
    """One moderator outcome: the kernel that ran, and what it beat."""

    kernel: str
    reason: str
    raced: bool
    cancelled: tuple[str, ...]
    overflow_retries: int

    def to_dict(self) -> dict:
        return {**asdict(self), "cancelled": list(self.cancelled)}


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
        return asdict(self)


@dataclass(frozen=True)
class DecisionRecord:
    """One offload decision, as its ``offload.decision`` instant
    records it (``kernel`` is ``None`` when none was chosen)."""

    operator: str
    path: str
    reason: str
    kernel: Optional[str]
    device_id: int

    @classmethod
    def of(cls, span: Span) -> "DecisionRecord":
        """The decision one ``offload.decision`` instant records."""
        attributes = {**span.attributes,
                      "kernel": span.attributes.get("kernel") or None}
        return cls(**{f.name: attributes[f.name] for f in fields(cls)})


# ---------------------------------------------------------------------------
# The section and verdict tables
# ---------------------------------------------------------------------------

#: The device launch span: occupancy, the device axis and the stream
#: pipeline section all read it.
LAUNCH = "gpu.launch"

#: The offload-decision instant :meth:`Dispatcher.record
#: <repro.core.dispatch.Dispatcher.record>` writes.
DECISION = "offload.decision"

#: Field source meaning "the name of the operator row owning the span".
OWNER = "<owner>"


def _typed(attributes: dict, key: str, default):
    """``attributes[key]`` as ``type(default)`` (as is when ``default`` is
    None), ``default`` when absent."""
    value = attributes.get(key, default)
    return value if default is None else type(default)(value)


class _Fill(dict):
    """What a section or verdict template reads: the event (or summary,
    or span attributes) itself, plus derived keys — ``{x_ms}`` is
    ``x_seconds`` in milliseconds, ``{a-b}`` a difference, ``{kind}`` the
    span name after its dot, ``{note}`` ``"  (reason)"`` when there is a
    reason, ``{rest}`` every attribute but the name as ``k=v``.  Any
    other missing key reads ``?``."""

    def __missing__(self, key: str):
        if key.endswith("_ms"):
            return float(self.get(key[:-3] + "_seconds", 0.0)) * 1e3
        if "-" in key:
            left, right = key.split("-")
            return self[left] - self[right]
        if key == "kind":
            return self["name"].split(".", 1)[1]
        if key == "note":
            return f"  ({self['reason']})" if self.get("reason") else ""
        if key == "rest":
            return " ".join(f"{k}={v}" for k, v in sorted(self.items())
                            if k != "name")
        return "?"


@dataclass(frozen=True)
class Section:
    """One event section of the profile: a :data:`SECTIONS` row is
    everything that builds, sums, serialises and prints it."""

    key: str                         # the to_dict key
    spans: tuple[str, ...]           # the span names it selects
    #: ``(field, default[, source])`` projected from each span (see
    #: :func:`_typed`; ``source`` defaults to ``field``, :data:`OWNER`
    #: reads the owning operator's name).  Empty keeps the span's name
    #: and every attribute as they are.
    fields: tuple[tuple, ...] = ()
    where: Optional[Callable[[dict], bool]] = None   # on span attributes
    #: ``(key, field, kind)`` entries: ``field`` None counts the events,
    #: otherwise sums that field (a float when it ends ``_seconds``);
    #: ``kind`` keeps only events whose span name ends ``.kind``.  A
    #: section without a summary serialises as a bare event list.
    summary: tuple[tuple, ...] = ()
    heading: str = ""                # EXPLAIN's ``-- heading --``
    summary_line: str = ""           # template over the summary
    event_line: str = ""             # template over one event

    def project(self, span: Span, owners: dict) -> dict:
        """One event of this section from ``span``."""
        if not self.fields:
            return {"name": span.name, **span.attributes}
        out = {}
        for name, default, *source in self.fields:
            source = source[0] if source else name
            out[name] = (owners[span.span_id].name if source == OWNER
                         else _typed(span.attributes, source, default))
        return out

    def totals(self, events: list[dict]) -> dict:
        """The summary of ``events``: counts and sums."""
        out = {}
        for key, name, kind in self.summary:
            chosen = [e for e in events if kind is None
                      or e.get("name", "").endswith("." + kind)]
            if name is None:
                out[key] = len(chosen)
                continue
            total = 0.0 if name.endswith("_seconds") else 0
            for event in chosen:
                total += type(total)(event.get(name, total))
            out[key] = total
        return out

    def dump(self, events: list[dict]):
        """The section's ``to_dict`` value."""
        if not self.summary:
            return list(events)
        return {"summary": self.totals(events), "events": list(events)}


def _totals(count: str, *sums: str) -> tuple[tuple, ...]:
    """A summary counting the events as ``count`` and summing ``sums``
    under their own names."""
    return ((count, None, None),) + tuple((f, f, None) for f in sums)


SECTIONS: tuple[Section, ...] = (
    # ``hit_bytes`` is exactly the host->device traffic the cache elided
    # for this query: it plus ``bytes_in`` is what the query would have
    # shipped with the cache disabled.
    Section(
        "cache", ("cache.hit", "cache.insert", "cache.evict"),
        summary=(("hits", None, "hit"), ("hit_bytes", "bytes", "hit"),
                 ("inserts", None, "insert"),
                 ("inserted_bytes", "bytes", "insert"),
                 ("evictions", None, "evict"),
                 ("evicted_bytes", "bytes", "evict")),
        heading="column cache",
        summary_line=("hits={hits} (elided {hit_bytes} B in)  "
                      "inserts={inserts} ({inserted_bytes} B)  "
                      "evictions={evictions} ({evicted_bytes} B)"),
        event_line=("{kind:8} GPU {device_id}  {table}.{column}  "
                    "{bytes} B{note}")),
    # ``saved_seconds`` is what the transfer/compute overlap shaved off:
    # serial minus overlapped makespan per pipelined launch.  Kept out of
    # the component attribution on purpose — the components describe the
    # time the query *did* spend, and they still sum to the total.
    Section(
        "stream_pipeline", (LAUNCH,),
        fields=(("kernel", ""), ("device_id", -1), ("operator", "", OWNER),
                ("chunks", 0), ("pipeline_depth", 0), ("chunk_bytes", 0),
                ("overlapped_seconds", 0.0), ("serial_seconds", 0.0),
                ("saved_seconds", 0.0, "overlap_saved_seconds")),
        where=lambda attributes: int(attributes.get("chunks", 1)) > 1,
        summary=_totals("launches", "chunks", "saved_seconds",
                        "serial_seconds", "overlapped_seconds"),
        heading="stream pipeline",
        summary_line=("pipelined launches={launches} (chunks={chunks})  "
                      "overlapped {overlapped_ms:.3f} ms vs serial "
                      "{serial_ms:.3f} ms  saved {saved_ms:.3f} ms"),
        event_line=("{kernel:24} GPU {device_id}  depth={pipeline_depth} "
                    "chunks={chunks} {chunk_bytes} B/chunk  "
                    "saved {saved_ms:.3f} ms")),
    # Fused chains (``docs/fusion.md``): ``elided_bytes`` is the PCIe
    # traffic the fused launches did not ship against the same chains
    # run per-operator on the GPU (actual counts, not planner estimates);
    # ``stages - chains`` is the number of kernel launches fusion removed.
    Section(
        "fusion", ("fusion.chain",),
        fields=(("operator", "", OWNER), ("stages", 0), ("joins", 0),
                ("matches", 0), ("elided_bytes", 0), ("groupby_kernel", ""),
                ("device_id", -1)),
        summary=_totals("chains", "stages", "joins", "elided_bytes"),
        heading="fusion",
        summary_line=("fused chains={chains} (stages={stages}, "
                      "joins={joins})  launches removed={stages-chains}  "
                      "elided {elided_bytes} B of PCIe traffic"),
        event_line=("{operator:16} GPU {device_id}  stages={stages} "
                    "joins={joins} matches={matches}  "
                    "groupby={groupby_kernel}  elided {elided_bytes} B")),
    # Out-of-core operators (``docs/out_of_core.md``): ``partitions`` is
    # how many device-sized pieces they split into, ``gpu_partitions`` of
    # which ran on a card and ``cpu_partitions`` degraded to the host on
    # lease failure or a fault; ``merge_seconds`` is the host-side merge.
    Section(
        "partitions", ("partition.exec",),
        fields=(("operator", ""), ("partitions", 0), ("gpu_partitions", 0),
                ("cpu_partitions", 0), ("rows", 0), ("groups", 0),
                ("merge_seconds", 0.0), ("working_set", 0), ("capacity", 0)),
        summary=_totals("operators", "partitions", "gpu_partitions",
                        "cpu_partitions", "merge_seconds"),
        heading="partitions (out-of-core)",
        summary_line=("partitioned operators={operators}  "
                      "partitions={partitions} (gpu={gpu_partitions}, "
                      "cpu={cpu_partitions})  merge {merge_ms:.3f} ms"),
        event_line=("{operator:16} partitions={partitions} "
                    "(gpu={gpu_partitions}, cpu={cpu_partitions})  "
                    "rows={rows}  working set {working_set} B vs device "
                    "{capacity} B  merge {merge_ms:.3f} ms")),
    # Sharded operators (``docs/scale_out.md``): ``rerouted`` shards
    # landed on a non-home device after loss or quarantine;
    # ``exchange_*`` is the cross-shard repartition traffic and
    # ``stall_seconds`` the switch-contention penalty the topology charged.
    Section(
        "shards", ("shard.exec",),
        fields=(("operator", ""), ("shards", 0), ("gpu_shards", 0),
                ("cpu_shards", 0), ("rerouted", 0), ("devices", []),
                ("rows", 0), ("exchange_bytes", 0),
                ("exchange_seconds", 0.0), ("merge_seconds", 0.0),
                ("stall_seconds", 0.0), ("nvlink", False)),
        summary=_totals("operators", "shards", "gpu_shards", "cpu_shards",
                        "rerouted", "exchange_bytes", "exchange_seconds",
                        "merge_seconds", "stall_seconds"),
        heading="shards",
        summary_line=("sharded operators={operators}  shards={shards} "
                      "(gpu={gpu_shards}, cpu={cpu_shards}, "
                      "rerouted={rerouted})  exchange {exchange_bytes} B / "
                      "{exchange_ms:.3f} ms  merge {merge_ms:.3f} ms  "
                      "stall {stall_ms:.3f} ms"),
        event_line=("{operator:16} shards={shards} devices={devices}  "
                    "rows={rows}  exchange {exchange_bytes} B  "
                    "stall {stall_ms:.3f} ms")),
    Section(
        "scheduler_events",
        ("scheduler.quarantine", "scheduler.readmit", "fault.injected",
         "fault.fallback", "fault.backoff"),
        heading="scheduler / fault events",
        event_line="{name:22} {rest}"),
)

_SELECTS = {name: section for section in SECTIONS for name in section.spans}
_BY_KEY = {section.key: section for section in SECTIONS}

#: Exchange transports of the per-link table, by a shard event's
#: ``nvlink`` flag (every other row is a ``pcie<device>`` link).
_EXCHANGE_LINKS = {True: "nvlink", False: "pcie-host"}


def _link_row(links: dict, label: str) -> dict:
    """Row ``label`` of a per-link table, started at zero."""
    return links.setdefault(
        label, {"bytes_total": 0, "busy_seconds": 0.0, "stall_seconds": 0.0})


@dataclass(frozen=True)
class GateSpan:
    """How one path-selection instant becomes a :class:`PathVerdict`.

    ``operator``, ``taken`` / ``declined`` and ``reason`` are templates
    over the span's attributes (see :class:`_Fill`); the path is
    ``taken`` when the span's ``flag`` attribute is set, or always when
    the row names no flag.
    """

    span: str
    operator: str
    flag: str = ""
    taken: str = "{path}"
    declined: str = ""
    thresholds: tuple[tuple, ...] = ()     # ``(key, default)``: _typed
    reason: str = "{reason}"
    #: Join the optimizer / KMV / actual group counts the parent
    #: operator span carries (after execution).
    groups: bool = False


VERDICTS: tuple[GateSpan, ...] = (
    GateSpan("pathselect.groupby", "groupby",
             thresholds=(("t1", None), ("t2", None), ("t3", None)),
             groups=True),
    GateSpan("pathselect.fused", "fused", "fuse", "fused", "per-op",
             thresholds=(("stages", None),)),
    GateSpan(PARTITION_GATE, "{operator}-partition", "partition",
             PARTITIONED_PATH, "cpu-large",
             thresholds=(("partitions", None), ("working_set", None),
                         ("capacity", None))),
    GateSpan(SHARD_GATE, "{operator}-shard", "shard", SHARDED_PATH,
             "whole-job", thresholds=(("shards", None), ("devices", "[]"))),
    GateSpan("pathselect.sort", "sort", "offload", "gpu", "cpu-small",
             thresholds=(("threshold", None),),
             reason="threshold={threshold}"),
)

_GATES = {gate.span: gate for gate in VERDICTS}


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
    decisions: list[DecisionRecord]
    bytes_in: int
    bytes_out: int
    #: Section key -> that :data:`SECTIONS` row's events, in trace order.
    events: dict[str, list[dict]] = field(
        default_factory=lambda: {s.key: [] for s in SECTIONS})
    #: ``pcie<device>`` -> bytes / busy / stall totals of the query's
    #: transfer spans; :meth:`link_utilization` adds the exchange rows.
    pcie_links: dict[str, dict] = field(default_factory=dict)

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

    def summary(self, name: str) -> dict:
        """Counts and sums over section ``name``'s events (its
        :data:`SECTIONS` row says which)."""
        return _BY_KEY[name].totals(self.events[name])

    def link_utilization(self) -> dict[str, dict]:
        """Per-link interconnect totals for this query.

        ``pcie{d}`` rows aggregate the query's transfer spans by device;
        the exchange transport (``nvlink`` or the host bounce) comes
        from the shard events.  Busy seconds over the query duration is
        the utilization figure the ``-- shards --`` section prints.
        """
        links = {label: dict(row) for label, row in self.pcie_links.items()}
        for event in self.events["shards"]:
            nbytes = int(event.get("exchange_bytes", 0))
            if nbytes <= 0:
                continue
            r = _link_row(links, _EXCHANGE_LINKS[bool(event.get("nvlink"))])
            r["bytes_total"] += nbytes
            r["busy_seconds"] += float(event.get("exchange_seconds", 0.0))
        return {label: links[label] for label in sorted(links)}

    def overlap_saved_by_operator(self) -> dict[str, float]:
        """Per-operator overlap savings (the EXPLAIN ANALYZE attribution)."""
        out: dict[str, float] = {}
        for event in self.events["stream_pipeline"]:
            name = str(event.get("operator", "?"))
            out[name] = out.get(name, 0.0) + float(
                event.get("saved_seconds", 0.0))
        return out

    # ------------------------------------------------------------------
    # Renderings
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable dump of the whole profile."""
        out = {
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
            "offload_decisions": [
                {f.name: getattr(d, f.name) for f in fields(DecisionRecord)}
                for d in self.decisions
            ],
        }
        for section in SECTIONS:
            out[section.key] = section.dump(self.events[section.key])
        out["stream_pipeline"]["saved_by_operator"] = (
            self.overlap_saved_by_operator())
        out["shards"]["links"] = self.link_utilization()
        return out

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
            # Only a verdict joined with its operator's counts has any.
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
        for section in SECTIONS:
            events = self.events[section.key]
            if not events:
                continue
            lines += ["", f"-- {section.heading} --"]
            if section.summary_line:
                lines.append(section.summary_line.format_map(
                    _Fill(self.summary(section.key))))
            lines += [section.event_line.format_map(_Fill(event))
                      for event in events]
            if section.key == "stream_pipeline":
                saved_by_op = self.overlap_saved_by_operator()
                lines.append(
                    "overlap saved by operator: "
                    + "  ".join(f"{name}={secs * ms:.3f}ms"
                                for name, secs in sorted(
                                    saved_by_op.items())))
            elif section.key == "shards":
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
) -> QueryProfile:
    """Build the profile of one query from recorded spans.

    ``source`` is a :class:`Tracer` or a span list.  With ``query_id``
    the *last* root span stamped with that query id is profiled;
    without, the last root span wins.
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
    # Occupancy, and the device axis: each launch window is charged to
    # its owning operator.
    occupancy = []
    for s in trace:
        if s.name != LAUNCH:
            continue
        device_id = int(s.attributes.get("device_id", -1))
        occupancy.append(OccupancySlice(
            device_id=device_id, kernel=str(s.attributes.get("kernel", "")),
            start=s.start, end=s.end))
        node = nodes[owner[s.span_id].span_id]
        node.device_seconds[device_id] = (
            node.device_seconds.get(device_id, 0.0) + s.duration
        )
    events: dict[str, list[dict]] = {s.key: [] for s in SECTIONS}
    for span in trace:
        section = _SELECTS.get(span.name)
        if section is not None and (section.where is None
                                    or section.where(span.attributes)):
            events[section.key].append(section.project(span, owner))
    # PCIe totals, per direction and per device link; a transfer's row
    # also takes the stall that preceded it on its device.
    moved = {"gpu.transfer_in": 0, "gpu.transfer_out": 0}
    pcie_links: dict[str, dict] = {}
    stalls: dict[int, float] = {}
    for s in trace:
        if s.name == "gpu.transfer_stall":
            device = int(s.attributes.get("device_id", -1))
            stalls[device] = stalls.get(device, 0.0) + s.duration
        elif s.name in moved:
            device = int(s.attributes.get("device_id", -1))
            nbytes = int(s.attributes.get("bytes", 0))
            moved[s.name] += nbytes
            row = _link_row(pcie_links, f"pcie{device}")
            row["bytes_total"] += nbytes
            row["busy_seconds"] += s.duration
            row["stall_seconds"] += stalls.pop(device, 0.0)

    return QueryProfile(
        query_id=str(root_span.attributes.get("query_id", "")),
        trace_id=root_span.trace_id,
        degree=int(root_span.attributes.get("degree", 0)),
        gpu_enabled=bool(root_span.attributes.get("gpu_enabled", False)),
        root=root,
        verdicts=_collect_verdicts(trace),
        kernel_choices=choices,
        occupancy=occupancy,
        decisions=[DecisionRecord.of(s) for s in trace if s.name == DECISION],
        bytes_in=moved["gpu.transfer_in"],
        bytes_out=moved["gpu.transfer_out"],
        events=events,
        pcie_links=pcie_links,
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
    """One :class:`PathVerdict` per gate instant of :data:`VERDICTS`.

    A group-by verdict joins its parent operator span's attributes, which
    carry the optimizer estimate and (after execution) the actual group
    count plus the KMV refinement the hybrid executor stamped.
    """
    by_id = {s.span_id: s for s in trace}
    out: list[PathVerdict] = []
    for span in trace:
        gate = _GATES.get(span.name)
        if gate is None:
            continue
        attrs = _Fill(span.attributes)
        parent = by_id.get(span.parent_id or -1) if gate.groups else None
        counts = parent.attributes if parent is not None else {}
        taken = not gate.flag or bool(attrs.get(gate.flag, False))
        out.append(PathVerdict(
            operator=gate.operator.format_map(attrs),
            rows=int(attrs.get("rows", 0)),
            path=(gate.taken if taken else gate.declined).format_map(attrs),
            reason=gate.reason.format_map(attrs),
            thresholds={key: _typed(attrs, key, default)
                        for key, default in gate.thresholds},
            optimizer_groups=counts.get("estimated_groups"),
            kmv_groups=counts.get("kmv_groups"),
            actual_groups=counts.get("actual_groups"),
        ))
    return out


# ---------------------------------------------------------------------------
# HTML timeline
# ---------------------------------------------------------------------------

_HTML_COLORS = {
    "query": "#4878a8", "plan": "#90a8c0", "op": "#4878a8",
    "gpu.transfer_in": "#d09048", "gpu.transfer_out": "#d09048",
    "gpu.transfer_stall": "#c05850", "gpu.kernel": "#58a068",
    LAUNCH: "#388048", "sort.job": "#7890b0",
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
                    Span(name=LAUNCH, trace_id=profile.trace_id,
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
