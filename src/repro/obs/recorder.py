"""Always-on flight recorder: a bounded ring over engine events.

The observability stack built so far is *point-in-time*: spans and
metrics describe a run while the objects are alive, and the bench gate
reduces everything to one exit code.  The flight recorder keeps the last
``capacity`` interesting events — span completions, counter deltas,
fault injections, breaker/quarantine transitions, cache invalidations,
scheduler dispatch decisions — in a ring buffer so
that *after* something went wrong there is still a durable, ordered
record to diagnose from (``repro postmortem``).

Design constraints:

- **Zero simulated-time overhead.**  The recorder only observes; it
  never advances the :class:`~repro.sim.clock.SimClock` or charges cost
  events, so committed BENCH_* baselines are byte-identical with the
  recorder attached (it always is — the engine wires one in).
- **Bounded host memory.**  A :class:`collections.deque` ring of
  ``capacity`` events; once full, each append evicts the oldest event
  and bumps ``repro_recorder_dropped_events_total``.
- **Deterministic ordering.**  Every event carries the simulated
  timestamp it happened at plus a monotonically increasing sequence
  number; snapshots sort by ``(time, seq)``, which is stable even when
  events from two clock domains (the engine tracer and the post-hoc
  serving tracer) interleave.

Snapshots are taken automatically when a device breaker trips OPEN and
on explicit :meth:`FlightRecorder.snapshot` /
``engine.dump_flight_record()`` calls; each is an immutable
:class:`FlightSnapshot` that can render itself as JSONL or as a
self-contained HTML timeline.
"""

from __future__ import annotations

import html as _html
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.sim.clock import SimClock

#: Default ring capacity (events); ``SystemConfig.recorder_capacity``
#: overrides per engine.
DEFAULT_CAPACITY = 8192

#: Metric bumped once per event evicted from a full ring.
DROPPED_METRIC = "repro_recorder_dropped_events_total"

@dataclass(frozen=True)
class FlightEvent:
    """One recorded occurrence, ordered by ``(time, seq)``.

    ``kind`` is the transport the event arrived on (``span`` /
    ``instant`` / ``record`` / ``metric`` / ``breaker`` / ``dispatch``);
    ``name`` is the domain name (span name, counter name, ...).
    """

    time: float
    seq: int
    kind: str
    name: str
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form (one JSONL line of a snapshot)."""
        return {
            "time": self.time,
            "seq": self.seq,
            "kind": self.kind,
            "name": self.name,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FlightEvent":
        """Inverse of :meth:`to_dict` (snapshot file loading)."""
        return cls(
            time=float(data["time"]),
            seq=int(data["seq"]),
            kind=str(data["kind"]),
            name=str(data["name"]),
            attributes=dict(data.get("attributes", {})),
        )


# Lane order and colours for the HTML timeline rendering.
_KIND_LANES = ("instant", "record", "span", "dispatch", "breaker", "metric")
_KIND_COLORS = {
    "span": "#4878b0",
    "instant": "#b08030",
    "record": "#50889c",
    "metric": "#888888",
    "breaker": "#c05850",
    "dispatch": "#58a868",
}


@dataclass(frozen=True)
class FlightSnapshot:
    """An immutable, ordered copy of the ring at one moment."""

    trigger: str
    time: float
    dropped: int
    capacity: int
    events: tuple[FlightEvent, ...]

    def to_dict(self) -> dict:
        """Header + events as one JSON-ready dict."""
        return {
            "trigger": self.trigger,
            "time": self.time,
            "dropped": self.dropped,
            "capacity": self.capacity,
            "events": [e.to_dict() for e in self.events],
        }

    def to_jsonl(self) -> str:
        """Header line, then one line per event, oldest first."""
        lines = [json.dumps({
            "kind": "flight_header",
            "trigger": self.trigger,
            "time": self.time,
            "dropped": self.dropped,
            "capacity": self.capacity,
            "event_count": len(self.events),
        }, sort_keys=True)]
        lines.extend(
            json.dumps(e.to_dict(), sort_keys=True) for e in self.events
        )
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str) -> str:
        """Write the JSONL form to ``path``; returns ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
        return path

    @classmethod
    def from_jsonl(cls, text: str) -> "FlightSnapshot":
        """Parse a snapshot back from its JSONL form."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty flight-record snapshot")
        header = json.loads(lines[0])
        if header.get("kind") != "flight_header":
            raise ValueError(
                "not a flight-record snapshot (missing flight_header line)"
            )
        events = tuple(
            FlightEvent.from_dict(json.loads(ln)) for ln in lines[1:]
        )
        return cls(
            trigger=str(header.get("trigger", "unknown")),
            time=float(header.get("time", 0.0)),
            dropped=int(header.get("dropped", 0)),
            capacity=int(header.get("capacity", 0)),
            events=events,
        )

    @classmethod
    def load(cls, path: str) -> "FlightSnapshot":
        """Read a snapshot previously written with :meth:`write_jsonl`."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_jsonl(fh.read())

    # ------------------------------------------------------------------
    # HTML timeline
    # ------------------------------------------------------------------

    def to_html(self) -> str:
        """Self-contained HTML timeline: one lane per event kind."""
        events = self.events
        t0 = min((e.time for e in events), default=0.0)
        t1 = max((e.time for e in events), default=0.0)
        span = max(t1 - t0, 1e-9)
        width = 1100
        lanes = [k for k in _KIND_LANES
                 if any(e.kind == k for e in events)]
        rows = []
        for lane in lanes:
            marks = []
            for e in events:
                if e.kind != lane:
                    continue
                x = 60 + (e.time - t0) / span * (width - 80)
                color = _KIND_COLORS.get(e.kind, "#666")
                title = _html.escape(
                    f"{e.name} @ {(e.time - t0) * 1e3:.3f}ms "
                    f"seq={e.seq} {e.attributes}"
                )
                marks.append(
                    f'<div class="ev" title="{title}" style="left:'
                    f'{x:.1f}px;background:{color}"></div>'
                )
            rows.append(
                f'<div class="lane"><span class="label">{lane}</span>'
                f"{''.join(marks)}</div>"
            )
        body = "\n".join(rows)
        return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>flight record — {_html.escape(self.trigger)}</title>
<style>
body {{ font: 13px/1.4 monospace; margin: 20px; color: #222; }}
.lane {{ position: relative; height: 26px;
         border-bottom: 1px solid #eee; }}
.label {{ position: absolute; left: 0; top: 4px; color: #666; }}
.ev {{ position: absolute; top: 5px; width: 3px; height: 16px;
       border-radius: 1px; }}
.meta {{ color: #666; margin-bottom: 12px; }}
</style></head><body>
<h2>flight record</h2>
<p class="meta">trigger={_html.escape(self.trigger)}
 time={self.time:.6f}s events={len(self.events)}
 dropped={self.dropped} capacity={self.capacity}
 window={(t1 - t0) * 1e3:.3f}ms</p>
<div style="position:relative;width:{width}px">
{body}
</div>
</body></html>
"""

    def write_html(self, path: str) -> str:
        """Write the HTML timeline to ``path``; returns ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_html())
        return path


class FlightRecorder:
    """Bounded, always-on event ring over one engine's telemetry.

    Attach points (all optional, all additive):

    - :meth:`attach_tracer` subscribes to span completions, instants and
      post-hoc records — this is how fault injections
      (``fault.injected``), fallbacks, cache invalidations
      (``cache.invalidate``) and quarantine edges arrive;
    - :meth:`attach_registry` subscribes to counter deltas;
    - :meth:`attach_scheduler` registers itself for dispatch decisions
      and wires every device breaker's transition listener; a
      breaker going OPEN is the one automatic snapshot trigger.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock: Optional[SimClock] = None,
        metrics=None,
        dump_dir: Optional[str] = None,
        max_snapshots: int = 8,
    ) -> None:
        if capacity < 1:
            raise ValueError("recorder capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock or SimClock()
        self.metrics = metrics
        #: When set, automatic snapshots are also written to this
        #: directory as ``flight_<n>_<trigger>.{jsonl,html}``.
        self.dump_dir = dump_dir
        #: Built events, then the ``(time, seq, kind, name, attributes)``
        #: records fed since the last read: an evicted record never
        #: costs a :class:`FlightEvent`.
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0
        #: Most recent automatic/manual snapshots (bounded).
        self.snapshots: deque[FlightSnapshot] = deque(maxlen=max_snapshots)
        self._snapshot_count = 0
        #: The eviction counter's series: a full ring bumps it per event.
        self._dropped_series = None
        if self.metrics is not None:
            # Register eagerly so the series exports even while zero.
            self._dropped_series = self.metrics.counter(
                DROPPED_METRIC,
                "Events evicted from the flight-recorder ring",
            ).labels()

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Subscribe to ``tracer``'s span/instant/record completions."""
        tracer.listeners.append(self._on_span)

    def attach_registry(self, registry) -> None:
        """Subscribe to counter increments on ``registry``."""
        registry.listeners.append(self._on_metric)

    def attach_scheduler(self, scheduler) -> None:
        """Receive dispatch decisions and breaker transitions."""
        scheduler.recorder = self
        for device_id, breaker in sorted(scheduler.breakers.items()):
            breaker.listeners.append(
                lambda old, new, d=device_id:
                self._on_breaker(d, old, new)
            )

    # ------------------------------------------------------------------
    # Event feeds
    # ------------------------------------------------------------------

    def _on_span(self, flavor: str, span) -> None:
        """Tracer listener: every finished span/instant/record."""
        time = span.start if flavor == "instant" else span.end
        attrs = dict(span.attributes)
        attrs["duration"] = span.duration
        self._append(flavor, span.name, time, attrs)

    def _on_metric(self, name: str, labels: dict, amount: float) -> None:
        """Registry listener: one counter increment."""
        if name == DROPPED_METRIC:
            return                       # our own accounting: no feedback
        attrs = dict(labels)
        attrs["amount"] = amount
        self._append("metric", name, self.clock.now, attrs)

    def _on_breaker(self, device_id: int, old, new) -> None:
        """Breaker listener: one state-machine edge."""
        self._append("breaker", "breaker.transition", self.clock.now, {
            "device_id": device_id,
            "from": old.value,
            "to": new.value,
        })
        if new.value == "open":
            self._auto_snapshot("breaker.trip")

    def record_dispatch(self, granted: bool, device_id, memory_bytes: int,
                        tag: str = "", outstanding: int = 0) -> None:
        """Scheduler feed: one lease grant or rejection."""
        self._append("dispatch", "scheduler.dispatch", self.clock.now, {
            "granted": granted,
            "device_id": device_id,
            "memory_bytes": memory_bytes,
            "tag": tag,
            "outstanding": outstanding,
        })

    def _append(self, kind: str, name: str, time: float,
                attributes: dict) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
            series = self._dropped_series
            if series is not None:
                # Written, not announced: the registry's listeners are
                # recorders, and ``_on_metric`` ignores this counter.
                series.set(series.value + 1.0)
        # The fields of a FlightEvent; built when (and if) the ring is read.
        self._ring.append((time, self._seq, kind, name, attributes))
        self._seq += 1

    def feed(self, records, fed: int) -> None:
        """Take ``fed`` replayed records at once, as single feeds would.

        ``records`` are the last ``min(fed, capacity)`` of them, oldest
        first: :meth:`Tracer.record` spans and counter deltas ``(name,
        labels, amount)``.  The others only move ``seq``, ``dropped`` and
        the (integral) eviction counter, as ``None`` the kept ones evict.
        """
        skipped = fed - len(records)
        drops = max(0, len(self._ring) + skipped - self.capacity)
        self.dropped += drops
        if drops and self._dropped_series is not None:
            self._dropped_series.set(self._dropped_series.value + drops)
        self._ring.extend([None] * min(skipped, self.capacity))
        self._seq += skipped
        for record in records:
            if type(record) is tuple:
                self._on_metric(*record)
            else:
                self._on_span("record", record)

    # ------------------------------------------------------------------
    # Views and snapshots
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> list[FlightEvent]:
        """Current ring contents, sorted by ``(time, seq)``."""
        ring = self._ring
        fed = []  # records fed since the last read: a suffix of the ring
        while ring and type(ring[-1]) is tuple:
            fed.append(ring.pop())
        ring.extend(FlightEvent(*record) for record in reversed(fed))
        return sorted(ring, key=lambda e: (e.time, e.seq))

    def snapshot(self, trigger: str = "manual") -> FlightSnapshot:
        """Freeze the ring into an ordered snapshot and retain it."""
        snap = FlightSnapshot(
            trigger=trigger,
            time=self.clock.now,
            dropped=self.dropped,
            capacity=self.capacity,
            events=tuple(self.events()),
        )
        self.snapshots.append(snap)
        self._snapshot_count += 1
        return snap

    def _auto_snapshot(self, trigger: str) -> None:
        """Snapshot (and optionally dump) on a breaker trip."""
        snap = self.snapshot(trigger=trigger)
        if self.dump_dir is not None:
            stem = (
                f"flight_{self._snapshot_count:03d}_"
                f"{trigger.replace('.', '_')}"
            )
            snap.write_jsonl(f"{self.dump_dir}/{stem}.jsonl")
            snap.write_html(f"{self.dump_dir}/{stem}.html")

    def clear(self) -> None:
        """Empty the ring (snapshots already taken are kept)."""
        self._ring.clear()
