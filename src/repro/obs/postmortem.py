"""Postmortem: correlate a flight-record snapshot into a causal story.

A raw flight record (``repro.obs.recorder``) is an ordered event soup:
spans, counter bumps, dispatch decisions, breaker edges.  This module
reduces one snapshot to the *incident narrative* an operator actually
wants after a chaos run or a breaker trip::

    fault.injected (device 0, site=launch)
      -> fault.fallback (groupby -> CPU)
      -> breaker OPEN / scheduler.quarantine (device 0)
      -> cache.invalidate (device 0, 2 segments)
      -> queue depth spike (rejections climb)

The report is built from event-name heuristics only — no engine state is
needed, so ``repro postmortem <snapshot.jsonl>`` works on a file from a
process that is long gone.
"""

from __future__ import annotations

import html as _html
from dataclasses import dataclass, field

from repro.obs.recorder import FlightEvent, FlightSnapshot

#: Event names that anchor the causal chain, in cause->effect order.
#: Each maps to the chain stage it evidences.
_CHAIN_STAGES = (
    ("fault", ("fault.injected",)),
    ("fallback", ("fault.fallback",)),
    ("quarantine", ("scheduler.quarantine", "breaker.transition")),
    ("cache_invalidation", ("cache.invalidate",)),
    ("queue_pressure", ("scheduler.dispatch",)),
)


@dataclass(frozen=True)
class TimelineEntry:
    """One line of the causal timeline: an event plus its stage label."""

    stage: str
    event: FlightEvent

    def describe(self) -> str:
        """One human-readable line (time-relative rendering is the
        report's job; this is the event half)."""
        e = self.event
        a = e.attributes
        if e.name == "fault.injected":
            return (f"fault injected: site={a.get('site', '?')} "
                    f"device={a.get('device_id', '?')}")
        if e.name == "fault.fallback":
            why = a.get("error", a.get("reason", ""))
            base = f"CPU fallback: {a.get('operator', '?')}"
            return f"{base} ({why})" if why else base
        if e.name == "breaker.transition":
            return (f"breaker {a.get('from', '?')} -> {a.get('to', '?')} "
                    f"on device {a.get('device_id', '?')}")
        if e.name == "scheduler.quarantine":
            return (f"device {a.get('device_id', '?')} quarantined "
                    f"(alive={a.get('alive', '?')})")
        if e.name == "cache.invalidate":
            return (f"cache invalidated on device {a.get('device_id', '?')}: "
                    f"{a.get('entries', '?')} segments, "
                    f"{a.get('bytes', '?')} B ({a.get('reason', '?')})")
        if e.name == "scheduler.dispatch":
            return (f"dispatch rejected: {a.get('memory_bytes', '?')} B "
                    f"request had no admissible device")
        detail = " ".join(f"{k}={v}" for k, v in sorted(a.items())
                          if k != "duration")
        return f"{e.name} {detail}".strip()


@dataclass
class PostmortemReport:
    """The correlated view of one flight-record snapshot."""

    snapshot: FlightSnapshot
    timeline: list[TimelineEntry] = field(default_factory=list)
    stages: dict[str, int] = field(default_factory=dict)

    @property
    def chain(self) -> list[str]:
        """The causal stages evidenced, in cause->effect order."""
        return [stage for stage, _names in _CHAIN_STAGES
                if self.stages.get(stage)]

    def to_dict(self) -> dict:
        return {
            "trigger": self.snapshot.trigger,
            "time": self.snapshot.time,
            "dropped": self.snapshot.dropped,
            "chain": self.chain,
            "stages": dict(self.stages),
            "timeline": [
                {
                    "stage": entry.stage,
                    "time": entry.event.time,
                    "seq": entry.event.seq,
                    "name": entry.event.name,
                    "description": entry.describe(),
                }
                for entry in self.timeline
            ],
        }

    def to_text(self) -> str:
        """The operator-facing incident report."""
        snap = self.snapshot
        lines = [
            f"POSTMORTEM  trigger={snap.trigger}  "
            f"snapshot_time={snap.time:.6f}s  "
            f"events={len(snap.events)}  dropped={snap.dropped}",
        ]
        chain = self.chain
        if chain:
            lines.append("causal chain: " + " -> ".join(chain))
        else:
            lines.append("causal chain: (no incident markers in window)")
        lines.append("")
        lines.append("timeline (simulated time):")
        if not self.timeline:
            lines.append("  (no correlatable events)")
        t0 = self.timeline[0].event.time if self.timeline else 0.0
        for entry in self.timeline:
            dt = (entry.event.time - t0) * 1e3
            lines.append(
                f"  [{dt:+12.3f}ms] {entry.stage:18} {entry.describe()}")
        counts = {
            stage: n for stage, n in self.stages.items() if n
        }
        if counts:
            lines.append("")
            lines.append(
                "stage counts: "
                + "  ".join(f"{stage}={n}"
                            for stage, n in sorted(counts.items())))
        return "\n".join(lines)

    def to_html(self) -> str:
        """Self-contained HTML report: chain banner + timeline table."""
        rows = []
        t0 = self.timeline[0].event.time if self.timeline else 0.0
        for entry in self.timeline:
            dt = (entry.event.time - t0) * 1e3
            rows.append(
                f"<tr><td>{dt:+.3f} ms</td>"
                f"<td class='stage'>{_html.escape(entry.stage)}</td>"
                f"<td>{_html.escape(entry.describe())}</td></tr>")
        chain = " &rarr; ".join(
            _html.escape(s) for s in self.chain
        ) or "(no incident markers)"
        return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>postmortem — {_html.escape(self.snapshot.trigger)}</title>
<style>
body {{ font: 13px/1.5 monospace; margin: 20px; color: #222; }}
.chain {{ background: #fff4f0; border: 1px solid #e0b0a0;
          padding: 8px 12px; margin-bottom: 16px; }}
table {{ border-collapse: collapse; }}
td {{ border-bottom: 1px solid #eee; padding: 3px 10px; }}
.stage {{ color: #a04030; }}
</style></head><body>
<h2>postmortem — trigger {_html.escape(self.snapshot.trigger)}</h2>
<div class="chain">causal chain: {chain}</div>
<table>{''.join(rows)}</table>
<p>events={len(self.snapshot.events)} dropped={self.snapshot.dropped}
 capacity={self.snapshot.capacity}</p>
</body></html>
"""

    def write_html(self, path: str) -> str:
        """Write :meth:`to_html` to ``path``; returns ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_html())
        return path


def _stage_of(event: FlightEvent) -> str:
    """The chain stage an event evidences, or '' for background noise."""
    for stage, names in _CHAIN_STAGES:
        if event.name in names:
            if (
                event.name == "breaker.transition"
                and event.attributes.get("to") != "open"
            ):
                continue
            if (
                event.name == "scheduler.dispatch"
                and event.attributes.get("granted", True)
            ):
                return ""
            return stage
    return ""


def build_postmortem(snapshot: FlightSnapshot) -> PostmortemReport:
    """Correlate ``snapshot`` into the fault -> ... -> queue-pressure story.

    Keeps only chain-relevant events (faults, fallbacks, breaker trips,
    quarantines, invalidations, dispatch rejections), in
    ``(time, seq)`` order, and tallies which causal stages have
    evidence.
    """
    report = PostmortemReport(snapshot=snapshot)
    events = sorted(snapshot.events, key=lambda e: (e.time, e.seq))
    for event in events:
        stage = _stage_of(event)
        if not stage:
            continue
        report.timeline.append(TimelineEntry(stage=stage, event=event))
        report.stages[stage] = report.stages.get(stage, 0) + 1
    return report
