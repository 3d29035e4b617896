"""Exporters: Chrome trace-event JSON, Prometheus text, JSONL span log.

Chrome traces open directly in ``chrome://tracing`` or
https://ui.perfetto.dev: one process ("repro (simulated time)") with one
lane per simulated device plus a CPU-pool lane, every span a complete
("X") event whose ``args`` carry the trace/span/parent ids and the span
attributes.  Timestamps are simulated microseconds, so the viewer shows
the exact timeline the serial cost model computed.

The Prometheus exporter renders the classic text exposition format
(``# HELP`` / ``# TYPE`` plus samples; histograms expand to cumulative
``_bucket{le=...}`` series with ``_sum`` and ``_count``), parseable by any
Prometheus scraper or ``promtool check metrics``.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Optional, Sequence, Union

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import Span

_CPU_LANE = 0
_PID = 1
_PROCESS_NAME = "repro (simulated time)"


def _lane(span: Span) -> int:
    """GPU spans get one lane per device; everything else is the CPU pool."""
    device_id = span.attributes.get("device_id", -1)
    if isinstance(device_id, int) and device_id >= 0:
        return 1 + device_id
    return _CPU_LANE


def chrome_trace(spans: Sequence[Span]) -> dict:
    """Render spans as a Chrome trace-event JSON object."""
    events: list[dict] = []
    lanes: dict[int, str] = {_CPU_LANE: "CPU pool"}
    for span in spans:
        tid = _lane(span)
        if tid not in lanes:
            lanes[tid] = f"GPU {tid - 1}"
        args = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        args.update(span.attributes)
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "pid": _PID,
            "tid": tid,
            "args": args,
        })
    meta: list[dict] = [{
        "name": "process_name", "ph": "M", "ts": 0, "pid": _PID,
        "tid": _CPU_LANE, "args": {"name": _PROCESS_NAME},
    }]
    for tid in sorted(lanes):
        meta.append({
            "name": "thread_name", "ph": "M", "ts": 0, "pid": _PID,
            "tid": tid, "args": {"name": lanes[tid]},
        })
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[Span], path: str) -> str:
    """Write :func:`chrome_trace` output to ``path``; returns the path."""
    with open(path, "w") as f:
        json.dump(chrome_trace(spans), f, indent=1)
    return path


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _fmt_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: object) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def _fmt_labels(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in merged.items())
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every registered metric in Prometheus exposition format."""
    lines: list[str] = []
    for metric in registry.collect():
        lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.typename}")
        if isinstance(metric, (Counter, Gauge)):
            samples = list(metric.samples()) or [({}, 0.0)]
            for labels, value in samples:
                lines.append(
                    f"{metric.name}{_fmt_labels(labels)} {_fmt_value(value)}"
                )
        elif isinstance(metric, Histogram):
            for labels, state in metric.samples():
                cumulative = 0
                for bound, count in zip(metric.buckets, state.counts):
                    cumulative += count
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_fmt_labels(labels, {'le': _fmt_value(bound)})}"
                        f" {cumulative}"
                    )
                cumulative += state.counts[-1]
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_fmt_labels(labels, {'le': '+Inf'})} {cumulative}"
                )
                lines.append(
                    f"{metric.name}_sum{_fmt_labels(labels)} "
                    f"{_fmt_value(state.sum)}"
                )
                lines.append(
                    f"{metric.name}_count{_fmt_labels(labels)} {state.count}"
                )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSONL span log
# ---------------------------------------------------------------------------


class TraceLog:
    """Append-only JSONL span writer (one span dict per line)."""

    def __init__(self, target: Union[str, IO[str]]) -> None:
        self._path: Optional[str] = None
        self._file: Optional[IO[str]] = None
        if isinstance(target, str):
            self._path = target
        else:
            self._file = target

    def write(self, spans: Iterable[Span]) -> int:
        """Append spans; returns the number of lines written."""
        lines = [json.dumps(span.to_dict(), sort_keys=True)
                 for span in spans]
        if self._file is not None:
            for line in lines:
                self._file.write(line + "\n")
        else:
            with open(self._path, "a") as f:
                for line in lines:
                    f.write(line + "\n")
        return len(lines)

    @staticmethod
    def read(path: str) -> list[dict]:
        """Load a JSONL span log back into dicts (for tooling/tests)."""
        out = []
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out


# ---------------------------------------------------------------------------
# JSONL metrics log
# ---------------------------------------------------------------------------


class MetricsLog:
    """JSONL metrics writer: one series sample per line, losslessly.

    Counter and gauge series serialise as ``{"name", "type", "help",
    "labels", "value"}``; histograms additionally carry their bucket
    bounds and per-bucket counts, so :meth:`restore` can rebuild an
    identical registry — the round-trip the exporter test pins.
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        self._path: Optional[str] = None
        self._file: Optional[IO[str]] = None
        if isinstance(target, str):
            self._path = target
        else:
            self._file = target

    def write(self, registry: MetricsRegistry) -> int:
        """Append every series of ``registry``; returns lines written."""
        lines = [json.dumps(record, sort_keys=True)
                 for record in self._records(registry)]
        if self._file is not None:
            for line in lines:
                self._file.write(line + "\n")
        else:
            with open(self._path, "a") as f:
                for line in lines:
                    f.write(line + "\n")
        return len(lines)

    @staticmethod
    def _records(registry: MetricsRegistry) -> Iterable[dict]:
        for metric in registry.collect():
            base = {
                "name": metric.name,
                "type": metric.typename,
                "help": metric.help,
                # Label order matters for a byte-identical re-export;
                # sort_keys would scramble the labels object, so the
                # declared order is carried explicitly.
                "labelnames": list(metric.labelnames),
            }
            samples = list(metric.samples())
            if not samples:
                # A declared metric with no samples yet (e.g. a labelled
                # violations counter before any alert fires) must survive
                # the round trip, or the restored exposition loses its
                # HELP/TYPE block.
                if isinstance(metric, Histogram):
                    yield {**base, "declare": True,
                           "bounds": list(metric.buckets)}
                else:
                    yield {**base, "declare": True}
                continue
            if isinstance(metric, Histogram):
                for labels, state in metric.samples():
                    yield {
                        **base,
                        "labels": labels,
                        "bounds": list(metric.buckets),
                        "buckets": list(state.counts),
                        "sum": state.sum,
                        "count": state.count,
                    }
            else:
                for labels, value in metric.samples():
                    yield {**base, "labels": labels, "value": value}

    @staticmethod
    def read(path: str) -> list[dict]:
        """Load a JSONL metrics log back into dicts."""
        out = []
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out

    @staticmethod
    def restore(records: Iterable[dict]) -> MetricsRegistry:
        """Rebuild a registry from :meth:`read` output.

        The restored registry re-exports byte-identically (same names,
        labels, values, and histogram bucket states).
        """
        registry = MetricsRegistry()
        for record in records:
            labels = dict(record.get("labels", {}))
            labelnames = tuple(record.get("labelnames", sorted(labels)))
            kind = record.get("type")
            if record.get("declare"):
                if kind == "counter":
                    registry.counter(record["name"], record["help"],
                                     labelnames=labelnames)
                elif kind == "gauge":
                    registry.gauge(record["name"], record["help"],
                                   labelnames=labelnames)
                elif kind == "histogram":
                    registry.histogram(
                        record["name"], record["help"],
                        labelnames=labelnames,
                        buckets=tuple(record["bounds"]))
                continue
            if kind == "counter":
                metric = registry.counter(record["name"], record["help"],
                                          labelnames=labelnames)
                metric.labels(**labels).set(float(record["value"]))
            elif kind == "gauge":
                metric = registry.gauge(record["name"], record["help"],
                                        labelnames=labelnames)
                metric.labels(**labels).set(float(record["value"]))
            elif kind == "histogram":
                metric = registry.histogram(
                    record["name"], record["help"], labelnames=labelnames,
                    buckets=tuple(record["bounds"]))
                key = tuple(str(labels[name]) for name in metric.labelnames)
                state = metric._state(key)
                state.counts = [int(c) for c in record["buckets"]]
                state.sum = float(record["sum"])
                state.count = int(record["count"])
        return registry
