"""Workload-level serving telemetry: session traces and the serving sweep.

The observability layer for the paper's *concurrent* story (§5, Table
3, Fig. 8): a *serving system* of N closed-loop sessions contending for
the host pool and the GPUs.  From the simulator's raw telemetry
(:class:`repro.sim.RequestTrace` phase intervals, queue-depth and
active-session logs) it builds:

- **session span trees** — every request becomes a ``session.request``
  root with admission / queue-wait / execute / respond children that
  tile the request's wall-clock exactly, so EXPLAIN ANALYZE attribution
  over a session trace still sums to the total simulated time;
- a **streaming latency histogram** over every request, built on
  :mod:`repro.obs.hist`;
- **serving metrics** (``repro_queue_depth``, ``repro_session_active``,
  ``repro_requests_total``, ``repro_queue_wait_seconds_total``, latency
  histograms per query class and path) in the standard registry, so the
  Prometheus and JSONL exporters pick them up unchanged;
- the **users-vs-throughput sweep** behind ``repro serve-bench`` with a
  byte-stable committed baseline (``BENCH_serving_sweep.json``).

Layering: this module never imports :mod:`repro.workloads` at module
level (the driver imports *us* for the result types); sweep entry
points import the concrete driver lazily, mirroring how the CLI loads
the bench harness.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.obs.baseline import HIGHER, LOWER, Document, row_dict
from repro.obs.hist import StreamingHistogram
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.sim import RequestTrace, SimulationResult

#: Serving-sweep baseline schema version.
SWEEP_FORMAT = 1

#: Default committed-baseline location (shared with ``repro bench``).
SWEEP_BASELINE = os.path.join("benchmarks", "baselines",
                              "BENCH_serving_sweep.json")

#: Default Table-3-style session ladder.
DEFAULT_SESSIONS = (1, 8, 32, 128)

#: The :data:`repro.config.KNOBS` rows a sweep document records.
SWEEP_KNOBS = ("cache_fraction", "pipeline_depth", "chunk_bytes")


# ---------------------------------------------------------------------------
# Phase partition: exact tiling of a request into queue/cpu/gpu segments
# ---------------------------------------------------------------------------


def request_phases(request: RequestTrace) -> list[tuple[str, float, float]]:
    """Partition ``[start, end]`` into contiguous labelled segments.

    Segment labels are ``"gpu"`` (some device stage active — kernel time
    dominates the phase), ``"cpu"`` (pool work only), or ``"queue"``
    (no resource held: the request is parked in a GPU admission queue).
    Segment boundaries come from the stage endpoints themselves, so the
    segments tile the request interval *exactly* — the invariant that
    keeps EXPLAIN ANALYZE attribution summing to the total.
    """
    stages = [s for s in request.stages if s.end > s.start]
    # The common shape (no parallel group): stages in order, none
    # overlapping, all inside the request — one pass, gaps are queue time.
    segments: list[tuple[str, float, float]] = []
    cursor = request.start
    for stage in stages:
        if stage.start < cursor:
            return _tile_overlapping(request, stages)
        if stage.start > cursor:
            _extend(segments, "queue", cursor, stage.start)
        kind = stage.kind if stage.kind in ("gpu", "cpu") else "queue"
        _extend(segments, kind, stage.start, stage.end)
        cursor = stage.end
    if cursor > request.end:
        return _tile_overlapping(request, stages)
    if request.end > cursor:
        _extend(segments, "queue", cursor, request.end)
    return segments


def _extend(segments: list, kind: str, t0: float, t1: float) -> None:
    """Append ``[t0, t1]``, merged into the last segment when kinds match."""
    if segments and segments[-1][0] == kind:
        segments[-1] = (kind, segments[-1][1], t1)
    else:
        segments.append((kind, t0, t1))


def _tile_overlapping(
    request: RequestTrace, stages: list
) -> list[tuple[str, float, float]]:
    """:func:`request_phases` for any stage list: tile by every endpoint."""
    bounds = {request.start, request.end}
    for stage in stages:
        bounds.add(min(max(stage.start, request.start), request.end))
        bounds.add(min(max(stage.end, request.start), request.end))
    points = sorted(bounds)
    segments: list[tuple[str, float, float]] = []
    for t0, t1 in zip(points, points[1:]):
        if t1 <= t0:
            continue
        kinds = {s.kind for s in stages if s.start <= t0 and s.end >= t1}
        if "gpu" in kinds:
            kind = "gpu"
        elif "cpu" in kinds:
            kind = "cpu"
        else:
            kind = "queue"
        _extend(segments, kind, t0, t1)
    return segments


# ---------------------------------------------------------------------------
# ServingRun: one simulated run with full telemetry attached
# ---------------------------------------------------------------------------


@dataclass
class ServingRun:
    """One concurrent run plus everything the telemetry layer derived."""

    sessions: int
    sim: SimulationResult
    tracer: Tracer
    registry: MetricsRegistry
    hist: StreamingHistogram

    @property
    def requests(self) -> int:
        return len(self.sim.requests)

    @property
    def makespan(self) -> float:
        return self.sim.makespan

    def throughput_per_hour(self) -> float:
        return self.sim.throughput_per_hour()

    def offload_ratio(self) -> float:
        """Fraction of requests that touched a GPU."""
        if not self.sim.requests:
            return 0.0
        offloaded = sum(1 for r in self.sim.requests if r.offloaded)
        return offloaded / len(self.sim.requests)

    def queue_wait_seconds(self) -> float:
        return sum(r.queue_wait for r in self.sim.requests)


def build_serving_run(
    result: SimulationResult,
    class_of: dict[str, str],
    *,
    sessions: int,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    recorder=None,
) -> ServingRun:
    """Attach the full telemetry stack to a finished simulation.

    Emits one span tree per request (admission → queue-wait → execute →
    respond, tiling the request exactly), in simulated-completion order,
    and feeds the run's streaming histogram and the serving metrics.
    ``recorder`` (a :class:`repro.obs.recorder.FlightRecorder`) receives
    the replay's spans and counter deltas as one batch at the end — the
    ring, ``seq`` and ``dropped`` as one-by-one feeds would leave them —
    and stays attached to the replay tracer and registry afterwards.
    """
    tracer = tracer if tracer is not None else Tracer()
    registry = registry if registry is not None else MetricsRegistry()
    # The recorder's share of the replay: a full ring keeps only the last
    # ``capacity`` records, so only those are held (and later copied).
    batch = deque(maxlen=recorder.capacity if recorder is not None else 0)
    fed = 0

    hist = StreamingHistogram()
    requests_total = registry.counter(
        "repro_requests_total", "Completed serving requests",
        labelnames=("query_class", "path"))
    queue_wait_total = registry.counter(
        "repro_queue_wait_seconds_total",
        "Simulated seconds requests spent in GPU admission queues")
    queue_wait_series = queue_wait_total.labels()
    latency_hist = registry.histogram(
        "repro_request_latency_seconds",
        "End-to-end request latency (simulated)",
        labelnames=("query_class", "path"))
    series = {}  # (class, path) -> its two series and label dict

    record = tracer.record
    for request in sorted(result.requests, key=lambda r: (r.end, r.start,
                                                          r.user_id)):
        cls = class_of.get(request.query_id, "?")
        path = "gpu" if request.offloaded else "cpu"
        mark = len(tracer.spans)
        root = record(
            "session.request", request.start, request.end,
            query_id=request.query_id, session=request.user_id,
            query_class=cls, path=path, loop=request.loop,
            index=request.index)
        record("session.admission", request.start, request.start,
               parent=root, session=request.user_id)
        for kind, t0, t1 in request_phases(request):
            if kind == "queue":
                record("session.queue_wait", t0, t1, parent=root)
            else:
                record("session.execute", t0, t1, parent=root, kind=kind)
        record("session.respond", request.end, request.end,
               parent=root, session=request.user_id)

        if (cls, path) not in series:
            labels = {"query_class": cls, "path": path}
            series[cls, path] = (requests_total.labels(**labels),
                                 latency_hist.labels(**labels), labels)
        count, latency, labels = series[cls, path]
        elapsed, wait = request.elapsed, request.queue_wait
        hist.observe(elapsed)
        count.inc()
        queue_wait_series.inc(wait)
        latency.observe(elapsed)
        if recorder is not None:
            batch.extend(tracer.spans[mark:])
            batch.append((requests_total.name, labels, 1.0))
            batch.append((queue_wait_total.name, {}, wait))
            fed += len(tracer.spans) - mark + 2

    queue_gauge = registry.gauge(
        "repro_queue_depth",
        "GPU admission-queue depth (high-water over the run)")
    queue_gauge.set_max(float(result.max_queue_depth()))
    session_gauge = registry.gauge(
        "repro_session_active",
        "Concurrently active sessions (high-water over the run)").labels()
    for _, active in result.active_sessions_log:
        session_gauge.set_max(float(active))
    if recorder is not None:
        recorder.feed(batch, fed)
        recorder.attach_tracer(tracer)
        recorder.attach_registry(registry)

    return ServingRun(sessions=sessions, sim=result, tracer=tracer,
                      registry=registry, hist=hist)


# ---------------------------------------------------------------------------
# Users-vs-throughput sweep (the Table-3 analogue) and its baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One session-count point of the serving sweep."""

    sessions: int
    requests: int
    makespan_s: float
    throughput_per_hour: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    offload_ratio: float
    max_queue_depth: int
    queue_wait_s: float

    def to_dict(self) -> dict:
        return row_dict(self)


@dataclass
class SweepResult(Document):
    """One full users-vs-throughput sweep (``repro serve-bench``).

    As a :class:`~repro.obs.baseline.Document` family: per-point
    throughput and latency percentiles are gated both ways; request
    counts and the session ladder must match exactly; a queue-depth
    change or an offload-ratio drop is a warning — they usually
    *explain* a latency failure rather than constitute one.
    """

    missing = ("no baseline at {path} — run `repro serve-bench --update` "
               "and commit the file")
    accepts = {"format": SWEEP_FORMAT, "kind": "serving_sweep"}
    wrong = ("is not a serving-sweep baseline "
             "(format={format!r} kind={kind!r})")
    rows = "points"
    label = "{} sessions"
    count = ("requests", "request")
    # Throughput regresses downward; latency regresses upward.
    metrics = {"throughput_per_hour": HIGHER, "p50_ms": LOWER,
               "p99_ms": LOWER, "p999_ms": LOWER}
    regressed = ("regressed {pct:.1f}% ({ref:.3f} -> {value:.3f}, "
                 "tolerance {tol:.0f}%)")
    improved = ("improved {pct:.1f}% ({ref:.3f} -> {value:.3f}) — baseline "
                "is stale; run `repro serve-bench --update` and commit the "
                "refreshed file")
    identity = ("loops", "think_seconds")
    ladder = "session ladder"

    workload: str
    scale: float
    seed: int
    degree: int
    #: The knobs a sweep document records (:data:`SWEEP_KNOBS`).
    config: dict
    loops: int
    think_seconds: float
    points: dict[int, SweepPoint] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "format": SWEEP_FORMAT,
            "kind": "serving_sweep",
            "workload": self.workload,
            "scale": self.scale,
            "seed": self.seed,
            "degree": self.degree,
            **self.config,
            "loops": self.loops,
            "think_seconds": self.think_seconds,
            "points": {str(n): p.to_dict()
                       for n, p in sorted(self.points.items())},
        }

    @staticmethod
    def row_warnings(label: str, row: dict, base: dict,
                     tolerance: float) -> list[str]:
        warnings = []
        if row["max_queue_depth"] != base.get("max_queue_depth"):
            warnings.append(
                f"{label}: max queue depth {base.get('max_queue_depth')} "
                f"-> {row['max_queue_depth']}")
        ref_ratio = float(base.get("offload_ratio", 0.0))
        if row["offload_ratio"] < ref_ratio - 1e-9:
            warnings.append(
                f"{label}: offload ratio dropped {ref_ratio:.3f} -> "
                f"{row['offload_ratio']:.3f}")
        return warnings

    def to_text(self) -> str:
        """The users-vs-throughput table (Table 3 shape)."""
        header = (f"{'sessions':>8} {'requests':>9} {'qph':>12} "
                  f"{'p50 ms':>10} {'p99 ms':>10} {'p999 ms':>10} "
                  f"{'offload':>8} {'max q':>6}")
        lines = [header, "-" * len(header)]
        for n in sorted(self.points):
            p = self.points[n]
            lines.append(
                f"{p.sessions:>8} {p.requests:>9} "
                f"{p.throughput_per_hour:>12.1f} {p.p50_ms:>10.3f} "
                f"{p.p99_ms:>10.3f} {p.p999_ms:>10.3f} "
                f"{p.offload_ratio:>8.2f} {p.max_queue_depth:>6}")
        return "\n".join(lines)


def run_sweep(
    catalog,
    config,
    *,
    workload: str = "bd_insights",
    scale: float,
    seed: int,
    degree: int = 48,
    classes: Optional[Sequence[str]] = None,
    session_counts: Sequence[int] = DEFAULT_SESSIONS,
    loops: int = 1,
    think_seconds: float = 0.0,
    gpu: bool = True,
    slowdown: float = 1.0,
) -> tuple[SweepResult, dict[int, ServingRun]]:
    """Run the users-vs-throughput ladder over one workload.

    ``slowdown`` multiplies reported latencies (and stretches makespans)
    — the same self-test hook ``repro bench`` has, so CI can prove the
    serving gate trips without planting a regression.  Returns the sweep
    plus the per-point :class:`ServingRun`.
    """
    from repro.obs.bench import workload_classes
    from repro.workloads.driver import WorkloadDriver
    from repro.workloads.query import SessionGroup

    driver = WorkloadDriver(catalog, config, degree=degree)
    available = workload_classes(workload, driver, classes)
    queries = [q for name in sorted(available) for q in available[name]]

    sweep = SweepResult(
        workload=workload, scale=scale, seed=seed, degree=degree,
        config={key: getattr(config, key) for key in SWEEP_KNOBS},
        loops=loops, think_seconds=think_seconds,
    )
    runs: dict[int, ServingRun] = {}
    for sessions in session_counts:
        group = SessionGroup("session", sessions, queries, think_seconds)
        run = driver.closed_loop([group], gpu=gpu, loops=loops)
        runs[sessions] = run
        sweep.points[sessions] = SweepPoint(
            sessions=sessions,
            requests=run.requests,
            makespan_s=run.makespan * slowdown,
            throughput_per_hour=run.throughput_per_hour() / slowdown,
            p50_ms=run.hist.p50 * 1e3 * slowdown,
            p99_ms=run.hist.p99 * 1e3 * slowdown,
            p999_ms=run.hist.p999 * 1e3 * slowdown,
            offload_ratio=run.offload_ratio(),
            max_queue_depth=run.sim.max_queue_depth(),
            queue_wait_s=run.queue_wait_seconds() * slowdown,
        )
    return sweep, runs
