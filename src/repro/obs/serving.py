"""Workload-level serving telemetry: session traces, sweeps, `repro top`.

This is the observability layer for the paper's *concurrent* story
(§5, Table 3, Fig. 8): where PR-1's tracer describes one query and
PR-3's bench harness describes one serial pass, this module describes a
*serving system* — N closed-loop sessions contending for the host pool
and the GPUs.  It consumes the raw telemetry the simulator now records
(:class:`repro.sim.RequestTrace` phase intervals, queue-depth and
active-session logs) and turns it into:

- **session span trees** — every request becomes a ``session.request``
  root with admission / queue-wait / execute / respond children that
  tile the request's wall-clock exactly, so EXPLAIN ANALYZE attribution
  over a session trace still sums to the total simulated time;
- **streaming latency histograms** per query class and per path
  (CPU vs GPU), built on :mod:`repro.obs.hist`;
- **SLO burn rates** via :mod:`repro.obs.slo`, evaluated at every
  completion over simulated time;
- **serving metrics** (``repro_queue_depth``, ``repro_session_active``,
  ``repro_requests_total``, ``repro_queue_wait_seconds_total``, latency
  histograms) in the standard registry, so the Prometheus and JSONL
  exporters pick them up unchanged;
- the **users-vs-throughput sweep** behind ``repro serve-bench`` with a
  byte-stable committed baseline (``BENCH_serving_sweep.json``), and the
  **`repro top`** point-in-time dashboard snapshot.

Layering: this module never imports :mod:`repro.workloads` at module
level (the driver imports *us* for the result types); sweep entry
points import the concrete driver lazily, mirroring how the CLI loads
the bench harness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.obs.baseline import HIGHER, LOWER, Document, row_dict
from repro.obs.hist import StreamingHistogram
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import DEFAULT_RULES, SLObjective, SloTracker
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
    gpu: bool
    degree: int
    loops: int
    think_seconds: float
    sim: SimulationResult
    tracer: Tracer
    registry: MetricsRegistry
    class_of: dict[str, str]
    hist: StreamingHistogram
    hist_by_class: dict[str, StreamingHistogram]
    hist_by_path: dict[str, StreamingHistogram]
    slo: Optional[SloTracker] = None

    # -- scalar reductions ---------------------------------------------

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

    # -- dashboard snapshot --------------------------------------------

    def snapshot(self, at: Optional[float] = None,
                 window: float = 1.0) -> dict:
        """Point-in-time view at simulated ``at`` (default: mid-run).

        Rolling percentiles cover requests completing in
        ``(at - window, at]``; totals cover everything up to ``at``.
        """
        if at is None:
            at = self.makespan / 2.0
        done = [r for r in self.sim.requests if r.end <= at]
        rolling = StreamingHistogram()
        for r in done:
            if r.end > at - window:
                rolling.observe(r.elapsed)
        in_flight = sum(1 for r in self.sim.requests
                        if r.start <= at < r.end)
        per_class: dict[str, dict] = {}
        for r in done:
            cls = self.class_of.get(r.query_id, "?")
            row = per_class.setdefault(cls, {
                "requests": 0, "hist": StreamingHistogram()})
            row["requests"] += 1
            if r.end > at - window:
                row["hist"].observe(r.elapsed)
        class_rows = []
        for cls in sorted(per_class):
            hist = per_class[cls]["hist"]
            class_rows.append({
                "query_class": cls,
                "completed": per_class[cls]["requests"],
                "window_requests": hist.count,
                "p50_ms": round(hist.p50 * 1e3, 3),
                "p99_ms": round(hist.p99 * 1e3, 3),
            })
        return {
            "at": at,
            "window_seconds": window,
            "sessions": self.sessions,
            "active_sessions": self.sim.active_sessions_at(at),
            "queue_depth": self.sim.queue_depth_at(at),
            "max_queue_depth": self.sim.max_queue_depth(),
            "completed": len(done),
            "in_flight": in_flight,
            "window_requests": rolling.count,
            "p50_ms": round(rolling.p50 * 1e3, 3),
            "p95_ms": round(rolling.p95 * 1e3, 3),
            "p99_ms": round(rolling.p99 * 1e3, 3),
            "p999_ms": round(rolling.p999 * 1e3, 3),
            "classes": class_rows,
            "slos": self.slo.status(at) if self.slo else [],
            "alerts": [a.to_dict() for a in self.slo.alerts
                       if a.time <= at] if self.slo else [],
        }


def build_serving_run(
    result: SimulationResult,
    class_of: dict[str, str],
    *,
    sessions: int,
    gpu: bool,
    degree: int,
    loops: int,
    think_seconds: float,
    slos: Sequence[SLObjective] = (),
    rules=DEFAULT_RULES,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    recorder=None,
) -> ServingRun:
    """Attach the full telemetry stack to a finished simulation.

    Emits one span tree per request (admission → queue-wait → execute →
    respond, tiling the request exactly), feeds the per-class/per-path
    streaming histograms and serving metrics, and evaluates SLO burn
    rates at every completion in simulated-time order.  ``recorder``
    (a :class:`repro.obs.recorder.FlightRecorder`) is attached to the
    replay tracer and registry so breaker trips seen during profiling
    and SLO alerts raised here land in one ordered flight record.
    """
    tracer = tracer if tracer is not None else Tracer()
    registry = registry if registry is not None else MetricsRegistry()
    if recorder is not None:
        recorder.attach_tracer(tracer)
        recorder.attach_registry(registry)
    slo = SloTracker(list(slos), rules=rules) if slos else None

    hist = StreamingHistogram()
    hist_by_class: dict[str, StreamingHistogram] = {}
    hist_by_path: dict[str, StreamingHistogram] = {}
    requests_total = registry.counter(
        "repro_requests_total", "Completed serving requests",
        labelnames=("query_class", "path"))
    queue_wait_total = registry.counter(
        "repro_queue_wait_seconds_total",
        "Simulated seconds requests spent in GPU admission queues")
    latency_hist = registry.histogram(
        "repro_request_latency_seconds",
        "End-to-end request latency (simulated)",
        labelnames=("query_class", "path"))

    for request in sorted(result.requests, key=lambda r: (r.end, r.start,
                                                          r.user_id)):
        cls = class_of.get(request.query_id, "?")
        path = "gpu" if request.offloaded else "cpu"
        root = tracer.record(
            "session.request", request.start, request.end,
            query_id=request.query_id, session=request.user_id,
            query_class=cls, path=path, loop=request.loop,
            index=request.index)
        tracer.record("session.admission", request.start, request.start,
                      parent=root, session=request.user_id)
        for kind, t0, t1 in request_phases(request):
            if kind == "queue":
                tracer.record("session.queue_wait", t0, t1, parent=root)
            else:
                tracer.record("session.execute", t0, t1, parent=root,
                              kind=kind)
        tracer.record("session.respond", request.end, request.end,
                      parent=root, session=request.user_id)

        hist.observe(request.elapsed)
        hist_by_class.setdefault(cls, StreamingHistogram()).observe(
            request.elapsed)
        hist_by_path.setdefault(path, StreamingHistogram()).observe(
            request.elapsed)
        requests_total.labels(query_class=cls, path=path).inc()
        queue_wait_total.inc(request.queue_wait)
        latency_hist.labels(query_class=cls, path=path).observe(
            request.elapsed)
        if slo is not None:
            slo.observe(request.end, request.elapsed, query_class=cls,
                        ok=True)
            slo.evaluate(request.end, tracer=tracer, registry=registry)

    queue_gauge = registry.gauge(
        "repro_queue_depth",
        "GPU admission-queue depth (high-water over the run)")
    queue_gauge.set_max(float(result.max_queue_depth()))
    session_gauge = registry.gauge(
        "repro_session_active",
        "Concurrently active sessions (high-water over the run)")
    for _, active in result.active_sessions_log:
        session_gauge.set_max(float(active))
    if slo is not None:
        slo.evaluate(result.makespan, tracer=tracer, registry=registry)

    return ServingRun(
        sessions=sessions, gpu=gpu, degree=degree, loops=loops,
        think_seconds=think_seconds, sim=result, tracer=tracer,
        registry=registry, class_of=dict(class_of), hist=hist,
        hist_by_class=hist_by_class, hist_by_path=hist_by_path, slo=slo,
    )


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
    slos: Sequence[SLObjective] = (),
) -> tuple[SweepResult, dict[int, ServingRun]]:
    """Run the users-vs-throughput ladder over one workload.

    ``slowdown`` multiplies reported latencies (and stretches makespans)
    — the same self-test hook ``repro bench`` has, so CI can prove the
    serving gate trips without planting a regression.  Returns the sweep
    plus the per-point :class:`ServingRun` (for ``repro top`` and SLO
    inspection).
    """
    from repro.obs.bench import workload_classes
    from repro.workloads.driver import ConcurrentDriver, WorkloadDriver

    driver = WorkloadDriver(catalog, config, degree=degree)
    available = workload_classes(workload, driver, classes)
    queries = [q for name in sorted(available) for q in available[name]]
    concurrent = ConcurrentDriver(driver, queries, loops=loops,
                                  think_seconds=think_seconds, slos=slos)

    sweep = SweepResult(
        workload=workload, scale=scale, seed=seed, degree=degree,
        config={key: getattr(config, key) for key in SWEEP_KNOBS},
        loops=loops, think_seconds=think_seconds,
    )
    runs: dict[int, ServingRun] = {}
    for sessions in session_counts:
        run = concurrent.run(sessions, gpu=gpu)
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


# ---------------------------------------------------------------------------
# `repro top`: the point-in-time text dashboard
# ---------------------------------------------------------------------------


def render_top(snapshot: dict, engine_stats: Optional[dict] = None) -> str:
    """Render a :meth:`ServingRun.snapshot` as the ``repro top`` screen."""
    lines = [
        f"repro top — simulated t={snapshot['at']:.3f}s  "
        f"(window {snapshot['window_seconds']:g}s)",
        "",
        f"sessions: {snapshot['active_sessions']}/{snapshot['sessions']} "
        f"active   in-flight: {snapshot['in_flight']}   "
        f"completed: {snapshot['completed']}",
        f"gpu queue: depth {snapshot['queue_depth']} "
        f"(peak {snapshot['max_queue_depth']})",
        "",
        f"latency (last {snapshot['window_seconds']:g}s, "
        f"{snapshot['window_requests']} requests): "
        f"p50={snapshot['p50_ms']:.3f}ms  p95={snapshot['p95_ms']:.3f}ms  "
        f"p99={snapshot['p99_ms']:.3f}ms  p999={snapshot['p999_ms']:.3f}ms",
    ]
    if snapshot["classes"]:
        lines.append("")
        lines.append(f"{'class':14} {'done':>6} {'in-win':>7} "
                     f"{'p50 ms':>10} {'p99 ms':>10}")
        for row in snapshot["classes"]:
            lines.append(
                f"{row['query_class']:14} {row['completed']:>6} "
                f"{row['window_requests']:>7} {row['p50_ms']:>10.3f} "
                f"{row['p99_ms']:>10.3f}")
    lines.append("")
    if snapshot["slos"]:
        lines.append("-- SLOs --")
        for row in snapshot["slos"]:
            state = "ALERT" if row["alerting"] else "ok"
            target = (f"p99<{row['latency_threshold'] * 1e3:g}ms"
                      if row["latency_threshold"] is not None
                      else "availability")
            scope = row["query_class"] or "all"
            lines.append(
                f"{row['slo']:20} [{state:5}] {target} @ "
                f"{row['objective']:.3%} ({scope})  "
                f"burn={row['worst_burn']:.2f}  bad={row['bad']}/"
                f"{row['requests']}  alerts={row['alerts_fired']}")
    else:
        lines.append("-- SLOs -- (none configured)")
    if engine_stats:
        lines.append("")
        lines.append("-- engine --")
        for device in engine_stats.get("cache", []):
            lines.append(
                f"GPU {device.get('device_id')}: cache hits="
                f"{device.get('hits', 0)} misses={device.get('misses', 0)} "
                f"resident={device.get('cached_bytes', 0)} B")
        pipeline = engine_stats.get("pipeline", {})
        if pipeline:
            lines.append(
                "pipeline overlap saved: " + "  ".join(
                    f"GPU {dev}={saved:.6f}s"
                    for dev, saved in sorted(pipeline.items())))
        for device in engine_stats.get("devices", []):
            lines.append(
                f"GPU {device.get('device_id')}: reserved "
                f"{device.get('memory_reserved', 0)} B "
                f"(peak {device.get('memory_peak_reserved', 0)} B) of "
                f"{device.get('memory_capacity', 0)} B")
        interconnect = engine_stats.get("interconnect", {})
        if interconnect:
            lines.append("-- interconnect --")
            for label in sorted(interconnect):
                link = interconnect[label]
                stall = float(link.get("stall_seconds", 0.0))
                lines.append(
                    f"{label:10} {int(link.get('bytes_total', 0)):>14} B  "
                    f"busy {float(link.get('busy_seconds', 0.0)):.6f}s"
                    + (f"  stall {stall:.6f}s" if stall else ""))
    return "\n".join(lines)
