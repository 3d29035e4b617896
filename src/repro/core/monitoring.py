"""Integrated CPU+GPU performance monitoring (section 2.3).

The paper built its own monitor because nvidia-smi cannot profile kernels
inside a host application.  :class:`PerformanceMonitor` plays that role
without a record of its own beyond the query profiles: its stores are
the engine's :class:`~repro.obs.tracing.Tracer` — every offload decision
is an ``offload.decision`` instant, every kernel launch a ``gpu.launch``
span carrying the timings its :class:`~repro.gpu.device.LaunchResult`
returned — and the :class:`~repro.obs.metrics.MetricsRegistry`.  The
recording methods write into those stores; :meth:`decisions_for`,
:meth:`export_events` and :meth:`report` (the kernel-tuning view) read
them back.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional, Sequence

from repro.gpu.device import GpuDevice
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    RELATIVE_ERROR_BUCKETS,
    MetricsRegistry,
)
from repro.obs.profile import DECISION, LAUNCH, DecisionRecord
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.timing import QueryProfile

#: Offload path -> the counter its decisions bump, beside the labelled
#: ``repro_offload_decisions_total``.
PATH_COUNTERS = {
    "gpu": "repro_gpu_offloads_total",
    "cpu-small": "repro_cpu_small_total",
    "cpu-large": "repro_cpu_large_total",
    "cpu-fallback": "repro_reservation_fallbacks_total",
}


class PerformanceMonitor:
    """The tuning loop's one view: recording methods and read-backs over
    the tracer and the registry it is handed (fresh ones by default)."""

    def __init__(self, devices: Sequence[GpuDevice] = (),
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.devices = list(devices)
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.profiles: list[QueryProfile] = []
        # The monitor's own series, registered so exports show them at 0.
        for name, help in (
            ("repro_gpu_offloads_total", "Operators routed to the GPU path"),
            ("repro_cpu_small_total", "Operators kept on the CPU below T1/T2"),
            ("repro_cpu_large_total", "Operators kept on the CPU above T3"),
            ("repro_reservation_fallbacks_total",
             "GPU-path operators that fell back: no device could reserve"),
            ("repro_overflow_retries_total",
             "Hash-table overflow regrow-and-retry attempts"),
            ("repro_kernels_raced_total",
             "Group-bys whose kernels were raced"),
            ("repro_kernels_cancelled_total",
             "Raced kernels cancelled after losing"),
        ):
            self.registry.counter(name, help)
        for device in self.devices:
            # Wire the observability sinks into the GPU substrate so kernel
            # launches feed the latency histograms and device trace lanes.
            if getattr(device, "metrics", None) is None:
                device.metrics = self.registry
            if not getattr(device, "tracer", NULL_TRACER).enabled:
                device.tracer = self.tracer

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_profile(self, profile: QueryProfile) -> None:
        self.profiles.append(profile)
        self.registry.counter(
            "repro_queries_total", "Queries executed").inc()
        self.registry.histogram(
            "repro_query_latency_seconds",
            "Simulated serial query latency (24 threads)",
            buckets=LATENCY_BUCKETS,
        ).observe(profile.elapsed_serial(cores=24))
        self.registry.counter(
            "repro_query_cpu_core_seconds_total",
            "CPU core-seconds across all queries",
        ).inc(profile.cpu_core_seconds)
        self.registry.counter(
            "repro_query_gpu_seconds_total",
            "GPU device-seconds across all queries",
        ).inc(profile.gpu_seconds)

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to one of the monitor's own counters.

        Written, not announced (no flight-recorder delta): the trace the
        recorder already holds carries what these counts summarise — the
        ``offload.decision`` instants and the ``moderator.run`` span's
        race and retry attributes.
        """
        counter = self.registry.counter(name)
        counter.set(counter.value + amount)

    def record_kmv_estimate(self, estimated: int, actual: int) -> float:
        """One KMV group-count estimate judged against the truth.

        The relative error ``|estimate - actual| / actual`` is the
        paper's central tuning signal (it sizes the GPU hash table); it
        feeds the ``repro_kmv_relative_error`` histogram and is returned
        so callers can stamp it on the group-by span.
        """
        actual = max(1, int(actual))
        error = abs(int(estimated) - actual) / actual
        self.registry.histogram(
            "repro_kmv_relative_error",
            "Relative error of KMV group-count estimates vs actual groups",
            buckets=RELATIVE_ERROR_BUCKETS,
        ).observe(error)
        return error

    def record_race(self, cancelled: Sequence[str]) -> None:
        """One raced group-by: the losers were cancelled mid-flight."""
        self.count("repro_kernels_raced_total")
        self.count("repro_kernels_cancelled_total", len(cancelled))

    def record_overflow_retries(self, retries: int) -> None:
        """Hash-table regrow attempts the error path performed."""
        if retries > 0:
            self.count("repro_overflow_retries_total", retries)

    def record_fault_fallback(self, operator: str, error: Exception,
                              device_id: int = -1) -> None:
        """A GPU-path operator hit a (possibly injected) fault mid-flight
        and re-ran on the CPU chain — the guaranteed-degradation path of
        ``docs/fault_injection.md``."""
        self.tracer.instant(
            "fault.fallback", operator=operator, device_id=device_id,
            error=type(error).__name__, detail=str(error),
        )
        self.registry.counter(
            "repro_fault_fallbacks_total",
            "GPU-path operators that recovered from a fault on the CPU",
            labelnames=("operator", "error"),
        ).labels(operator=operator, error=type(error).__name__).inc()

    def record_sort_stats(self, stats) -> None:
        """Feed one hybrid-sort run's job accounting into the registry."""
        jobs = self.registry.counter(
            "repro_sort_jobs_total", "Hybrid sort jobs by execution target",
            labelnames=("target",))
        jobs.labels(target="gpu").inc(stats.jobs_gpu)
        jobs.labels(target="cpu").inc(stats.jobs_cpu)
        self.registry.counter(
            "repro_sort_duplicate_jobs_total",
            "Sort jobs re-queued for duplicate partial-key ranges",
        ).inc(stats.duplicate_jobs)
        self.registry.counter(
            "repro_sort_fallbacks_total",
            "GPU sort jobs that fell back to the CPU",
        ).inc(stats.fallbacks)

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------

    @property
    def total_gpu_seconds(self) -> float:
        return sum(p.gpu_seconds for p in self.profiles)

    @property
    def total_cpu_core_seconds(self) -> float:
        return sum(p.cpu_core_seconds for p in self.profiles)

    def operator_breakdown(self) -> dict[str, float]:
        """Elapsed-equivalent seconds per operator label across queries."""
        out: dict[str, float] = {}
        for profile in self.profiles:
            for op, seconds in profile.breakdown().items():
                out[op] = out.get(op, 0.0) + seconds
        return out

    def decisions_for(self, query_id: str) -> list[DecisionRecord]:
        """The offload decisions stamped with ``query_id``, in trace
        order — of every run that used the id."""
        return [DecisionRecord.of(s) for s in self.tracer.spans
                if s.name == DECISION
                and s.attributes["query_id"] == query_id]

    def launches(self) -> dict[int, list[dict]]:
        """Each device's ``gpu.launch`` span attributes, in launch order."""
        out: dict[int, list[dict]] = {d.device_id: [] for d in self.devices}
        for span in self.tracer.spans:
            if span.name == LAUNCH and span.attributes["device_id"] in out:
                out[span.attributes["device_id"]].append(span.attributes)
        return out

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------

    def export_events(self) -> list[dict]:
        """Machine-readable dump of everything the monitor collected.

        One dict per record — query profiles (with their event traces),
        offload decisions, and device kernel launches — suitable for
        json.dump or downstream analysis.
        """
        out: list[dict] = []
        for profile in self.profiles:
            out.append({
                "kind": "query",
                "query_id": profile.query_id,
                "gpu_enabled": profile.gpu_enabled,
                "cpu_core_seconds": profile.cpu_core_seconds,
                "gpu_seconds": profile.gpu_seconds,
                "offloaded": profile.offloaded,
                "events": [
                    {
                        "op": e.op, "rows": e.rows,
                        "cpu_seconds": e.cpu_seconds,
                        "max_degree": e.max_degree,
                        "gpu_seconds": e.gpu_seconds,
                        "gpu_memory_bytes": e.gpu_memory_bytes,
                        "device_id": e.device_id,
                        "parallel_group": e.parallel_group,
                    }
                    for e in profile.events
                ],
            })
        for span in self.tracer.spans:
            if span.name == DECISION:
                out.append({"kind": "decision",
                            "query_id": span.attributes["query_id"],
                            **asdict(DecisionRecord.of(span))})
        for device_id, launches in self.launches().items():
            for a in launches:
                out.append({
                    "kind": "kernel",
                    "device_id": device_id, "kernel": a["kernel"],
                    "rows": a["rows"],
                    "kernel_seconds": a["kernel_seconds"],
                    "transfer_seconds": (a["transfer_in_seconds"]
                                         + a["transfer_out_seconds"]),
                    "device_bytes": a["device_bytes"],
                })
        return out

    def report(self) -> str:
        def n(name: str) -> int:
            return int(self.registry.counter(name).value)

        lines = ["=== DB2 BLU + GPU performance monitor ==="]
        lines.append(
            f"queries={len(self.profiles)}  "
            f"gpu_offloads={n('repro_gpu_offloads_total')}  "
            f"cpu_small={n('repro_cpu_small_total')}  "
            f"cpu_large={n('repro_cpu_large_total')}  "
            f"fallbacks={n('repro_reservation_fallbacks_total')}  "
            f"overflow_retries={n('repro_overflow_retries_total')}"
        )
        lines.append(
            f"cpu core-seconds={self.total_cpu_core_seconds:.3f}  "
            f"gpu device-seconds={self.total_gpu_seconds:.3f}"
        )
        breakdown = self.operator_breakdown()
        if breakdown:
            lines.append("-- operator breakdown (elapsed-equivalent s) --")
            for op, seconds in sorted(breakdown.items(),
                                      key=lambda kv: -kv[1]):
                lines.append(f"  {op:16} {seconds:10.4f}")
        for device_id, launches in self.launches().items():
            if launches:
                lines.extend(_kernel_table(device_id, launches))
        return "\n".join(lines)


def _kernel_table(device_id: int, launches: list[dict]) -> list[str]:
    """One device's per-kernel totals (the tuning view), folded over its
    ``gpu.launch`` span attributes."""
    totals: dict[str, list] = {}     # kernel -> calls, rows, kernel s, xfer s
    for a in launches:
        row = totals.setdefault(a["kernel"], [0, 0, 0.0, 0.0])
        row[0] += 1
        row[1] += a["rows"]
        row[2] += a["kernel_seconds"]
        row[3] += a["transfer_in_seconds"] + a["transfer_out_seconds"]
    header = (f"{'kernel':24} {'calls':>6} {'rows':>12} "
              f"{'kernel ms':>10} {'xfer ms':>10} {'xfer %':>7}")
    lines = [f"GPU {device_id} kernel profile", header, "-" * len(header)]
    for name, (calls, rows, kernel_s, xfer_s) in sorted(totals.items()):
        total = kernel_s + xfer_s
        lines.append(
            f"{name:24} {calls:>6} {rows:>12} {kernel_s * 1e3:>10.3f} "
            f"{xfer_s * 1e3:>10.3f} "
            f"{(xfer_s / total if total else 0.0) * 100:>6.1f}%")
    return lines
