"""Observability layer: span tracing, a metrics registry, and exporters.

The paper's section-2.3 monitor exists because nvidia-smi cannot see inside
a host application.  This package generalises that idea into the three
standard observability primitives:

- :mod:`repro.obs.tracing` — causal span trees over *simulated* time: every
  query yields one trace (plan -> operator -> offload decision -> transfer
  -> kernel) with trace/span/parent ids;
- :mod:`repro.obs.metrics` — a Counter/Gauge/Histogram registry with fixed
  bucket boundaries (no wall-clock dependence anywhere);
- :mod:`repro.obs.export` — Chrome trace-event JSON (open in
  ``chrome://tracing`` or https://ui.perfetto.dev), Prometheus text
  exposition, and a JSONL span log.

Two consumers of the primitives live here too:

- :mod:`repro.obs.profile` — the EXPLAIN ANALYZE profiler: one query's
  span tree reduced to an attributed :class:`~repro.obs.profile.
  QueryProfile` (per-operator CPU/transfer/kernel/launch-overhead time,
  path-selection verdicts, kernel races, device occupancy) rendered as
  text, JSON, or an HTML timeline;
- :mod:`repro.obs.bench` — the benchmark baseline + regression harness
  behind ``repro bench`` and the committed ``BENCH_<workload>.json``
  files.

The engine wires these in through :class:`repro.core.monitoring.
PerformanceMonitor`; library users reach them as ``engine.tracer`` and
``engine.registry`` on :class:`repro.core.accelerator.GpuAcceleratedEngine`.
"""

from repro.obs.hist import HistogramError, StreamingHistogram
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    RELATIVE_ERROR_BUCKETS,
    MetricsRegistry,
)
from repro.obs.tracing import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.export import (
    MetricsLog,
    TraceLog,
    chrome_trace,
    prometheus_text,
    write_chrome_trace,
)
from repro.obs.profile import (
    ProfileError,
    QueryProfile,
    build_profile,
    write_html,
)
from repro.obs.recorder import FlightEvent, FlightRecorder, FlightSnapshot
# repro.obs.bench / serving / diff / postmortem sit above the
# engine (they drive WorkloadDriver), so importing them here would be
# circular: core.monitoring imports repro.obs.metrics, which initialises
# this package.  Import those modules directly.

__all__ = [
    "Counter",
    "FlightEvent",
    "FlightRecorder",
    "FlightSnapshot",
    "Gauge",
    "Histogram",
    "HistogramError",
    "LATENCY_BUCKETS",
    "MetricsLog",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ProfileError",
    "QueryProfile",
    "RELATIVE_ERROR_BUCKETS",
    "Span",
    "StreamingHistogram",
    "TraceLog",
    "Tracer",
    "build_profile",
    "chrome_trace",
    "prometheus_text",
    "write_chrome_trace",
    "write_html",
]
