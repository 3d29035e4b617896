"""Counter / Gauge / Histogram primitives and the metrics registry.

Prometheus-shaped but dependency-free: metrics carry a name, a help
string, and optional label names; observations land in per-label-value
children.  Histogram bucket boundaries are fixed at metric creation (the
defaults below cover simulated kernel/query latencies), so two runs of the
same workload produce byte-identical exports — nothing here reads a wall
clock.

The registry is get-or-create: instrumentation sites ask for a metric by
name every time and the first call wins, which keeps call sites free of
"was this registered yet?" bookkeeping.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Optional

from repro.errors import ReproError

# Simulated seconds: 25 us kernels up to multi-second queries.
LATENCY_BUCKETS: tuple[float, ...] = (
    25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
    1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
    1.0, 2.5, 5.0, 10.0,
)

# Bytes: 4 KB staging buffers up to multi-GB device reservations.
BYTES_BUCKETS: tuple[float, ...] = tuple(
    4.0 * 1024 * 4 ** i for i in range(12)
)

# Relative errors: 0 (exact) through 2.5x off.  The leading 0.0 bucket
# makes "estimate was exact" directly readable from the exposition.
RELATIVE_ERROR_BUCKETS: tuple[float, ...] = (
    0.0, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5,
)


class MetricError(ReproError):
    """Metric misuse: type/label mismatches, unknown labels."""


def _check_labels(labelnames: tuple[str, ...], labels: dict) -> tuple:
    """Validate and order ``labels`` against the declared names."""
    if set(labels) != set(labelnames):
        raise MetricError(
            f"expected labels {labelnames}, got {tuple(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """A name, a help string, label names and one value per series."""

    typename = ""

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._values: dict[tuple, Any] = {}

    @property
    def value(self) -> float:
        """Current value of the unlabelled series (0.0 if untouched)."""
        return self._values.get((), 0.0)

    def samples(self) -> Iterable[tuple[dict, Any]]:
        """Yield ``(labels, value)`` pairs in sorted label order."""
        for key, value in sorted(self._values.items()):
            yield dict(zip(self.labelnames, key)), value


class Counter(_Metric):
    """Monotonically increasing count (``.set`` exists only for the
    unannounced writes of :meth:`PerformanceMonitor.count
    <repro.core.monitoring.PerformanceMonitor.count>`)."""

    typename = "counter"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._children: dict[tuple, _CounterChild] = {}
        #: Delta listeners ``(name, labels, amount)`` shared with the
        #: owning registry (the flight recorder subscribes there).
        self._listeners: list = []

    def labels(self, **labels) -> "_CounterChild":
        """The child series for exactly these label values."""
        key = _check_labels(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _CounterChild(self, key)
        return child

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled series by ``amount`` (>= 0)."""
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        """Overwrite the unlabelled series, unannounced."""
        self.labels().set(value)


class _Series:
    """One labelled series of a metric: the metric and the label values."""

    def __init__(self, parent, key: tuple) -> None:
        self._parent = parent
        self._key = key


class _CounterChild(_Series):
    """One labelled series of a :class:`Counter`."""

    #: The label dict listeners are handed (read-only), built once.
    _labels: Optional[dict] = None

    def inc(self, amount: float = 1.0) -> None:
        """Increment by ``amount``; negative amounts are refused."""
        parent = self._parent
        if amount < 0:
            raise MetricError(f"counter {parent.name} cannot decrease")
        values = parent._values
        values[self._key] = values.get(self._key, 0.0) + amount
        if not parent._listeners:
            return
        if self._labels is None:
            self._labels = dict(zip(parent.labelnames, self._key))
        for listener in parent._listeners:
            listener(parent.name, self._labels, amount)

    def set(self, value: float) -> None:
        """Overwrite this series, unannounced (the monitor's own
        counters and the flight recorder's eviction count only)."""
        self._parent._values[self._key] = float(value)

    @property
    def value(self) -> float:
        """Current value of this series (0.0 if untouched)."""
        return self._parent._values.get(self._key, 0.0)


class Gauge(_Metric):
    """A value that can go up and down (queue depths, memory levels)."""

    typename = "gauge"

    def labels(self, **labels) -> "_GaugeChild":
        """The child series for exactly these label values."""
        key = _check_labels(self.labelnames, labels)
        return _GaugeChild(self, key)

    def set(self, value: float) -> None:
        """Overwrite the unlabelled series."""
        self.labels().set(value)

    def set_max(self, value: float) -> None:
        """High-water update on the unlabelled series."""
        self.labels().set_max(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the unlabelled series."""
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the unlabelled series."""
        self.labels().inc(-amount)


class _GaugeChild(_Series):
    """One labelled series of a :class:`Gauge`."""

    def set(self, value: float) -> None:
        """Overwrite this series."""
        self._parent._values[self._key] = float(value)

    def set_max(self, value: float) -> None:
        """High-water update: keep the larger of current and ``value``."""
        values = self._parent._values
        values[self._key] = max(values.get(self._key, 0.0), float(value))

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to this series."""
        values = self._parent._values
        values[self._key] = values.get(self._key, 0.0) + amount

    @property
    def value(self) -> float:
        """Current value of this series (0.0 if untouched)."""
        return self._parent._values.get(self._key, 0.0)


class _HistogramState:
    """Mutable bucket counts + sum + count for one series."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)   # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-boundary histogram (cumulative buckets on export); a
    series' value is its :class:`_HistogramState`."""

    typename = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = (),
                 buckets: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise MetricError(f"{name}: bucket bounds must be sorted")
        super().__init__(name, help, labelnames)
        self.buckets = tuple(float(b) for b in buckets)

    def labels(self, **labels) -> "_HistogramChild":
        """The child series for exactly these label values."""
        key = _check_labels(self.labelnames, labels)
        return _HistogramChild(self, key)

    def observe(self, value: float) -> None:
        """Record ``value`` into the unlabelled series."""
        self.labels().observe(value)

    def _state(self, key: tuple) -> _HistogramState:
        """Get-or-create the mutable state behind one series."""
        state = self._values.get(key)
        if state is None:
            state = self._values[key] = _HistogramState(len(self.buckets))
        return state

    def bucket_counts(self, **labels) -> list[int]:
        """Per-bucket (non-cumulative) counts, +Inf last — for tests."""
        key = _check_labels(self.labelnames, labels)
        return list(self._state(key).counts)


class _HistogramChild(_Series):
    """One labelled series of a :class:`Histogram`."""

    def observe(self, value: float) -> None:
        """Record ``value``: bump its bucket, the sum, and the count."""
        state = self._parent._state(self._key)
        state.counts[bisect.bisect_left(self._parent.buckets, value)] += 1
        state.sum += value
        state.count += 1


class MetricsRegistry:
    """Get-or-create home for every metric the engine emits."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        #: Counter-delta listeners ``(name, labels, amount)`` — every
        #: counter created through this registry shares this list, so a
        #: late subscriber still sees increments on earlier metrics.
        self.listeners: list = []

    def _get(self, cls, name: str, help: str, **kwargs):
        """Get-or-create ``name``; reject cross-type re-registration."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help=help, **kwargs)
            if isinstance(metric, Counter):
                metric._listeners = self.listeners
        elif not isinstance(metric, cls):
            raise MetricError(
                f"{name} already registered as {metric.typename}"
            )
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> Counter:
        """Get-or-create the :class:`Counter` named ``name``."""
        return self._get(Counter, name, help, labelnames=labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = ()) -> Gauge:
        """Get-or-create the :class:`Gauge` named ``name``."""
        return self._get(Gauge, name, help, labelnames=labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = LATENCY_BUCKETS) -> Histogram:
        """Get-or-create the :class:`Histogram` named ``name``."""
        return self._get(Histogram, name, help, labelnames=labelnames,
                         buckets=buckets)

    def collect(self) -> list:
        """All metrics, sorted by name (export order)."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def get(self, name: str) -> Optional[object]:
        """The metric named ``name``, or ``None`` if never registered."""
        return self._metrics.get(name)

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot of every metric."""
        out: dict[str, dict] = {}
        for metric in self.collect():
            if isinstance(metric, Histogram):
                series = [
                    {
                        "labels": labels,
                        "buckets": list(state.counts),
                        "sum": state.sum,
                        "count": state.count,
                    }
                    for labels, state in metric.samples()
                ]
                out[metric.name] = {
                    "type": metric.typename,
                    "help": metric.help,
                    "bounds": list(metric.buckets),
                    "series": series,
                }
            else:
                out[metric.name] = {
                    "type": metric.typename,
                    "help": metric.help,
                    "series": [
                        {"labels": labels, "value": value}
                        for labels, value in metric.samples()
                    ],
                }
        return out
