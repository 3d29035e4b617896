"""The replay's cost model, pinned by counting calls — not by timing.

One closed-loop replay of 16 sessions over 20 BD Insights profiles: per
simulated event the simulator walks the runnable set once and does O(1)
work around it, so everything below is counted per *run*, per *series*
or per *release*, never per event; the telemetry build validates each
label set once and copies attributes, and pays a ``FlightEvent``, only
for what the ring retains.
"""

import pytest

from repro.config import HostSpec
from repro.obs import metrics as metrics_module
from repro.obs import recorder as recorder_module
from repro.obs import tracing as tracing_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import DROPPED_METRIC, FlightRecorder
from repro.obs.serving import build_serving_run
from repro.obs.tracing import Tracer
from repro.sim import UserScript, WorkloadSimulator
from repro.sim.clock import SimClock
from repro.sim.resources import GpuDeviceState
from repro.workloads.bdinsights import queries_by_category
from repro.workloads.driver import WorkloadDriver
from repro.workloads.query import QueryCategory

SESSIONS = 16


@pytest.fixture(scope="module")
def replay(bd_catalog, bd_config):
    """(simulator config, queries, 16 scripts over their 20 profiles)."""
    driver = WorkloadDriver(bd_catalog, bd_config)
    queries = (
        queries_by_category(QueryCategory.COMPLEX)
        + queries_by_category(QueryCategory.INTERMEDIATE)[:5]
        + queries_by_category(QueryCategory.SIMPLE)[:10]
    )
    profiles = [driver.profile(q, gpu=True) for q in queries]
    users = [
        UserScript(f"session{i}", list(profiles)) for i in range(SESSIONS)
    ]
    return driver.config, queries, users


def counting(monkeypatch, owner, name):
    """Patch ``owner.name`` to count its calls; returns the call list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_capacity_comes_from_a_table_not_from_every_event(
    monkeypatch, replay
):
    config, queries, users = replay
    calls = counting(monkeypatch, HostSpec, "effective_capacity")
    result = WorkloadSimulator(config).run(users)
    events = len(result.cpu_utilisation_samples)
    assert events > 1000
    # One per table entry; the stage templates read the table too.
    assert len(calls) == config.host.hardware_threads + 1


def test_stages_are_derived_once_per_distinct_profile(monkeypatch, replay):
    config, queries, users = replay
    calls = counting(monkeypatch, WorkloadSimulator, "_stages_of")
    result = WorkloadSimulator(config).run(users)
    assert len(result.requests) == SESSIONS * len(queries)
    assert len(calls) == len(queries)


def test_admission_queue_is_drained_only_after_a_release(
    monkeypatch, replay
):
    config, queries, users = replay
    released = []           # device releases since the clock last moved
    draining = []
    picks_while_draining = []

    advance = SimClock.advance
    release = GpuDeviceState.release
    drain = WorkloadSimulator._drain_waiters
    pick = WorkloadSimulator._pick_device

    def on_advance(self, delta):
        released.clear()
        return advance(self, delta)

    def on_release(self, task_id, now):
        released.append(task_id)
        return release(self, task_id, now)

    def on_drain(self, *args):
        draining.append(True)
        try:
            return drain(self, *args)
        finally:
            draining.pop()

    def on_pick(self, memory_bytes):
        if draining:
            picks_while_draining.append(bool(released))
        return pick(self, memory_bytes)

    monkeypatch.setattr(SimClock, "advance", on_advance)
    monkeypatch.setattr(GpuDeviceState, "release", on_release)
    monkeypatch.setattr(WorkloadSimulator, "_drain_waiters", on_drain)
    monkeypatch.setattr(WorkloadSimulator, "_pick_device", on_pick)
    result = WorkloadSimulator(config).run(users)
    assert result.gpu_waits > 0, "the scenario must queue for admission"
    assert picks_while_draining, "and admit from the queue"
    assert all(picks_while_draining)


def test_flight_events_are_built_for_what_the_ring_retains(
    monkeypatch, replay
):
    config, queries, users = replay
    result = WorkloadSimulator(config).run(users)
    built = counting(monkeypatch, recorder_module, "FlightEvent")
    recorder = recorder_module.FlightRecorder(
        capacity=256, metrics=MetricsRegistry()
    )
    build_serving_run(
        result,
        {q.query_id: q.category.value for q in queries},
        sessions=SESSIONS,
        recorder=recorder,
    )
    assert recorder.dropped > 4 * recorder.capacity
    assert len(built) == 0
    assert len(recorder.events()) == recorder.capacity
    snapshots = sum(len(s.events) for s in recorder.snapshots)
    assert len(built) <= recorder.capacity + snapshots


def serve(result, queries, **telemetry):
    """``build_serving_run`` over the module's replay."""
    return build_serving_run(
        result,
        {q.query_id: q.category.value for q in queries},
        sessions=SESSIONS,
        **telemetry,
    )


def test_labels_are_validated_once_per_series(monkeypatch, replay):
    config, queries, users = replay
    result = WorkloadSimulator(config).run(users)
    recorder = FlightRecorder(capacity=256, metrics=MetricsRegistry())
    calls = counting(monkeypatch, metrics_module, "_check_labels")
    run = serve(result, queries, recorder=recorder)
    series = sum(len(list(m.samples())) for m in run.registry.collect())
    assert len(result.requests) > 10 * series
    assert len(calls) <= series


def test_attributes_are_copied_for_what_the_ring_keeps(monkeypatch, replay):
    config, queries, users = replay
    result = WorkloadSimulator(config).run(users)
    copies = []

    class Attributes(dict):
        # Overriding __iter__ takes dict(...) and {**...} off the C fast
        # path, so every copy asks keys().
        def __iter__(self):
            return super().__iter__()

        def keys(self):
            copies.append(True)
            return super().keys()

    class CountedSpan(tracing_module.Span):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.attributes = Attributes(self.attributes)

    monkeypatch.setattr(tracing_module, "Span", CountedSpan)
    recorder = FlightRecorder(capacity=256, metrics=MetricsRegistry())
    serve(result, queries, recorder=recorder)
    assert recorder.dropped > 4 * recorder.capacity
    assert 0 < len(copies) <= recorder.capacity


@pytest.mark.parametrize("capacity", [1, 7, 256, 10**6])
def test_a_batched_replay_equals_one_record_at_a_time(replay, capacity):
    """``build_serving_run(recorder=...)`` feeds the ring once at the
    end; a recorder that listens to the replay's tracer and registry is
    fed record by record.  Both start with a part-full ring."""
    config, queries, users = replay
    result = WorkloadSimulator(config).run(users)

    def prefilled():
        recorder = FlightRecorder(capacity=capacity, metrics=MetricsRegistry())
        for n in range(5):
            recorder.record_dispatch(n % 2 == 0, n % 2, 1024 * n)
        return recorder

    def observable(recorder):
        dropped = recorder.metrics.get(DROPPED_METRIC)
        return (recorder.events(), len(recorder), recorder._seq,
                recorder.dropped, dropped.value, list(dropped.samples()))

    single, batched = prefilled(), prefilled()
    tracer, registry = Tracer(), MetricsRegistry()
    single.attach_tracer(tracer)
    single.attach_registry(registry)
    serve(result, queries, tracer=tracer, registry=registry)
    serve(result, queries, recorder=batched)
    assert single._seq > 1000
    assert observable(batched) == observable(single)
