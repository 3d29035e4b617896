"""The replay's cost model, pinned by counting calls — not by timing.

One closed-loop replay of 16 sessions over 20 BD Insights profiles: per
simulated event the simulator walks the runnable set once and does O(1)
work around it, so everything below is counted per *run* or per
*release*, never per event; the telemetry build pays a ``FlightEvent``
only for what the ring retains.  Each guard failed before PR 15.
"""

import pytest

from repro.config import HostSpec
from repro.obs import recorder as recorder_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.serving import build_serving_run
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
    return driver._sim_config(True), queries, users


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
        gpu=True,
        degree=48,
        loops=1,
        think_seconds=0.0,
        recorder=recorder,
    )
    assert recorder.dropped > 4 * recorder.capacity
    assert len(built) == 0
    assert len(recorder.events()) == recorder.capacity
    snapshots = sum(len(s.events) for s in recorder.snapshots)
    assert len(built) <= recorder.capacity + snapshots
