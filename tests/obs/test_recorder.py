"""The flight recorder: bounded ring, deterministic ordering, lossless
below capacity, auto-snapshots on incidents, and zero effect on
simulated time."""

import json

import pytest

from repro.config import GpuSpec
from repro.core.scheduler import MultiGpuScheduler
from repro.gpu.device import make_devices
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import (
    DROPPED_METRIC,
    FlightEvent,
    FlightRecorder,
    FlightSnapshot,
)
from repro.obs.tracing import Tracer
from repro.sim.clock import SimClock


@pytest.fixture()
def rig():
    """A tracer + registry pair with a recorder attached to both."""
    clock = SimClock()
    tracer = Tracer(clock)
    registry = MetricsRegistry()
    recorder = FlightRecorder(capacity=64, clock=clock, metrics=registry)
    recorder.attach_tracer(tracer)
    recorder.attach_registry(registry)
    return clock, tracer, registry, recorder


def attached_scheduler(recorder):
    """A two-device scheduler whose breakers feed ``recorder``."""
    scheduler = MultiGpuScheduler(make_devices([GpuSpec(), GpuSpec()]))
    recorder.attach_scheduler(scheduler)
    return scheduler


def trip(scheduler, device_id=0):
    """Open ``device_id``'s breaker through the scheduler's failure feed."""
    while not scheduler.breakers[device_id].quarantined:
        lease = scheduler.try_acquire(1, prefer_device=device_id)
        scheduler.record_failure(lease)
        scheduler.release(lease)


class TestRingInvariants:
    def test_lossless_below_capacity(self, rig):
        clock, tracer, _registry, recorder = rig
        for i in range(50):
            with tracer.span(f"work.{i}"):
                clock.advance(1e-3)
        assert recorder.dropped == 0
        assert len(recorder.events()) == 50
        names = [e.name for e in recorder.events()]
        assert names == [f"work.{i}" for i in range(50)]

    def test_ring_bounded_and_drop_counted(self, rig):
        clock, tracer, registry, recorder = rig
        for i in range(100):
            with tracer.span(f"work.{i}"):
                clock.advance(1e-3)
        assert len(recorder.events()) == 64
        assert recorder.dropped == 36
        # The oldest events were the ones evicted.
        assert recorder.events()[0].name == "work.36"
        from repro.obs.export import prometheus_text

        assert f"{DROPPED_METRIC} 36" in prometheus_text(registry)

    def test_events_ordered_by_sim_time_then_seq(self, rig):
        clock, tracer, _registry, recorder = rig
        # Nested spans complete inner-first but at identical end times;
        # instants land mid-flight.  The view must still be sorted.
        with tracer.span("outer"):
            clock.advance(2e-3)
            tracer.instant("mark")
            with tracer.span("inner"):
                clock.advance(1e-3)
        events = recorder.events()
        keys = [(e.time, e.seq) for e in events]
        assert keys == sorted(keys)
        assert [e.name for e in events] == ["mark", "inner", "outer"]

    def test_recorder_never_advances_sim_time(self, rig):
        clock, tracer, _registry, _recorder = rig
        with tracer.span("work"):
            clock.advance(5e-3)
        assert clock.now == pytest.approx(5e-3)

    def test_metric_deltas_recorded_with_labels(self, rig):
        clock, _tracer, registry, recorder = rig
        counter = registry.counter("repro_test_total", "t", ["site"])
        clock.advance(1e-3)
        counter.labels(site="launch").inc(3)
        events = [e for e in recorder.events() if e.kind == "metric"]
        assert len(events) == 1
        assert events[0].name == "repro_test_total"
        assert events[0].attributes == {"site": "launch", "amount": 3}
        assert events[0].time == pytest.approx(1e-3)

    def test_dropped_metric_does_not_feed_back(self, rig):
        _clock, _tracer, registry, recorder = rig
        # Bumping the recorder's own drop counter through the registry
        # must not re-enter the ring (it would loop forever on a full
        # ring otherwise).
        registry.counter(DROPPED_METRIC, "d").inc()
        assert [e for e in recorder.events() if e.name == DROPPED_METRIC] \
            == []


class TestSnapshots:
    def test_manual_snapshot_and_jsonl_round_trip(self, rig, tmp_path):
        clock, tracer, _registry, recorder = rig
        with tracer.span("q", query_id="Q1"):
            clock.advance(1e-3)
        snap = recorder.snapshot(trigger="manual")
        path = str(tmp_path / "snap.jsonl")
        snap.write_jsonl(path)
        loaded = FlightSnapshot.load(path)
        assert loaded.trigger == snap.trigger
        assert loaded.dropped == snap.dropped
        assert loaded.capacity == snap.capacity
        assert [e.to_dict() for e in loaded.events] \
            == [e.to_dict() for e in snap.events]

    def test_auto_snapshot_on_breaker_trip(self, rig):
        clock, tracer, _registry, recorder = rig
        scheduler = attached_scheduler(recorder)
        with tracer.span("healthy"):
            clock.advance(1e-3)
        assert len(recorder.snapshots) == 0
        trip(scheduler)
        assert len(recorder.snapshots) == 1
        assert recorder.snapshots[0].trigger == "breaker.trip"
        assert any(e.name == "breaker.transition"
                   and e.attributes["to"] == "open"
                   for e in recorder.snapshots[0].events)

    def test_auto_snapshot_writes_files_when_dump_dir_set(
            self, rig, tmp_path):
        _clock, _tracer, _registry, recorder = rig
        recorder.dump_dir = str(tmp_path)
        trip(attached_scheduler(recorder))
        jsonl = list(tmp_path.glob("flight_*_breaker_trip.jsonl"))
        html = list(tmp_path.glob("flight_*_breaker_trip.html"))
        assert len(jsonl) == 1 and len(html) == 1
        assert FlightSnapshot.load(str(jsonl[0])).trigger == "breaker.trip"
        assert "<html" in html[0].read_text()

    def test_only_a_breaker_going_open_snapshots(self, rig):
        """No span, instant, record or metric triggers a snapshot, the
        retired ``slo.alert`` included; one OPEN edge takes exactly one,
        and the breaker's recovery edges take none."""
        clock, tracer, registry, recorder = rig
        names = ("slo.alert", "breaker.trip", "breaker.transition",
                 "fault.injected", "fault.fallback", "scheduler.quarantine",
                 "scheduler.dispatch", "cache.invalidate", "gpu.launch",
                 "offload.decision", "session.request", "query")
        for name in names:
            with tracer.span(name):
                clock.advance(1e-3)
            tracer.instant(name)
            tracer.record(name, clock.now, clock.now)
            registry.counter("repro_test_total", "t").inc()
        assert len(recorder.snapshots) == 0

        scheduler = attached_scheduler(recorder)
        trip(scheduler)
        assert [s.trigger for s in recorder.snapshots] == ["breaker.trip"]
        breaker = scheduler.breakers[0]
        while not breaker.tick():           # OPEN -> HALF_OPEN
            pass
        breaker.record_success()            # HALF_OPEN -> CLOSED
        assert breaker.state.value == "closed"
        assert len(recorder.snapshots) == 1

    def test_snapshot_html_is_self_contained(self, rig):
        clock, tracer, _registry, recorder = rig
        with tracer.span("q"):
            clock.advance(1e-3)
        page = recorder.snapshot().to_html()
        assert page.startswith("<!DOCTYPE html>")
        assert "q" in page

    def test_event_round_trips_through_dict(self):
        event = FlightEvent(time=0.5, seq=3, kind="span", name="x",
                            attributes={"a": 1})
        assert FlightEvent.from_dict(event.to_dict()) == event


class TestEngineIntegration:
    def test_engine_recorder_sees_dispatch_and_spans(self, gpu_engine):
        gpu_engine.execute_sql(
            "SELECT s_store, SUM(s_paid) AS paid FROM sales "
            "GROUP BY s_store", query_id="rec-1")
        kinds = {e.kind for e in gpu_engine.recorder.events()}
        assert "span" in kinds
        assert "metric" in kinds
        assert "dispatch" in kinds
        grants = [e for e in gpu_engine.recorder.events()
                  if e.kind == "dispatch"]
        assert all("granted" in e.attributes for e in grants)

    def test_recorder_does_not_change_simulated_latency(
            self, small_catalog):
        import dataclasses

        from repro.config import paper_testbed
        from repro.core import GpuAcceleratedEngine

        config = paper_testbed()
        thresholds = dataclasses.replace(config.thresholds,
                                         t1_min_rows=5_000,
                                         sort_min_rows=5_000)
        config = dataclasses.replace(config, thresholds=thresholds)
        sql = ("SELECT s_store, SUM(s_paid) AS paid FROM sales "
               "GROUP BY s_store")
        wired = GpuAcceleratedEngine(small_catalog, config=config)
        bare = GpuAcceleratedEngine(small_catalog, config=config)
        bare.recorder.clear()
        bare.tracer.listeners.clear()
        bare.registry.listeners.clear()
        assert wired.execute_sql(sql, query_id="t").elapsed_ms \
            == bare.execute_sql(sql, query_id="t").elapsed_ms

    def test_dump_flight_record(self, gpu_engine, tmp_path):
        gpu_engine.execute_sql(
            "SELECT s_store, COUNT(*) AS c FROM sales GROUP BY s_store",
            query_id="rec-2")
        out = gpu_engine.dump_flight_record(str(tmp_path))
        assert out["events"] > 0
        header = json.loads(
            open(out["jsonl"]).readline())
        assert header["kind"] == "flight_header"
        assert open(out["html"]).read().startswith("<!DOCTYPE html>")

    def test_capacity_comes_from_config(self, small_catalog):
        import dataclasses

        from repro.config import paper_testbed
        from repro.core import GpuAcceleratedEngine

        config = dataclasses.replace(paper_testbed(), recorder_capacity=32)
        engine = GpuAcceleratedEngine(small_catalog, config=config)
        assert engine.recorder.capacity == 32


class TestFeeds:
    """What each transport puts in the ring, and when it stamps it."""

    def test_capacity_below_one_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_kind_is_the_transport(self, rig):
        clock, tracer, _registry, recorder = rig
        with tracer.span("a"):
            clock.advance(1e-3)
        tracer.instant("b")
        tracer.record("c", 0.0, clock.now)
        assert [(e.kind, e.name) for e in recorder.events()] == [
            ("span", "a"), ("instant", "b"), ("record", "c")]

    def test_record_stamped_at_its_end_with_duration(self, rig):
        _clock, tracer, _registry, recorder = rig
        tracer.record("replayed", 0.001, 0.004, session="u1")
        [event] = recorder.events()
        assert event.time == pytest.approx(0.004)
        assert event.attributes["session"] == "u1"
        assert event.attributes["duration"] == pytest.approx(0.003)

    def test_instant_stamped_when_it_happens(self, rig):
        clock, tracer, _registry, recorder = rig
        with tracer.span("outer"):
            clock.advance(2e-3)
            tracer.instant("mark", site="launch")
            clock.advance(1e-3)
        mark = next(e for e in recorder.events() if e.name == "mark")
        assert mark.time == pytest.approx(2e-3)
        assert mark.attributes == {"site": "launch", "duration": 0.0}

    def test_dispatch_grant_and_rejection_recorded(self, rig):
        _clock, _tracer, _registry, recorder = rig
        scheduler = attached_scheduler(recorder)
        lease = scheduler.try_acquire(1024, tag="groupby")
        assert scheduler.try_acquire(1 << 62, tag="huge") is None
        scheduler.release(lease)
        grant, reject = [e for e in recorder.events()
                         if e.kind == "dispatch"]
        assert grant.attributes == {
            "granted": True, "device_id": lease.device.device_id,
            "memory_bytes": 1024, "tag": "groupby", "outstanding": 1}
        assert reject.attributes == {
            "granted": False, "device_id": None, "memory_bytes": 1 << 62,
            "tag": "huge", "outstanding": 0}

    def test_breaker_edge_names_its_device(self, rig):
        _clock, _tracer, _registry, recorder = rig
        trip(attached_scheduler(recorder), device_id=1)
        edges = [e.attributes for e in recorder.events()
                 if e.name == "breaker.transition"]
        assert edges == [{"device_id": 1, "from": "closed", "to": "open"}]

    def test_without_a_registry_drops_are_still_counted(self):
        clock = SimClock()
        tracer = Tracer(clock)
        recorder = FlightRecorder(capacity=2, clock=clock)
        recorder.attach_tracer(tracer)
        for i in range(5):
            tracer.instant(f"mark.{i}")
        assert recorder.dropped == 3
        assert [e.name for e in recorder.events()] == ["mark.3", "mark.4"]

    def test_drop_counter_exports_while_zero(self, rig):
        from repro.obs.export import prometheus_text

        _clock, _tracer, registry, _recorder = rig
        assert f"{DROPPED_METRIC} 0" in prometheus_text(registry)

    def test_reads_between_feeds_keep_every_event_in_order(self, rig):
        clock, tracer, _registry, recorder = rig
        tracer.instant("first")
        assert [e.name for e in recorder.events()] == ["first"]
        clock.advance(1e-3)
        tracer.instant("second")
        tracer.instant("third")
        events = recorder.events()
        assert [e.name for e in events] == ["first", "second", "third"]
        assert all(isinstance(e, FlightEvent) for e in events)
        assert [e.seq for e in events] == [0, 1, 2]


class TestSnapshotHistory:
    def test_snapshot_header_matches_the_recorder(self, rig):
        clock, tracer, _registry, recorder = rig
        for i in range(70):
            tracer.instant(f"mark.{i}")
        clock.advance(0.25)
        snap = recorder.snapshot(trigger="operator")
        assert (snap.trigger, snap.time, snap.dropped, snap.capacity) == (
            "operator", pytest.approx(0.25), 6, 64)
        assert len(snap.events) == 64

    def test_history_keeps_the_newest_snapshots(self):
        recorder = FlightRecorder(capacity=4, max_snapshots=2)
        for trigger in ("one", "two", "three"):
            recorder.snapshot(trigger=trigger)
        assert [s.trigger for s in recorder.snapshots] == ["two", "three"]

    def test_clear_empties_the_ring_but_keeps_snapshots(self, rig):
        _clock, tracer, _registry, recorder = rig
        tracer.instant("before")
        snap = recorder.snapshot()
        recorder.clear()
        assert len(recorder) == 0 and recorder.events() == []
        assert list(recorder.snapshots) == [snap]
        assert [e.name for e in snap.events] == ["before"]

    def test_each_trip_dumps_its_own_numbered_files(self, rig, tmp_path):
        _clock, _tracer, _registry, recorder = rig
        recorder.dump_dir = str(tmp_path)
        scheduler = attached_scheduler(recorder)
        trip(scheduler, device_id=0)
        trip(scheduler, device_id=1)
        assert sorted(p.name for p in tmp_path.glob("flight_*.jsonl")) == [
            "flight_001_breaker_trip.jsonl", "flight_002_breaker_trip.jsonl"]
        second = FlightSnapshot.load(
            str(tmp_path / "flight_002_breaker_trip.jsonl"))
        opened = [e.attributes["device_id"] for e in second.events
                  if e.name == "breaker.transition"]
        assert opened == [0, 1]

    def test_from_jsonl_rejects_empty_and_headerless_text(self):
        with pytest.raises(ValueError, match="empty"):
            FlightSnapshot.from_jsonl("\n \n")
        line = json.dumps(FlightEvent(0.0, 0, "span", "q").to_dict())
        with pytest.raises(ValueError, match="flight_header"):
            FlightSnapshot.from_jsonl(line + "\n")

    def test_html_has_a_lane_per_kind_present_and_escapes(self, rig):
        _clock, tracer, _registry, recorder = rig
        tracer.instant("<mark>")
        page = recorder.snapshot(trigger="a<b").to_html()
        assert '<span class="label">instant</span>' in page
        assert '<span class="label">span</span>' not in page
        assert "a&lt;b" in page and "a<b" not in page
        assert "&lt;mark&gt;" in page
