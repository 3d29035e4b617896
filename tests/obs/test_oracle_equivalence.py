"""Telemetry at ring cost ≡ the eager telemetry, field for field.

The recorder that builds a ``FlightEvent`` only for what a read still
finds in the ring must show the same events, ``dropped`` count,
snapshots and eviction-counter sample as the recorder that built one per
event fed; the one-pass ``request_phases`` must return the segments of
the general tiling.  Both oracles live in ``tests/obs/oracles.py``.
"""

from hypothesis import given, settings, strategies as st

from repro.obs import serving
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import DROPPED_METRIC, FlightRecorder
from repro.obs.tracing import Tracer
from repro.sim import (
    PhaseInterval,
    RequestTrace,
    UserScript,
    WorkloadSimulator,
)
from repro.sim.clock import SimClock
from repro.workloads.bdinsights import bd_insights_queries
from repro.workloads.driver import WorkloadDriver

from tests.obs.oracles import EagerFlightRecorder, tile_phases


def recorder_pair(capacity, clock):
    """(deferred, eager), each with a registry of its own for its counter."""
    return tuple(
        cls(capacity=capacity, clock=clock, metrics=MetricsRegistry())
        for cls in (FlightRecorder, EagerFlightRecorder)
    )


def observable(recorder):
    """Everything a reader can see of a recorder."""
    return (
        recorder.events(),
        len(recorder),
        recorder.dropped,
        list(recorder.snapshots),
        recorder.metrics.get(DROPPED_METRIC).value,
        list(recorder.metrics.get(DROPPED_METRIC).samples()),
    )


# One feed or read; the integer picks names, amounts and time steps.
operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["span", "instant", "record", "metric", "dispatch",
             "events", "snapshot", "clear"]
            + ["span", "record", "metric"] * 3
        ),
        st.integers(0, 5),
    ),
    max_size=120,
)


class TestDeferredRecorder:
    @settings(max_examples=150, deadline=None)
    @given(capacity=st.sampled_from([1, 3, 8, 64]), ops=operations)
    def test_any_feed_and_read_sequence(self, capacity, ops):
        clock = SimClock()
        tracer = Tracer(clock)
        registry = MetricsRegistry()
        pair = recorder_pair(capacity, clock)
        for recorder in pair:
            recorder.attach_tracer(tracer)
            recorder.attach_registry(registry)
        counter = registry.counter("repro_test_total", "t", ("site",))
        for op, n in ops:
            clock.advance(n * 1e-3)
            if op == "span":
                with tracer.span(f"work.{n}", rows=n) as span:
                    clock.advance(1e-3)
                span.attributes["late"] = n     # after emission: unseen
            elif op == "instant":
                tracer.instant(f"mark.{n}", n=n)
            elif op == "record":
                tracer.record(f"replay.{n}", clock.now - n * 1e-3,
                              clock.now, session=f"s{n}")
            elif op == "metric":
                counter.labels(site=f"site{n % 2}").inc(n)
            elif op == "dispatch":
                for recorder in pair:
                    recorder.record_dispatch(n % 2 == 0, n, 1024 * n)
            elif op == "events":
                assert pair[0].events() == pair[1].events()
            elif op == "snapshot":
                for recorder in pair:
                    recorder.snapshot("manual")
            else:
                for recorder in pair:
                    recorder.clear()
        assert observable(pair[0]) == observable(pair[1])

    def test_after_a_replay_that_overflows_the_ring(self, bd_catalog,
                                                     bd_config):
        """64 sessions' telemetry through a ring it overflows many times,
        with snapshots taken mid-stream."""
        driver = WorkloadDriver(bd_catalog, bd_config)
        queries = bd_insights_queries()[::5]
        profiles = [driver.profile(q, gpu=True) for q in queries]
        users = [UserScript(f"session{i}", list(profiles)) for i in range(64)]
        result = WorkloadSimulator(driver.config).run(users)
        clock = SimClock()
        tracer = Tracer()
        registry = MetricsRegistry()
        pair = recorder_pair(512, clock)
        for recorder in pair:
            recorder.attach_tracer(tracer)
            recorder.attach_registry(registry)

        def snapshot_every_1000th(flavor, span):
            if len(tracer.spans) % 1000 == 0:
                for recorder in pair:
                    recorder.snapshot("manual")

        tracer.listeners.append(snapshot_every_1000th)
        serving.build_serving_run(
            result, {q.query_id: q.category.value for q in queries},
            sessions=64, tracer=tracer, registry=registry)
        assert pair[1].dropped > 10 * pair[1].capacity
        assert pair[1].snapshots
        assert observable(pair[0]) == observable(pair[1])


# Endpoints on a coarse grid: touching, overlapping, zero-length and
# out-of-request stages all occur.
grid = st.integers(-2, 12).map(lambda n: n / 8)
stage = st.builds(
    PhaseInterval,
    kind=st.sampled_from(["cpu", "cpu", "gpu", "queue", "other"]),
    start=grid,
    end=grid,
    device_id=st.integers(-1, 1),
)


class TestRequestPhases:
    @settings(max_examples=500, deadline=None)
    @given(stages=st.lists(stage, max_size=6), start=grid, end=grid,
           ordered=st.booleans())
    def test_one_pass_equals_the_general_tiling(self, stages, start, end,
                                                ordered):
        if ordered:
            # The simulator's common shape: each stage starts at or after
            # the previous one's end.
            stages = sorted(stages, key=lambda s: (s.start, s.end))
            clipped, cursor = [], start
            for s in stages:
                s = PhaseInterval(s.kind, max(s.start, cursor),
                                  max(s.end, cursor), s.device_id)
                clipped.append(s)
                cursor = s.end
            stages = clipped
        request = RequestTrace(user_id="u", query_id="q", loop=0, index=0,
                               start=start, end=end, stages=tuple(stages))
        assert serving.request_phases(request) == tile_phases(request)
