"""Serving telemetry: exact phase attribution, session span trees,
serving metrics/gauges, sweep byte-stability and the compare gate."""

from __future__ import annotations

import json

import pytest

from repro.obs import serving
from repro.obs.baseline import BenchError, compare
from repro.obs.export import MetricsLog, prometheus_text
from repro.obs.profile import build_profile
from repro.sim import PhaseInterval, RequestTrace
from repro.workloads.driver import ConcurrentDriver, WorkloadDriver


@pytest.fixture(scope="module")
def driver(bd_catalog, bd_config):
    return WorkloadDriver(bd_catalog, bd_config)


@pytest.fixture(scope="module")
def concurrent(driver):
    from repro.obs.bench import workload_classes

    classes = workload_classes("bd_insights", driver)
    queries = [q for name in sorted(classes) for q in classes[name]]
    return ConcurrentDriver(driver, queries)


@pytest.fixture(scope="module")
def run(concurrent):
    """An 8-session closed-loop run with full telemetry."""
    return concurrent.run(sessions=8)


def synthetic_request(stages, waits=(), start=0.0, end=1.0):
    return RequestTrace(user_id="u", query_id="q", loop=0, index=0,
                        start=start, end=end, stages=tuple(stages),
                        waits=tuple(waits))


class TestRequestPhases:
    def test_exact_tiling_with_gap(self):
        request = synthetic_request([
            PhaseInterval("cpu", 0.0, 0.3),
            PhaseInterval("gpu", 0.5, 1.0, device_id=0),
        ])
        phases = serving.request_phases(request)
        assert phases == [("cpu", 0.0, 0.3), ("queue", 0.3, 0.5),
                          ("gpu", 0.5, 1.0)]
        assert sum(t1 - t0 for _, t0, t1 in phases) == pytest.approx(
            request.elapsed)

    def test_gpu_wins_overlap(self):
        request = synthetic_request([
            PhaseInterval("cpu", 0.0, 1.0),
            PhaseInterval("gpu", 0.4, 0.6, device_id=1),
        ])
        phases = serving.request_phases(request)
        assert phases == [("cpu", 0.0, 0.4), ("gpu", 0.4, 0.6),
                          ("cpu", 0.6, 1.0)]

    def test_adjacent_same_kind_merged(self):
        request = synthetic_request([
            PhaseInterval("cpu", 0.0, 0.5),
            PhaseInterval("cpu", 0.5, 1.0),
        ])
        assert serving.request_phases(request) == [("cpu", 0.0, 1.0)]

    def test_no_stages_is_all_queue(self):
        request = synthetic_request([])
        assert serving.request_phases(request) == [("queue", 0.0, 1.0)]

    def test_overlapping_stages_tile_by_every_endpoint(self):
        request = synthetic_request([
            PhaseInterval("cpu", 0.0, 0.6),
            PhaseInterval("cpu", 0.4, 0.8),
        ])
        assert serving.request_phases(request) == [
            ("cpu", 0.0, 0.8), ("queue", 0.8, 1.0)]

    def test_stage_past_the_request_is_clipped(self):
        request = synthetic_request([
            PhaseInterval("gpu", 0.5, 1.5, device_id=0),
        ])
        assert serving.request_phases(request) == [
            ("queue", 0.0, 0.5), ("gpu", 0.5, 1.0)]

    def test_queue_stage_and_empty_stage(self):
        request = synthetic_request([
            PhaseInterval("cpu", 0.0, 0.2),
            PhaseInterval("gpu", 0.2, 0.2, device_id=0),
            PhaseInterval("queue", 0.2, 0.7),
            PhaseInterval("cpu", 0.7, 1.0),
        ])
        assert serving.request_phases(request) == [
            ("cpu", 0.0, 0.2), ("queue", 0.2, 0.7), ("cpu", 0.7, 1.0)]


class TestServingRun:
    def test_every_request_has_a_span_tree(self, run, concurrent):
        roots = [s for s in run.tracer.spans
                 if s.name == "session.request"]
        assert len(roots) == run.requests == 8 * len(concurrent.queries)
        children = {s.name for s in run.tracer.spans
                    if s.parent_id is not None}
        assert {"session.admission", "session.execute",
                "session.respond"} <= children

    def test_phase_spans_tile_requests_exactly(self, run):
        """The tentpole invariant: attribution sums to total time."""
        by_parent: dict = {}
        for span in run.tracer.spans:
            if span.name in ("session.execute", "session.queue_wait"):
                by_parent.setdefault(span.parent_id, 0.0)
                by_parent[span.parent_id] += span.duration
        roots = [s for s in run.tracer.spans
                 if s.name == "session.request"]
        for root in roots:
            accounted = by_parent.get(span_id(root), 0.0)
            assert accounted == pytest.approx(root.duration, abs=1e-12)

    def test_explain_analyze_includes_queue_wait(self, run):
        """A queued request's EXPLAIN ANALYZE profile charges queue_wait
        and still sums to 100% of the request."""
        queued = [r for r in run.sim.requests if r.queue_wait > 0.0]
        assert queued, "8-way contention should queue at least one request"
        request = queued[0]
        spans = one_request_spans(run, request)
        profile = build_profile(spans)
        totals = profile.component_totals()
        assert totals.get("queue_wait", 0.0) > 0.0
        assert sum(totals.values()) == pytest.approx(request.elapsed)
        assert "queue" in profile.to_text()

    def test_unqueued_profile_text_has_no_queue_column(self, run):
        clean = [r for r in run.sim.requests if r.queue_wait == 0.0]
        assert clean
        profile = build_profile(one_request_spans(run, clean[0]))
        assert "queue" not in profile.to_text()

    def test_histograms_agree_with_requests(self, run, concurrent):
        assert run.hist.count == run.requests
        latency = run.registry.get("repro_request_latency_seconds")
        series = list(latency.samples())
        assert sum(state.count for _, state in series) == run.requests
        assert {labels["path"] for labels, _ in series} <= {"cpu", "gpu"}
        classes = {labels["query_class"] for labels, _ in series}
        assert classes == {q.category.value for q in concurrent.queries}

    def test_serving_metrics_present(self, run):
        text = prometheus_text(run.registry)
        assert "repro_queue_depth" in text
        assert "repro_session_active" in text
        assert "repro_requests_total" in text
        assert "repro_queue_wait_seconds_total" in text
        assert "repro_request_latency_seconds_bucket" in text

    def test_gauges_track_sim_highwater(self, run):
        queue = run.registry.get("repro_queue_depth")
        [(_, depth)] = list(queue.samples())
        assert depth == float(run.sim.max_queue_depth())
        active = run.registry.get("repro_session_active")
        [(_, sessions)] = list(active.samples())
        assert sessions == 8.0

    def test_metrics_jsonl_round_trip(self, run, tmp_path):
        """Satellite (a): serving gauges survive the JSONL export/restore
        cycle and re-export byte-identically."""
        path = str(tmp_path / "metrics.jsonl")
        written = MetricsLog(path).write(run.registry)
        assert written > 0
        restored = MetricsLog.restore(MetricsLog.read(path))
        assert prometheus_text(restored) == prometheus_text(run.registry)

    def test_deterministic(self, concurrent):
        again = concurrent.run(sessions=8)
        fresh_hist = again.hist
        assert fresh_hist.to_dict()  # non-empty
        assert fresh_hist.p99 == concurrent.run(sessions=8).hist.p99

    def test_concurrent_driver_is_one_closed_loop_group(self, run,
                                                        concurrent):
        from repro.workloads.query import SessionGroup

        group = SessionGroup("session", 8, concurrent.queries)
        again = concurrent.driver.closed_loop([group])
        assert again.sessions == run.sessions == 8
        assert repr(again.sim) == repr(run.sim)
        assert ([s.to_dict() for s in again.tracer.spans]
                == [s.to_dict() for s in run.tracer.spans])


class TestBuildServingRun:
    """``build_serving_run`` over a hand-made simulation result."""

    @staticmethod
    def result(requests, queue_depths=(), active=()):
        from repro.sim import SimulationResult

        return SimulationResult(
            makespan=max((r.end for r in requests), default=0.0),
            completions=[], device_memory_logs={},
            cpu_utilisation_samples=[], gpu_waits=0,
            requests=list(requests), queue_depth_log=list(queue_depths),
            active_sessions_log=list(active))

    @staticmethod
    def build(result, **kwargs):
        return serving.build_serving_run(
            result, {"q1": "simple", "q2": "complex"}, sessions=2,
            **kwargs)

    REQUESTS = (
        RequestTrace(user_id="u1", query_id="q2", loop=0, index=1,
                     start=0.1, end=0.9,
                     stages=(PhaseInterval("gpu", 0.3, 0.9, device_id=0),),
                     waits=(PhaseInterval("queue", 0.1, 0.3),)),
        RequestTrace(user_id="u0", query_id="q1", loop=0, index=0,
                     start=0.0, end=0.4,
                     stages=(PhaseInterval("cpu", 0.0, 0.4),)),
        RequestTrace(user_id="u0", query_id="q9", loop=0, index=1,
                     start=0.4, end=0.9,
                     stages=(PhaseInterval("cpu", 0.4, 0.9),)),
    )

    def test_roots_follow_completion_order(self):
        run = self.build(self.result(self.REQUESTS))
        roots = [s for s in run.tracer.spans if s.name == "session.request"]
        assert [(r.attributes["session"], r.attributes["query_id"])
                for r in roots] == [("u0", "q1"), ("u1", "q2"), ("u0", "q9")]
        assert [r.attributes["query_class"] for r in roots] == [
            "simple", "complex", "?"]
        assert [r.attributes["path"] for r in roots] == ["cpu", "gpu", "cpu"]

    def test_counters_and_histogram_sum_the_requests(self):
        run = self.build(self.result(self.REQUESTS))
        total = run.registry.get("repro_requests_total")
        counts = {(labels["query_class"], labels["path"]): value
                  for labels, value in total.samples()}
        assert counts == {("simple", "cpu"): 1.0, ("complex", "gpu"): 1.0,
                          ("?", "cpu"): 1.0}
        [(_, waited)] = list(
            run.registry.get("repro_queue_wait_seconds_total").samples())
        assert waited == pytest.approx(run.queue_wait_seconds())
        assert run.queue_wait_seconds() == pytest.approx(0.2)
        assert run.hist.count == 3
        assert run.offload_ratio() == pytest.approx(1 / 3)

    def test_gauges_hold_the_high_water_marks(self):
        run = self.build(self.result(
            self.REQUESTS, queue_depths=[(0.1, 1), (0.2, 3), (0.3, 0)],
            active=[(0.0, 1), (0.1, 2), (0.9, 0)]))
        [(_, depth)] = list(run.registry.get("repro_queue_depth").samples())
        [(_, active)] = list(
            run.registry.get("repro_session_active").samples())
        assert (depth, active) == (3.0, 2.0)

    def test_uses_the_given_tracer_and_registry(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracing import Tracer

        tracer, registry = Tracer(), MetricsRegistry()
        run = self.build(self.result(self.REQUESTS), tracer=tracer,
                         registry=registry)
        assert run.tracer is tracer and run.registry is registry
        assert registry.get("repro_requests_total") is not None

    def test_recorder_sees_the_replay(self):
        from repro.obs.recorder import FlightRecorder

        recorder = FlightRecorder(capacity=256)
        self.build(self.result(self.REQUESTS), recorder=recorder)
        names = [e.name for e in recorder.events()]
        assert names.count("session.request") == 3
        assert names.count("repro_requests_total") == 3
        assert len(recorder.snapshots) == 0

    def test_an_empty_run(self):
        run = self.build(self.result(()))
        assert run.requests == 0
        assert run.offload_ratio() == 0.0
        assert run.queue_wait_seconds() == 0.0
        assert run.throughput_per_hour() == 0.0
        assert run.tracer.spans == []


def span_id(span):
    return span.span_id


def one_request_spans(run, request):
    """The span tree of exactly one request (root + children)."""
    roots = [s for s in run.tracer.spans
             if s.name == "session.request"
             and s.attributes.get("session") == request.user_id
             and s.attributes.get("query_id") == request.query_id
             and s.attributes.get("loop") == request.loop
             and s.attributes.get("index") == request.index]
    assert len(roots) == 1
    root = roots[0]
    return [root] + [s for s in run.tracer.spans
                     if s.parent_id == root.span_id]


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self, bd_catalog, bd_config):
        result, runs = serving.run_sweep(
            bd_catalog, bd_config, scale=0.02, seed=11,
            classes=["complex"], session_counts=(1, 4))
        return result, runs

    def test_points_and_shape(self, sweep):
        result, runs = sweep
        assert sorted(result.points) == [1, 4]
        p1, p4 = result.points[1], result.points[4]
        assert p4.requests == 4 * p1.requests
        assert p4.p99_ms >= p1.p99_ms
        assert runs[4].sessions == 4

    def test_json_byte_stable(self, sweep, bd_catalog, bd_config):
        result, _ = sweep
        again, _ = serving.run_sweep(
            bd_catalog, bd_config, scale=0.02, seed=11,
            classes=["complex"], session_counts=(1, 4))
        assert again.to_json() == result.to_json()
        assert result.to_json().endswith("\n")

    def test_write_and_load(self, sweep, tmp_path):
        result, _ = sweep
        path = result.write(str(tmp_path / "BENCH_serving_sweep.json"))
        loaded = serving.SweepResult.load(path)
        assert loaded == json.loads(result.to_json())

    def test_load_rejects_missing_and_malformed(self, tmp_path):
        with pytest.raises(BenchError, match="no baseline"):
            serving.SweepResult.load(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": 99, "kind": "bench"}')
        with pytest.raises(BenchError, match="not a serving"):
            serving.SweepResult.load(str(bad))

    def test_self_compare_passes(self, sweep):
        result, _ = sweep
        comparison = compare(
            result, json.loads(result.to_json()))
        assert comparison.ok, comparison.failures

    def test_slowdown_trips_gate_both_ways(self, sweep, bd_catalog,
                                           bd_config):
        result, _ = sweep
        baseline = json.loads(result.to_json())
        slowed, _ = serving.run_sweep(
            bd_catalog, bd_config, scale=0.02, seed=11,
            classes=["complex"], session_counts=(1, 4), slowdown=1.5)
        comparison = compare(slowed, baseline)
        assert not comparison.ok
        assert any("regressed" in f for f in comparison.failures)
        faster, _ = serving.run_sweep(
            bd_catalog, bd_config, scale=0.02, seed=11,
            classes=["complex"], session_counts=(1, 4), slowdown=0.5)
        comparison = compare(faster, baseline)
        assert not comparison.ok
        assert any("improved" in f and "--update" in f
                   for f in comparison.failures)

    def test_config_and_ladder_mismatch_fail(self, sweep):
        result, _ = sweep
        baseline = json.loads(result.to_json())
        baseline["degree"] = 16
        comparison = compare(result, baseline)
        assert any("config mismatch" in f for f in comparison.failures)
        baseline = json.loads(result.to_json())
        del baseline["points"]["4"]
        comparison = compare(result, baseline)
        assert any("session ladder" in f for f in comparison.failures)

    def test_identity_mismatch_fails(self, sweep):
        result, _ = sweep
        baseline = json.loads(result.to_json())
        baseline["loops"] = 2
        comparison = compare(result, baseline)
        assert not comparison.ok
        assert any("loops" in f for f in comparison.failures)

    def test_row_warnings_explain_without_failing(self):
        base = {"max_queue_depth": 2, "offload_ratio": 0.75}
        warn = serving.SweepResult.row_warnings
        assert warn("8 sessions", dict(base), base, 10.0) == []
        assert warn("8 sessions",
                    {"max_queue_depth": 5, "offload_ratio": 0.5},
                    base, 10.0) == [
            "8 sessions: max queue depth 2 -> 5",
            "8 sessions: offload ratio dropped 0.750 -> 0.500"]
        assert warn("8 sessions",
                    {"max_queue_depth": 2, "offload_ratio": 0.9},
                    base, 10.0) == []

    def test_text_table_has_one_row_per_point(self, sweep):
        result, _ = sweep
        lines = result.to_text().splitlines()
        assert lines[0].split()[:2] == ["sessions", "requests"]
        assert set(lines[1]) == {"-"}
        assert [int(line.split()[0]) for line in lines[2:]] == [1, 4]

    def test_unknown_class_rejected(self, bd_catalog, bd_config):
        with pytest.raises(BenchError, match="unknown class"):
            serving.run_sweep(bd_catalog, bd_config, scale=0.02, seed=11,
                              classes=["nope"], session_counts=(1,))
