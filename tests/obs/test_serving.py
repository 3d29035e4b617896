"""Serving telemetry: exact phase attribution, session span trees,
serving metrics/gauges, sweep byte-stability and the compare gate."""

from __future__ import annotations

import json

import pytest

from repro.obs import serving
from repro.obs.baseline import BenchError, compare
from repro.obs.export import MetricsLog, prometheus_text
from repro.obs.profile import build_profile
from repro.obs.slo import SLObjective
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
    return ConcurrentDriver(
        driver, queries,
        slos=[SLObjective("latency", objective=0.99,
                          latency_threshold=0.4)])


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

    def test_histograms_agree_with_requests(self, run):
        assert run.hist.count == run.requests
        assert sum(h.count for h in run.hist_by_class.values()) \
            == run.requests
        assert sum(h.count for h in run.hist_by_path.values()) \
            == run.requests
        assert set(run.hist_by_path) <= {"cpu", "gpu"}

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

    def test_snapshot_shape(self, run):
        snap = run.snapshot()
        assert snap["sessions"] == 8
        assert snap["completed"] + snap["in_flight"] <= run.requests
        assert snap["classes"]
        assert snap["slos"][0]["slo"] == "latency"
        rendered = serving.render_top(snap)
        assert "repro top" in rendered
        assert "sessions: " in rendered
        assert "-- SLOs --" in rendered

    def test_deterministic(self, concurrent):
        again = concurrent.run(sessions=8)
        fresh_hist = again.hist
        assert fresh_hist.to_dict()  # non-empty
        assert fresh_hist.p99 == concurrent.run(sessions=8).hist.p99


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

    def test_unknown_class_rejected(self, bd_catalog, bd_config):
        with pytest.raises(BenchError, match="unknown class"):
            serving.run_sweep(bd_catalog, bd_config, scale=0.02, seed=11,
                              classes=["nope"], session_counts=(1,))


class TestTopInterconnectSection:
    def test_render_top_shows_per_link_utilization(self, run):
        snap = run.snapshot()
        stats = {
            "interconnect": {
                "nvlink": {"bytes_total": 450000,
                           "busy_seconds": 1.78125e-05,
                           "stall_seconds": 0.0},
                "pcie0": {"bytes_total": 149640,
                          "busy_seconds": 4.25e-05,
                          "stall_seconds": 1.5e-06},
            },
            "devices": [{"device_id": 0, "memory_reserved": 10,
                         "memory_peak_reserved": 20,
                         "memory_capacity": 100}],
        }
        rendered = serving.render_top(snap, engine_stats=stats)
        assert "-- interconnect --" in rendered
        assert "nvlink" in rendered and "450000 B" in rendered
        assert "busy 0.000018s" in rendered
        # Stall only renders when contention actually cost time.
        assert "stall 0.000002s" in rendered
        nvlink_line = [line for line in rendered.splitlines()
                       if line.startswith("nvlink")][0]
        assert "stall" not in nvlink_line
        assert "GPU 0: reserved 10 B (peak 20 B) of 100 B" in rendered

    def test_render_top_without_interconnect_omits_section(self, run):
        rendered = serving.render_top(run.snapshot(),
                                      engine_stats={"interconnect": {}})
        assert "-- interconnect --" not in rendered
