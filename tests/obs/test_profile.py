"""The EXPLAIN ANALYZE profiler: attribution must be exact, the decision
sections must reflect what the engine actually did, and every rendering
must be deterministic."""

import json
from pathlib import Path

import pytest

from repro.core.accelerator import GpuAcceleratedEngine
from repro.obs.profile import COMPONENTS, ProfileError, build_profile
from repro.workloads.bdinsights import queries_by_category
from repro.workloads.query import QueryCategory

COMPLEX = queries_by_category(QueryCategory.COMPLEX)


@pytest.fixture(scope="module")
def profiled(bd_catalog, bd_config):
    """One engine + the profiles of the first two complex queries."""
    engine = GpuAcceleratedEngine(bd_catalog, config=bd_config)
    profiles = {}
    for query in COMPLEX[:2]:
        _result, profiles[query.query_id] = engine.profile_sql(
            query.sql, query_id=query.query_id)
    return engine, profiles


class TestAttribution:
    def test_components_sum_to_query_total(self, profiled):
        """The acceptance criterion: per-operator attributed times sum to
        the query's total simulated time (to float rounding)."""
        _engine, profiles = profiled
        for profile in profiles.values():
            accounted = sum(profile.component_totals().values())
            assert accounted == pytest.approx(profile.duration, abs=1e-12)

    def test_every_self_component_non_negative(self, profiled):
        _engine, profiles = profiled
        for profile in profiles.values():
            for node in profile.operators():
                for component, seconds in node.self_components.items():
                    assert seconds >= 0.0, (node.name, component)

    def test_gpu_components_present_on_offloaded_query(self, profiled):
        _engine, profiles = profiled
        profile = profiles["C1"]
        totals = profile.component_totals()
        assert totals["transfer_in"] > 0
        assert totals["kernel"] > 0
        assert totals["transfer_out"] > 0
        assert totals["launch_overhead"] > 0
        assert totals["cpu"] > 0

    def test_launch_overhead_split_out_of_kernel_time(self, profiled):
        """The gpu.kernel span embeds the launch overhead; the profiler
        must report them as separate components.  A stream-pipelined
        launch pays the overhead once per chunk, not once per launch."""
        engine, profiles = profiled
        overhead = engine.config.gpus[0].kernel_launch_overhead
        profile = profiles["C1"]
        pipelined = profile.events["stream_pipeline"]
        chunked = sum(e["chunks"] for e in pipelined)
        serial = len(profile.occupancy) - len(pipelined)
        assert profile.component_totals()["launch_overhead"] == \
            pytest.approx(overhead * (serial + chunked))

    def test_operator_tree_mirrors_span_nesting(self, profiled):
        _engine, profiles = profiled
        profile = profiles["C1"]
        assert profile.root.name == "query"
        names = [n.name for n in profile.operators()]
        assert "plan" in names
        assert any(n.startswith("op.") for n in names)
        for node in profile.operators():
            for child in node.children:
                assert child.depth == node.depth + 1
                assert node.span.start <= child.span.start
                assert child.span.end <= node.span.end


class TestStreamPipeline:
    def test_pipelined_launches_collected(self, profiled):
        _engine, profiles = profiled
        events = profiles["C1"].events["stream_pipeline"]
        assert events
        for e in events:
            assert e["chunks"] > 1
            assert e["operator"].startswith("op.")
            assert e["overlapped_seconds"] < e["serial_seconds"]
            assert e["saved_seconds"] == pytest.approx(
                e["serial_seconds"] - e["overlapped_seconds"])

    def test_savings_stay_out_of_component_attribution(self, profiled):
        """The saved seconds are a counterfactual (serial minus
        overlapped), not spent time: component totals must still sum to
        the query's actual duration even when savings are non-zero."""
        _engine, profiles = profiled
        profile = profiles["C1"]
        assert profile.summary("stream_pipeline")["saved_seconds"] > 0
        accounted = sum(profile.component_totals().values())
        assert accounted == pytest.approx(profile.duration, abs=1e-12)

    def test_text_report_has_pipeline_section(self, profiled):
        _engine, profiles = profiled
        text = profiles["C1"].to_text()
        assert "-- stream pipeline --" in text
        assert "overlap saved by operator:" in text

    def test_dict_report_has_pipeline_section(self, profiled):
        _engine, profiles = profiled
        doc = profiles["C1"].to_dict()
        section = doc["stream_pipeline"]
        assert section["summary"]["launches"] == len(
            profiles["C1"].events["stream_pipeline"])
        assert section["events"]
        assert section["saved_by_operator"]

    def test_saved_by_operator_sums_to_summary(self, profiled):
        _engine, profiles = profiled
        profile = profiles["C1"]
        assert sum(profile.overlap_saved_by_operator().values()) == \
            pytest.approx(profile.summary("stream_pipeline")["saved_seconds"])


class TestDecisionSections:
    def test_groupby_verdict_carries_thresholds_and_counts(self, profiled):
        _engine, profiles = profiled
        verdicts = [v for v in profiles["C1"].verdicts
                    if v.operator == "groupby"]
        assert verdicts
        v = verdicts[0]
        assert v.path == "gpu"
        assert set(v.thresholds) == {"t1", "t2", "t3"}
        assert all(t is not None for t in v.thresholds.values())
        assert v.rows > 0
        assert v.actual_groups is not None and v.actual_groups > 0
        assert v.kmv_groups is not None
        assert v.kmv_relative_error is not None
        assert v.kmv_relative_error >= 0.0

    def test_kernel_choice_recorded(self, profiled):
        _engine, profiles = profiled
        choices = profiles["C1"].kernel_choices
        assert choices
        assert all(c.kernel for c in choices)

    def test_occupancy_within_query_window(self, profiled):
        _engine, profiles = profiled
        profile = profiles["C1"]
        assert profile.occupancy
        for s in profile.occupancy:
            assert s.device_id >= 0
            assert profile.root.span.start <= s.start <= s.end
            assert s.end <= profile.root.span.end
        for device_id, busy in profile.device_busy_seconds().items():
            assert 0 < busy <= profile.duration

    def test_offload_decisions_joined_from_monitor(self, profiled):
        engine, profiles = profiled
        decisions = profiles["C1"].decisions
        assert decisions == engine.monitor.decisions_for("C1")
        assert any(d.device_id >= 0 for d in decisions)

    def test_bytes_moved_totals(self, profiled):
        _engine, profiles = profiled
        profile = profiles["C1"]
        assert profile.bytes_in > 0
        assert profile.bytes_out > 0
        assert profile.bytes_moved == profile.bytes_in + profile.bytes_out


class TestRenderings:
    def test_text_report_sections(self, profiled):
        _engine, profiles = profiled
        text = profiles["C1"].to_text()
        assert text.startswith("EXPLAIN ANALYZE")
        for section in ("path selection (Figure 3)", "kernel moderation",
                        "device occupancy", "accounted:", "(100.00%)"):
            assert section in text

    def test_text_is_deterministic(self, bd_catalog, bd_config):
        texts = []
        for _ in range(2):
            engine = GpuAcceleratedEngine(bd_catalog, config=bd_config)
            _result, profile = engine.profile_sql(COMPLEX[0].sql,
                                                  query_id="C1")
            texts.append(profile.to_text())
        assert texts[0] == texts[1]

    def test_json_round_trips(self, profiled):
        _engine, profiles = profiled
        doc = json.loads(profiles["C1"].to_json())
        assert doc["query_id"] == "C1"
        assert doc["duration_seconds"] > 0
        assert doc["operators"]["name"] == "query"
        assert doc["path_selection"]
        assert doc["kernel_choices"]
        assert set(doc["component_totals"]) <= set(COMPONENTS)

    def test_html_is_self_contained(self, profiled, tmp_path):
        from repro.obs.profile import write_html

        _engine, profiles = profiled
        html = profiles["C1"].to_html()
        assert html.startswith("<!DOCTYPE html>")
        assert "http" not in html.split("</style>")[1]   # no external assets
        assert "op.groupby" in html
        assert "GPU 0" in html
        path = write_html(profiles["C1"], str(tmp_path / "p.html"))
        assert Path(path).read_text() == html


class TestEdges:
    def test_missing_query_raises(self, profiled):
        engine, _profiles = profiled
        with pytest.raises(ProfileError):
            build_profile(engine.tracer, query_id="never-ran")
        with pytest.raises(ProfileError):
            build_profile([], query_id=None)

    def test_cpu_only_engine_profiles_too(self, bd_catalog):
        from repro.blu.engine import BluEngine
        from repro.obs.tracing import Tracer

        engine = BluEngine(bd_catalog, tracer=Tracer())
        engine.execute_sql(COMPLEX[0].sql, query_id="cpu")
        profile = build_profile(engine.tracer, query_id="cpu")
        assert not profile.gpu_enabled
        assert profile.occupancy == []
        totals = profile.component_totals()
        assert sum(totals.values()) == pytest.approx(profile.duration,
                                                     abs=1e-12)
        assert totals["kernel"] == 0.0

    def test_profile_under_faults_still_sums(self, bd_catalog, bd_config):
        import dataclasses

        from repro.faults import FaultPlan

        plan = FaultPlan.parse("launch:p=1.0")
        engine = GpuAcceleratedEngine(
            bd_catalog, config=dataclasses.replace(bd_config, faults=plan))
        _result, profile = engine.profile_sql(COMPLEX[0].sql,
                                              query_id="faulty")
        accounted = sum(profile.component_totals().values())
        assert accounted == pytest.approx(profile.duration, abs=1e-12)
        names = {e["name"] for e in profile.events["scheduler_events"]}
        assert "fault.injected" in names or "fault.fallback" in names


class TestShardSection:
    """The ``-- shards --`` section: what scaled out, over which links."""

    @pytest.fixture(scope="class")
    def sharded_profile(self, sales_table):
        import dataclasses

        from repro.blu import Catalog
        from repro.config import paper_testbed

        catalog = Catalog()
        catalog.register(sales_table)
        config = paper_testbed()
        thresholds = dataclasses.replace(config.thresholds,
                                         t1_min_rows=5_000,
                                         sort_min_rows=5_000)
        config = dataclasses.replace(
            config, thresholds=thresholds,
            gpus=tuple(config.gpus[0] for _ in range(4)),
            shard_enabled=True, nvlink_enabled=True, fusion_enabled=False)
        engine = GpuAcceleratedEngine(catalog, config=config)
        _result, profile = engine.profile_sql(
            "SELECT s_item, SUM(s_qty) AS q, COUNT(*) AS c "
            "FROM sales GROUP BY s_item", query_id="sharded")
        return profile

    def test_text_report_has_shards_section(self, sharded_profile):
        text = sharded_profile.to_text()
        assert "-- shards --" in text
        assert "shards=4 (gpu=4, cpu=0, rerouted=0)" in text
        assert "per-link utilization:" in text
        assert "nvlink" in text
        for device in range(4):
            assert f"pcie{device}" in text

    def test_dict_report_summarises_the_split(self, sharded_profile):
        shards = sharded_profile.to_dict()["shards"]
        summary = shards["summary"]
        assert summary["operators"] >= 1
        assert summary["shards"] == 4 and summary["gpu_shards"] == 4
        assert summary["exchange_bytes"] > 0
        assert [e["operator"] for e in shards["events"]] == ["groupby"]

    def test_links_cover_every_shard_and_the_exchange(self,
                                                      sharded_profile):
        links = sharded_profile.link_utilization()
        assert set(links) == {"nvlink", "pcie0", "pcie1", "pcie2", "pcie3"}
        for stats in links.values():
            assert stats["bytes_total"] > 0
            assert stats["busy_seconds"] > 0

    def test_shard_verdict_joined_from_pathselect(self, sharded_profile):
        verdicts = [v for v in sharded_profile.verdicts
                    if v.operator == "groupby-shard"]
        assert verdicts and verdicts[0].path == "gpu-sharded"

    def test_segmented_shard_waves_report_like_every_wave(self,
                                                          sales_table):
        """A segmented sort's shard wave (split on segment boundaries:
        no exchange, no merge) lands in the section beside the range-
        sharded job above it, so its shards and reroutes are counted."""
        from tests.obs.test_profile_transcripts import sharded_engine

        engine = sharded_engine(sales_table, nvlink=True)
        _result, profile = engine.profile_sql(
            "SELECT s_store, s_ticket FROM sales ORDER BY s_store, s_ticket",
            query_id="segmented")
        events = profile.events["shards"]
        assert len(events) > 1
        assert {e["operator"] for e in events} == {"sort"}
        segmented = [e for e in events if e["merge_seconds"] == 0.0]
        assert segmented and all(e["exchange_bytes"] == 0 and
                                 e["gpu_shards"] == e["shards"]
                                 for e in segmented)

    def test_unsharded_profiles_omit_the_section(self, profiled):
        _engine, profiles = profiled
        for profile in profiles.values():
            assert "-- shards --" not in profile.to_text()
