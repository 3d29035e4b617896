"""The benchmark harness: deterministic baselines, byte-stable files,
and a compare gate that trips on regressions and nothing else."""

import json

import pytest

from repro.obs import bench
from repro.workloads.driver import WorkloadDriver


@pytest.fixture(scope="module")
def driver(bd_catalog, bd_config):
    return WorkloadDriver(bd_catalog, bd_config)


@pytest.fixture(scope="module")
def result(driver):
    """One complex-class run (5 queries) at the test fixture's scale."""
    return bench.run_workload(driver, "bd_insights", scale=0.02, seed=11,
                              classes=["complex"])


class TestPercentile:
    def test_bucketed_nearest_rank(self):
        """Routed through the streaming histogram: the estimate sits
        within one bucket (1% relative) above the exact nearest-rank
        sample, and quantiles hitting the max are exact."""
        from repro.obs.hist import DEFAULT_RESOLUTION

        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        p50 = bench.percentile(values, 0.50)
        assert 3.0 <= p50 <= 3.0 * (1.0 + DEFAULT_RESOLUTION)
        # Rank 5 of 5 is the observed maximum — clamped, hence exact.
        assert bench.percentile(values, 0.95) == 5.0
        assert bench.percentile(values, 1.00) == 5.0

    def test_order_independent(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert bench.percentile(values, 0.5) \
            == bench.percentile(sorted(values), 0.5)

    def test_empty_and_single(self):
        assert bench.percentile([], 0.5) == 0.0
        assert bench.percentile([7.0], 0.95) == 7.0


class TestRun:
    def test_class_stats_shape(self, result):
        assert set(result.classes) == {"complex"}
        stat = result.classes["complex"]
        assert stat.queries == 5
        assert len(result.queries) == 5
        assert 0.0 < stat.p50_ms <= stat.p95_ms <= stat.total_ms
        assert stat.bytes_moved > 0          # complex queries offload
        assert stat.gpu_offload_ratio == 1.0

    def test_query_stats_consistent_with_class(self, result):
        stat = result.classes["complex"]
        elapsed = [q.elapsed_ms for q in result.queries.values()]
        assert sum(elapsed) == pytest.approx(stat.total_ms)
        assert stat.bytes_moved == sum(q.bytes_moved
                                       for q in result.queries.values())

    def test_run_is_deterministic(self, bd_catalog, bd_config, result):
        fresh = bench.run_workload(
            WorkloadDriver(bd_catalog, bd_config), "bd_insights",
            scale=0.02, seed=11, classes=["complex"])
        assert fresh.to_json() == result.to_json()

    def test_unknown_workload_and_class(self, driver):
        with pytest.raises(bench.BenchError):
            bench.workload_classes("tpch", driver)
        with pytest.raises(bench.BenchError):
            bench.run_workload(driver, "bd_insights", scale=0.02, seed=11,
                               classes=["nope"])


class TestBaselineIO:
    def test_round_trip(self, result, tmp_path):
        path = result.write(str(tmp_path / "BENCH_bd_insights.json"))
        loaded = bench.BenchResult.load(path)
        assert loaded == result.to_dict()
        assert loaded["format"] == bench.BASELINE_FORMAT

    def test_json_is_byte_stable(self, result):
        assert result.to_json() == result.to_json()
        assert result.to_json().endswith("\n")
        # sorted keys at every level
        doc = json.loads(result.to_json())
        assert list(doc["queries"]) == sorted(doc["queries"])

    def test_missing_and_malformed_baseline(self, tmp_path):
        with pytest.raises(bench.BenchError, match="no baseline"):
            bench.BenchResult.load(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(bench.BenchError, match="not valid JSON"):
            bench.BenchResult.load(str(bad))
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"format": 99}')
        with pytest.raises(bench.BenchError, match="format"):
            bench.BenchResult.load(str(wrong))

    def test_default_path(self):
        assert bench.baseline_path("bd_insights") == \
            "benchmarks/baselines/BENCH_bd_insights.json"


class TestCompare:
    def test_clean_rerun_passes(self, result):
        comparison = bench.compare(result, result.to_dict())
        assert comparison.ok
        assert comparison.failures == []
        assert "OK" in comparison.to_text()

    def test_injected_slowdown_fails(self, driver, result):
        slowed = bench.run_workload(driver, "bd_insights", scale=0.02,
                                    seed=11, classes=["complex"],
                                    slowdown=1.5)
        comparison = bench.compare(slowed, result.to_dict(), tolerance=0.10)
        assert not comparison.ok
        assert any("p50_ms regressed" in f for f in comparison.failures)

    def test_slowdown_within_tolerance_passes(self, driver, result):
        slowed = bench.run_workload(driver, "bd_insights", scale=0.02,
                                    seed=11, classes=["complex"],
                                    slowdown=1.05)
        assert bench.compare(slowed, result.to_dict(), tolerance=0.10).ok

    def test_improvement_beyond_tolerance_fails(self, driver, result):
        # A stale baseline hides future regressions, so a large
        # improvement is a failure too — with a hint to refresh.
        faster = bench.run_workload(driver, "bd_insights", scale=0.02,
                                    seed=11, classes=["complex"],
                                    slowdown=0.5)
        comparison = bench.compare(faster, result.to_dict())
        assert not comparison.ok
        assert any("improved" in f and "--update" in f
                   for f in comparison.failures)

    def test_improvement_within_tolerance_passes(self, driver, result):
        faster = bench.run_workload(driver, "bd_insights", scale=0.02,
                                    seed=11, classes=["complex"],
                                    slowdown=0.95)
        assert bench.compare(faster, result.to_dict(),
                             tolerance=0.10).ok

    def test_cache_fraction_mismatch_fails_outright(self, result):
        baseline = result.to_dict()
        baseline["cache_fraction"] = 0.0
        comparison = bench.compare(result, baseline)
        assert not comparison.ok
        assert any("config mismatch" in f and "cache_fraction" in f
                   for f in comparison.failures)

    def test_pre_cache_baseline_still_comparable(self, result):
        # Baselines written before the cache existed carry no
        # cache_fraction key; compare() must not invent a mismatch.
        baseline = result.to_dict()
        del baseline["cache_fraction"]
        assert bench.compare(result, baseline).ok

    def test_pipeline_knob_mismatch_fails_outright(self, result):
        for knob, other in (("pipeline_depth", 1), ("chunk_bytes", 4096)):
            baseline = result.to_dict()
            baseline[knob] = other
            comparison = bench.compare(result, baseline)
            assert not comparison.ok
            assert any("config mismatch" in f and knob in f
                       for f in comparison.failures), knob

    def test_pre_pipeline_baseline_still_comparable(self, result):
        # Baselines written before the stream pipeline existed carry no
        # pipeline keys; compare() must not invent a mismatch.
        baseline = result.to_dict()
        del baseline["pipeline_depth"]
        del baseline["chunk_bytes"]
        assert bench.compare(result, baseline).ok

    def test_result_checksum_recorded_per_query(self, result):
        for stat in result.queries.values():
            assert stat.checksum      # every query carries a digest

    def test_checksum_mismatch_fails_outright(self, result):
        baseline = result.to_dict()
        baseline["queries"]["C1"]["checksum"] = "deadbeefdeadbeef"
        comparison = bench.compare(result, baseline)
        assert not comparison.ok
        assert any("checksum changed" in f for f in comparison.failures)

    def test_pre_checksum_baseline_still_comparable(self, result):
        baseline = result.to_dict()
        for q in baseline["queries"].values():
            del q["checksum"]
        assert bench.compare(result, baseline).ok

    def test_config_mismatch_fails_outright(self, result):
        baseline = result.to_dict()
        baseline["scale"] = 0.05
        comparison = bench.compare(result, baseline)
        assert not comparison.ok
        assert any("config mismatch" in f for f in comparison.failures)

    def test_new_query_in_set_fails(self, result, driver):
        baseline = result.to_dict()
        del baseline["queries"]["C1"]
        comparison = bench.compare(result, baseline)
        assert any("query set changed" in f for f in comparison.failures)


class TestScaleOut:
    @pytest.fixture(scope="class")
    def scale_out(self):
        """A tiny 1-vs-2-device scale-out run (fresh DB per count)."""
        return bench.run_scale_out(scale=0.02, seed=11, degree=48,
                                   knobs={"device_counts": (1, 2)})

    def test_one_class_per_device_count(self, scale_out):
        assert sorted(scale_out.classes) == ["devices_1", "devices_2"]
        assert scale_out.config["device_counts"] == [1, 2]
        assert scale_out.config["shard_enabled"]
        assert scale_out.config["nvlink_enabled"]
        # Same queries at both counts, keyed by device prefix.
        d1 = [q for q in scale_out.queries if q.startswith("d1:")]
        d2 = [q for q in scale_out.queries if q.startswith("d2:")]
        assert len(d1) == len(d2) > 0

    def test_speedups_normalised_to_one_device(self, scale_out):
        speedups = bench.scale_out_speedups(scale_out.to_dict())
        assert speedups[1] == 1.0
        assert speedups[2] > 1.0    # sharding must actually pay

    def test_checksums_identical_across_device_counts(self, scale_out):
        """run_scale_out itself raises on CPU divergence; this pins the
        secondary invariant that the digest is device-count-invariant."""
        by_query: dict[str, set] = {}
        for key, stat in scale_out.queries.items():
            by_query.setdefault(key.split(":", 1)[1], set()).add(
                stat.checksum)
        for query_id, checksums in by_query.items():
            assert len(checksums) == 1, query_id

    def test_self_compare_passes(self, scale_out):
        assert bench.compare(scale_out, scale_out.to_dict()).ok

    def test_topology_knob_mismatches_name_the_flag(self, scale_out):
        path = "benchmarks/baselines/BENCH_scale_out.json"
        for knob, other, flag in (
                ("device_counts", [1, 2, 4], "--devices 1,2,4"),
                ("shard_enabled", False, "--shard off"),
                ("nvlink_enabled", False, "--nvlink off"),
                ("switch_bandwidth", 96.0e9, "--switch-bandwidth 9.6e+10"),
        ):
            baseline = scale_out.to_dict()
            baseline[knob] = other
            comparison = bench.compare(scale_out, baseline,
                                       baseline_path=path)
            assert not comparison.ok
            assert any("config mismatch" in f and knob in f
                       for f in comparison.failures), knob
            hint = [f for f in comparison.failures
                    if "not comparable" in f][0]
            assert flag in hint and path in hint, knob

    def test_regular_results_omit_scale_out_keys(self, result):
        """Old BENCH_* baselines must stay byte-identical: the topology
        keys only serialise for scale-out runs."""
        d = result.to_dict()
        for key in ("device_counts", "shard_enabled", "nvlink_enabled",
                    "switch_bandwidth"):
            assert key not in d

    def test_run_workload_refuses_scale_out(self, driver):
        with pytest.raises(bench.BenchError, match="run_scale_out"):
            bench.run_workload(driver, "scale_out", scale=0.02, seed=11)

    def test_speedups_require_a_single_device_class(self, result):
        with pytest.raises(bench.BenchError, match="1-device"):
            bench.scale_out_speedups(result.to_dict())
