"""Tests for the command-line interface (run in-process)."""

import pytest

from repro.cli import main


SCALE = ["--scale", "0.01", "--seed", "3"]


class TestSqlCommand:
    def test_runs_and_prints_rows(self, capsys):
        code = main(SCALE + ["sql",
                             "SELECT ss_store_sk, COUNT(*) AS c "
                             "FROM store_sales GROUP BY ss_store_sk "
                             "ORDER BY c DESC LIMIT 3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ss_store_sk" in out
        assert "simulated ms" in out

    def test_no_gpu_flag(self, capsys):
        code = main(SCALE + ["sql", "--no-gpu",
                             "SELECT COUNT(*) AS c FROM store_sales"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CPU-only" in out

    def test_limit_truncates(self, capsys):
        main(SCALE + ["sql", "--limit", "2",
                      "SELECT ss_item_sk FROM store_sales LIMIT 50"])
        out = capsys.readouterr().out
        assert "more rows" in out


class TestOtherCommands:
    def test_explain(self, capsys):
        code = main(SCALE + ["explain",
                             "SELECT i_category, SUM(ss_net_paid) AS rev "
                             "FROM store_sales "
                             "JOIN item ON ss_item_sk = i_item_sk "
                             "GROUP BY i_category"])
        out = capsys.readouterr().out
        assert code == 0
        assert "GROUPBY" in out and "HASHJOIN" in out

    def test_schema(self, capsys):
        code = main(SCALE + ["schema"])
        out = capsys.readouterr().out
        assert code == 0
        assert "store_sales" in out
        assert "date_dim" in out
        assert "simulated GPUs" in out

    def test_workload_complex(self, capsys):
        code = main(SCALE + ["workload", "complex"])
        out = capsys.readouterr().out
        assert code == 0
        assert "C1" in out and "TOTAL" in out

    def test_monitor(self, capsys):
        code = main(SCALE + ["monitor"])
        out = capsys.readouterr().out
        assert code == 0
        assert "performance monitor" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_nan_scale_fails_with_typed_error_not_traceback(self, capsys):
        code = main(["--scale", "nan", "bench", "bd_insights"])
        out = capsys.readouterr().out
        assert code == 1
        assert out == ("FAIL  WorkloadError: scale must be a finite "
                       "positive number, got nan\n")


class TestInspectCommand:
    def test_inspect(self, capsys):
        code = main(SCALE + ["inspect",
                             "SELECT ss_store_sk, COUNT(*) AS c "
                             "FROM store_sales GROUP BY ss_store_sk"])
        out = capsys.readouterr().out
        assert code == 0
        assert "== plan ==" in out
        assert "== offload decisions ==" in out


class TestMonitorJson:
    def test_json_export(self, capsys, tmp_path):
        out_path = str(tmp_path / "events.json")
        code = main(SCALE + ["monitor", "--json", out_path])
        assert code == 0
        import json

        with open(out_path) as f:
            doc = json.load(f)
        kinds = {e["kind"] for e in doc["events"]}
        assert "query" in kinds and "decision" in kinds
        assert doc["stats"]["queries"] > 0
        assert "counters" in doc["stats"]

    def test_bare_json_prints_events_instead_of_report(self, capsys):
        import json

        code = main(SCALE + ["monitor", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert "performance monitor" not in out
        doc = json.loads(out)
        assert {e["kind"] for e in doc["events"]} >= {"query", "decision"}
        # The JSON surface carries the same snapshot cache-stats uses.
        assert {"queries", "counters", "cache", "pipeline",
                "devices", "quarantined"} <= set(doc["stats"])


class TestTraceCommand:
    def test_writes_chrome_trace(self, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "trace.json")
        code = main(SCALE + ["trace",
                             "SELECT i_category, SUM(ss_net_paid) AS rev "
                             "FROM store_sales "
                             "JOIN item ON ss_item_sk = i_item_sk "
                             "GROUP BY i_category",
                             "--out", out_path])
        assert code == 0
        assert "spans" in capsys.readouterr().out
        with open(out_path) as f:
            doc = json.load(f)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert {"query", "plan", "op.groupby"} <= names
        roots = [e for e in events if e["args"]["parent_id"] is None]
        assert len(roots) == 1

    def test_jsonl_sidecar(self, tmp_path, capsys):
        from repro.obs.export import TraceLog

        out_path = str(tmp_path / "trace.json")
        jsonl_path = str(tmp_path / "spans.jsonl")
        code = main(SCALE + ["trace",
                             "SELECT COUNT(*) AS c FROM store_sales",
                             "--out", out_path, "--jsonl", jsonl_path])
        assert code == 0
        records = TraceLog.read(jsonl_path)
        assert records and records[0]["name"] == "query"


class TestProfileCommand:
    SQL = ("SELECT i_category, SUM(ss_net_paid) AS rev "
           "FROM store_sales "
           "JOIN item ON ss_item_sk = i_item_sk "
           "GROUP BY i_category")

    def test_prints_explain_analyze(self, capsys):
        code = main(SCALE + ["profile", self.SQL])
        out = capsys.readouterr().out
        assert code == 0
        assert "EXPLAIN ANALYZE" in out
        assert "path selection (Figure 3)" in out
        assert "(100.00%)" in out

    def test_is_deterministic(self, capsys):
        main(SCALE + ["profile", self.SQL])
        first = capsys.readouterr().out
        main(SCALE + ["profile", self.SQL])
        assert capsys.readouterr().out == first

    def test_json_and_html_export(self, capsys, tmp_path):
        import json

        json_path = str(tmp_path / "profile.json")
        html_path = str(tmp_path / "profile.html")
        code = main(SCALE + ["profile", self.SQL,
                             "--json", json_path, "--html", html_path])
        assert code == 0
        with open(json_path) as f:
            doc = json.load(f)
        assert doc["query_id"] == "profile"
        html = (tmp_path / "profile.html").read_text()
        assert html.startswith("<!DOCTYPE html>")

    def test_bare_json_prints_document(self, capsys):
        import json

        code = main(SCALE + ["profile", self.SQL, "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["operators"]["name"] == "query"


class TestBenchCommand:
    def test_update_then_compare_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "BENCH_bd_insights.json")
        code = main(SCALE + ["bench", "bd_insights", "--classes", "complex",
                             "--baseline", path, "--update"])
        assert code == 0
        assert "wrote baseline" in capsys.readouterr().out
        code = main(SCALE + ["bench", "bd_insights", "--classes", "complex",
                             "--baseline", path, "--compare"])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out

    def test_compare_fails_on_injected_slowdown(self, capsys, tmp_path):
        path = str(tmp_path / "BENCH_bd_insights.json")
        main(SCALE + ["bench", "bd_insights", "--classes", "complex",
                      "--baseline", path, "--update"])
        capsys.readouterr()
        code = main(SCALE + ["bench", "bd_insights", "--classes", "complex",
                             "--baseline", path, "--compare",
                             "--slowdown", "1.5"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "regressed" in out

    def test_compare_without_baseline_errors(self, capsys, tmp_path):
        code = main(SCALE + ["bench", "bd_insights", "--classes", "complex",
                             "--baseline", str(tmp_path / "absent.json"),
                             "--compare"])
        assert code == 1
        assert "no baseline" in capsys.readouterr().out

    def test_cache_fraction_and_out(self, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "result.json")
        code = main(SCALE + ["bench", "bd_insights", "--classes", "complex",
                             "--cache-fraction", "0", "--out", out_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "cache=0.0" in out
        doc = json.load(open(out_path))
        assert doc["cache_fraction"] == 0.0

    def test_compare_inherits_baseline_cache_fraction(self, capsys,
                                                      tmp_path):
        # A cache-off baseline must be compared with a cache-off run even
        # when --cache-fraction is not repeated on the compare side.
        path = str(tmp_path / "BENCH_off.json")
        main(SCALE + ["bench", "bd_insights", "--classes", "complex",
                      "--cache-fraction", "0", "--baseline", path,
                      "--update"])
        capsys.readouterr()
        code = main(SCALE + ["bench", "bd_insights", "--classes", "complex",
                             "--baseline", path, "--compare"])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out and "cache=0.0" in out

    def test_pipeline_knobs_and_out(self, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "result.json")
        code = main(SCALE + ["bench", "bd_insights", "--classes", "complex",
                             "--pipeline-depth", "2",
                             "--chunk-bytes", "65536",
                             "--out", out_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "pipeline=2x65536B" in out
        doc = json.load(open(out_path))
        assert doc["pipeline_depth"] == 2
        assert doc["chunk_bytes"] == 65536

    def test_compare_inherits_baseline_pipeline_knobs(self, capsys,
                                                      tmp_path):
        # A pipeline-off baseline must be compared with a pipeline-off
        # run even when the knobs are not repeated on the compare side.
        path = str(tmp_path / "BENCH_pipeline_off.json")
        main(SCALE + ["bench", "bd_insights", "--classes", "complex",
                      "--pipeline-depth", "1", "--baseline", path,
                      "--update"])
        capsys.readouterr()
        code = main(SCALE + ["bench", "bd_insights", "--classes", "complex",
                             "--baseline", path, "--compare"])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out and "pipeline=1x" in out

    def test_fusion_off_and_join_offload(self, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "result.json")
        code = main(SCALE + ["bench", "bd_insights", "--classes", "complex",
                             "--fusion", "off", "--join-offload",
                             "--out", out_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "fusion=off" in out
        doc = json.load(open(out_path))
        assert doc["fusion_enabled"] is False
        for cls in doc["classes"].values():
            assert cls["kernel_launches"] >= 0

    def test_compare_inherits_baseline_fusion_knob(self, capsys, tmp_path):
        # A fusion-off baseline must be compared with a fusion-off run
        # even when --fusion is not repeated on the compare side.
        path = str(tmp_path / "BENCH_fusion_off.json")
        main(SCALE + ["bench", "bd_insights", "--classes", "complex",
                      "--fusion", "off", "--baseline", path, "--update"])
        capsys.readouterr()
        code = main(SCALE + ["bench", "bd_insights", "--classes", "complex",
                             "--baseline", path, "--compare"])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out and "fusion=off" in out


class TestCacheStatsCommand:
    def test_table_output(self, capsys):
        code = main(SCALE + ["cache-stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "GPU" in out and "hit rate" in out
        assert "transfer elided" in out

    def test_json_output(self, capsys):
        import json

        code = main(SCALE + ["cache-stats", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert {"queries", "counters", "cache", "pipeline",
                "devices", "quarantined"} <= set(doc)
        assert isinstance(doc["cache"], list) and doc["cache"]
        assert {"device_id", "hits", "misses"} <= set(doc["cache"][0])
        # PR-5 overlap counters must be visible here, not just in
        # `repro metrics` (the drift this snapshot unification fixes).
        assert doc["pipeline"]

    def test_disabled_cache_message(self, capsys):
        code = main(SCALE + ["cache-stats", "--cache-fraction", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "disabled" in out


class TestMetricsCommand:
    def test_prometheus_output(self, capsys):
        code = main(SCALE + ["metrics"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE repro_queries_total counter" in out
        assert "repro_kernel_latency_seconds_bucket" in out

    def test_json_output(self, capsys):
        import json

        code = main(SCALE + ["metrics", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        snapshot = json.loads(out)
        assert "repro_queries_total" in snapshot


class TestServeBenchCommand:
    def test_update_then_compare_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "BENCH_serving_sweep.json")
        code = main(SCALE + ["serve-bench", "bd_insights",
                             "--classes", "complex", "--sessions", "1,2",
                             "--baseline", path, "--update"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote baseline" in out
        assert "sessions" in out          # the Table-3-style ladder
        code = main(SCALE + ["serve-bench", "bd_insights",
                             "--classes", "complex",
                             "--baseline", path, "--compare"])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out

    def test_compare_fails_on_injected_slowdown(self, capsys, tmp_path):
        path = str(tmp_path / "BENCH_serving_sweep.json")
        main(SCALE + ["serve-bench", "bd_insights", "--classes", "complex",
                      "--sessions", "1,2", "--baseline", path, "--update"])
        capsys.readouterr()
        code = main(SCALE + ["serve-bench", "bd_insights",
                             "--classes", "complex",
                             "--baseline", path, "--compare",
                             "--slowdown", "1.5"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "regressed" in out

    def test_compare_without_baseline_errors(self, capsys, tmp_path):
        code = main(SCALE + ["serve-bench", "bd_insights",
                             "--baseline", str(tmp_path / "absent.json"),
                             "--compare"])
        assert code == 1
        assert "no baseline" in capsys.readouterr().out

    def test_out_writes_sweep_json(self, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "sweep.json")
        code = main(SCALE + ["serve-bench", "bd_insights",
                             "--classes", "complex", "--sessions", "1,2",
                             "--out", out_path])
        assert code == 0
        capsys.readouterr()
        doc = json.load(open(out_path))
        assert doc["kind"] == "serving_sweep"
        assert sorted(doc["points"]) == ["1", "2"]

    def test_unknown_class_fails(self, capsys):
        code = main(SCALE + ["serve-bench", "bd_insights",
                             "--classes", "nope", "--sessions", "1"])
        assert code == 1
        assert "unknown class" in capsys.readouterr().out
