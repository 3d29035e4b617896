"""Unit tests for the hardware presets."""


import dataclasses
from types import SimpleNamespace

import pytest

from repro.config import (
    KNOBS,
    GpuSpec,
    HostSpec,
    SystemConfig,
    apply_knobs,
    chosen_knobs,
    cpu_only_testbed,
    knob_values,
    paper_prototype,
    paper_testbed,
    single_gpu_testbed,
)


class TestPresets:
    def test_paper_testbed_matches_section5(self):
        config = paper_testbed()
        assert config.host.cores == 24
        assert config.host.hardware_threads == 96
        assert config.gpu_count == 2
        for spec in config.gpus:
            assert spec.cuda_cores == 2880
            assert spec.device_memory_bytes == 12 * 1024**3
            assert spec.smx_count == 15

    def test_variants(self):
        assert single_gpu_testbed().gpu_count == 1
        assert cpu_only_testbed().gpu_count == 0

    def test_pcie_ratio_exceeds_4x(self):
        spec = GpuSpec()
        assert spec.pcie_pinned_bw / spec.pcie_unpinned_bw > 4.0

    def test_shared_memory_per_smx(self):
        assert GpuSpec().shared_mem_per_smx == 64 * 1024


class TestHostCapacity:
    def test_monotone(self):
        host = HostSpec()
        values = [host.effective_capacity(n) for n in (1, 12, 24, 48, 96)]
        assert values == sorted(values)

    def test_zero_threads(self):
        assert HostSpec().effective_capacity(0) == 0.0


class TestThresholds:
    def test_defaults_ordered(self):
        t = paper_testbed().thresholds
        assert t.t1_min_rows < t.t3_max_rows
        assert t.t2_min_groups >= 1
        assert t.many_aggs_threshold == 5


class TestKnobTable:
    """One row per execution knob; every surface iterates the table."""

    @pytest.mark.parametrize("row", KNOBS.values(), ids=lambda r: r.key)
    def test_render_and_parse_are_inverses(self, row):
        values = [getattr(paper_testbed(), row.key, [1, 2, 4, 8])]
        if row.off is not None:
            values.append(row.off)
        if row.key == "switch_bandwidth":
            values.append(96e9)
        for value in values:
            assert row.parse(row.render(value)) == value, row.key

    @pytest.mark.parametrize("row", KNOBS.values(), ids=lambda r: r.key)
    def test_flag_is_in_bench_help(self, row, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        assert f"{row.flag} " in capsys.readouterr().out

    def test_every_row_but_the_sweep_shape_is_a_config_field(self):
        fields = {f.name for f in dataclasses.fields(SystemConfig)}
        assert set(KNOBS) - fields == {"device_counts"}

    def test_on_off_rejects_anything_else(self):
        with pytest.raises(ValueError):
            KNOBS["fusion_enabled"].parse("yes")

    def test_cli_value_wins_over_the_baseline_which_wins_over_nothing(self):
        args = SimpleNamespace(cache_fraction=0.5, pipeline_depth=None)
        chosen = chosen_knobs(args, {"cache_fraction": 0.0,
                                     "pipeline_depth": 1, "seed": 7})
        assert chosen == {"cache_fraction": 0.5, "pipeline_depth": 1}
        assert chosen_knobs(args) == {"cache_fraction": 0.5}

    def test_apply_and_read_back(self):
        config = apply_knobs(paper_testbed(), {"fusion_enabled": False,
                                               "device_counts": [1, 2]})
        assert not config.fusion_enabled
        values = knob_values(config)
        assert values["fusion_enabled"] is False
        assert "shard_enabled" not in values
        assert "shard_enabled" in knob_values(config, scale_out=True)
        assert "device_counts" not in knob_values(config, scale_out=True)


class TestPaperPrototype:
    def test_is_every_knob_row_at_its_off_value(self):
        proto, stock = paper_prototype(), paper_testbed()
        for row in KNOBS.values():
            expected = (row.off if row.off is not None
                        else getattr(stock, row.key, None))
            assert getattr(proto, row.key, None) == expected, row.key
        # No new field, and nothing but knobs differs from the testbed.
        assert dataclasses.replace(
            proto, **knob_values(stock, scale_out=True)) == stock

    def test_runs_nothing_the_prototype_did_not_have(self):
        """An off knob means *not enumerated* (PR 20): the BD Insights
        complex class answers like the CPU engine and no cache lookup,
        chunked launch, fused chain or split-gate instant appears."""
        from repro.workloads.bdinsights import queries_by_category
        from repro.workloads.datagen import generate_database, scaled_config
        from repro.workloads.driver import WorkloadDriver
        from repro.workloads.query import QueryCategory

        catalog = generate_database(scale=0.02, seed=11)
        driver = WorkloadDriver(
            catalog, scaled_config(catalog, base=paper_prototype()))
        for query in queries_by_category(QueryCategory.COMPLEX):
            assert driver.result_checksum(query, gpu=True) \
                == driver.result_checksum(query, gpu=False), query.query_id
        spans = driver.gpu_engine.tracer.spans
        launches = [s for s in spans if s.name == "gpu.launch"]
        assert launches                   # the prototype does offload
        assert all(s.attributes.get("chunks", 1) <= 1 for s in launches)
        names = {s.name for s in spans}
        assert not [name for name in names if name.startswith("cache.")]
        assert not names & {"op.fused", "fusion.chain", "pathselect.fused",
                            "pathselect.partition", "pathselect.shard"}
