"""Edge-path coverage for the hybrid executors: resource exhaustion,
regrow limits, and fallback correctness."""

import dataclasses

import numpy as np
import pytest

from repro.blu import BluEngine
from repro.config import CostModel, GpuSpec, paper_testbed
from repro.core import GpuAcceleratedEngine
from repro.core.moderator import _run_with_regrow
from repro.errors import HashTableOverflowError
from repro.gpu.kernels.groupby_regular import RegularGroupByKernel
from repro.gpu.kernels.request import GroupByRequest, PayloadSpec
from repro.blu.datatypes import int64
from repro.blu.expressions import AggFunc
from tests.conftest import tables_equal


GROUPBY_SQL = ("SELECT s_item, SUM(s_qty) AS q FROM sales GROUP BY s_item")
SORT_SQL = ("SELECT s_ticket, s_paid FROM sales ORDER BY s_paid DESC")


def engine_with(small_catalog, pinned_bytes=2 << 30, **config_overrides):
    config = paper_testbed()
    thresholds = dataclasses.replace(config.thresholds, t1_min_rows=5_000,
                                     sort_min_rows=5_000)
    config = dataclasses.replace(config, thresholds=thresholds,
                                 **config_overrides)
    return GpuAcceleratedEngine(small_catalog, config=config,
                                pinned_pool_bytes=pinned_bytes)


class TestPinnedExhaustion:
    def test_groupby_falls_back_when_pool_tiny(self, small_catalog):
        engine = engine_with(small_catalog, pinned_bytes=16 * 1024)
        cpu = BluEngine(small_catalog)
        result = engine.execute_sql(GROUPBY_SQL, query_id="pinned-gb")
        assert not result.profile.offloaded
        decisions = engine.monitor.decisions_for("pinned-gb")
        assert any("pinned" in d.reason for d in decisions)
        assert tables_equal(result.table, cpu.execute_sql(GROUPBY_SQL).table)

    def test_sort_falls_back_when_pool_tiny(self, small_catalog):
        engine = engine_with(small_catalog, pinned_bytes=16 * 1024)
        cpu = BluEngine(small_catalog)
        result = engine.execute_sql(SORT_SQL, query_id="pinned-sort")
        assert not any(e.op == "GPU-SORT" for e in result.profile.events)
        assert tables_equal(result.table, cpu.execute_sql(SORT_SQL).table)
        assert engine.sort_executor.last_stats.fallbacks >= 1

    def test_pool_not_leaked_by_fallbacks(self, small_catalog):
        engine = engine_with(small_catalog, pinned_bytes=16 * 1024)
        for _ in range(3):
            engine.execute_sql(GROUPBY_SQL)
            engine.execute_sql(SORT_SQL)
        assert engine.pinned.used == 0


class TestRegrowExhaustion:
    def test_regrow_gives_up_after_max_attempts(self):
        """A pathological kernel that always overflows must terminate."""

        class AlwaysOverflow(RegularGroupByKernel):
            def run(self, request, headroom=1.5):
                raise HashTableOverflowError("synthetic")

        kernel = AlwaysOverflow(CostModel())
        request = GroupByRequest(
            keys=np.arange(100, dtype=np.int64), key_bits=64,
            payloads=[PayloadSpec(int64(), AggFunc.SUM)],
            estimated_groups=10)
        with pytest.raises(HashTableOverflowError, match="regrow"):
            _run_with_regrow(kernel, request, max_attempts=3)


class TestPartitionedFallbackMix:
    def test_partition_runs_on_cpu_when_devices_full(self, small_catalog):
        """With a device too small for any partition, the partitioned path
        degrades to per-partition CPU chains and still answers correctly."""
        config = paper_testbed()
        tiny = dataclasses.replace(GpuSpec(), device_memory_bytes=64 * 1024)
        thresholds = dataclasses.replace(config.thresholds,
                                         t1_min_rows=1000,
                                         t3_max_rows=20_000,
                                         sort_min_rows=10**9)
        config = dataclasses.replace(config, gpus=(tiny,),
                                     thresholds=thresholds)
        engine = GpuAcceleratedEngine(small_catalog, config=config)
        cpu = BluEngine(small_catalog)
        result = engine.execute_sql(GROUPBY_SQL)
        ref = cpu.execute_sql(GROUPBY_SQL)
        got = sorted(zip(*result.table.to_pydict().values()))
        want = sorted(zip(*ref.table.to_pydict().values()))
        assert got == want
        assert not any(e.uses_gpu for e in result.profile.events)


class TestJoinKernelProbeEdges:
    def test_probe_absent_keys_in_nearly_full_table(self):
        from repro.gpu.kernels.join import HashJoinKernel

        kernel = HashJoinKernel(CostModel())
        build = np.arange(0, 1000, dtype=np.int64)
        probe = np.arange(2000, 3000, dtype=np.int64)    # all misses
        result = kernel.run(build, probe, headroom=1.05)
        assert len(result.left_idx) == 0

    def test_empty_probe(self):
        from repro.gpu.kernels.join import HashJoinKernel

        kernel = HashJoinKernel(CostModel())
        result = kernel.run(np.arange(10, dtype=np.int64),
                            np.empty(0, dtype=np.int64))
        assert len(result.left_idx) == 0
        assert result.kernel_seconds >= 0
