"""Tests for the GPU join extension (the paper's future-work item)."""

import dataclasses

import numpy as np
import pytest

from repro.blu import BluEngine, Catalog, Schema, Table
from repro.blu.datatypes import int64
from repro.blu.operators.join import match_rows
from repro.config import CostModel, GpuSpec, paper_testbed
from repro.core import GpuAcceleratedEngine
from repro.errors import GpuError
from repro.gpu.kernels.join import HashJoinKernel
from tests.conftest import tables_equal


LO = np.iinfo(np.int64).min
JOIN_SQL = ("SELECT st_state, SUM(s_paid) AS rev, COUNT(*) AS c "
            "FROM sales JOIN stores ON s_store = st_id "
            "GROUP BY st_state ORDER BY rev DESC")


@pytest.fixture()
def join_engine(small_catalog):
    config = paper_testbed()
    thresholds = dataclasses.replace(config.thresholds, t1_min_rows=5_000,
                                     sort_min_rows=5_000)
    config = dataclasses.replace(config, thresholds=thresholds)
    return GpuAcceleratedEngine(small_catalog, config=config,
                                enable_join_offload=True)


class TestJoinKernel:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(31)
        build = np.arange(1, 501, dtype=np.int64)
        probe = rng.integers(1, 701, 50_000).astype(np.int64)
        result = HashJoinKernel(CostModel()).run(build, probe)
        expected_matches = int((probe <= 500).sum())
        assert len(result.left_idx) == expected_matches
        # Every matched pair really joins.
        assert np.array_equal(probe[result.left_idx],
                              build[result.right_idx])
        # Misses really miss.
        missed = np.setdiff1d(np.arange(len(probe)), result.left_idx)
        assert (probe[missed] > 500).all()

    def test_probe_order_preserved(self):
        build = np.array([10, 20, 30], dtype=np.int64)
        probe = np.array([20, 99, 10, 30, 20], dtype=np.int64)
        result = HashJoinKernel(CostModel()).run(build, probe)
        assert list(result.left_idx) == [0, 2, 3, 4]
        assert list(build[result.right_idx]) == [20, 10, 30, 20]

    def test_duplicate_build_keys_rejected(self):
        with pytest.raises(GpuError):
            HashJoinKernel(CostModel()).run(
                np.array([1, 1, 2], dtype=np.int64),
                np.array([1], dtype=np.int64))

    def test_cost_scales_with_probe_side(self):
        kernel = HashJoinKernel(CostModel())
        build = np.arange(1000, dtype=np.int64)
        small = kernel.run(build, np.arange(10_000, dtype=np.int64) % 1000)
        large = kernel.run(build, np.arange(200_000, dtype=np.int64) % 1000)
        assert large.kernel_seconds > 5 * small.kernel_seconds

    @pytest.mark.parametrize("build, probe", [
        ([LO, 5, 9], [LO, 5, 7, LO]),
        ([LO, LO + 1, 5], [LO + 1, LO, 3, LO]),
        ([LO, 5], [LO + 1, LO, 5]),         # LO + 1 is the build's alias
        ([5, 9], [LO, 5, LO]),              # no alias: LO matches nothing
    ])
    def test_int64_min_keys_match_like_the_host_join(self, build, probe):
        """A key equal to the empty-slot marker joins by value: it never
        "matches" a free slot, and a real key equal to the marker's alias
        never matches the marker's row."""
        build = np.array(build, dtype=np.int64)
        probe = np.array(probe, dtype=np.int64)
        result = HashJoinKernel(CostModel()).run(build, probe)
        left_idx, right_idx = match_rows(build, probe)
        assert result.left_idx.tolist() == left_idx.tolist()
        assert result.right_idx.tolist() == right_idx.tolist()

    def test_stats(self):
        kernel = HashJoinKernel(CostModel())
        result = kernel.run(np.arange(100, dtype=np.int64),
                            np.arange(200, dtype=np.int64))
        assert result.stats["matches"] == 100
        assert result.table_bytes > 0


class TestHybridJoinExecutor:
    def test_offloaded_join_matches_cpu(self, join_engine, small_catalog):
        cpu = BluEngine(small_catalog)
        gpu_result = join_engine.execute_sql(JOIN_SQL, query_id="j1")
        cpu_result = cpu.execute_sql(JOIN_SQL)
        assert tables_equal(gpu_result.table, cpu_result.table)
        assert any(e.op == "GPU-JOIN" for e in gpu_result.profile.events)
        decisions = [d for d in join_engine.monitor.decisions_for("j1")
                     if d.operator == "join"]
        assert decisions and decisions[0].path == "gpu"

    def test_int64_min_keys_join_like_the_cpu_engine(self):
        """``INT64_MIN`` in both key columns: the offloaded join pairs those
        rows with each other, not with the last dimension row."""
        rows = 6_000
        dim_keys = [LO] + list(range(1, 500))
        fact = Table.from_pydict(
            "fact", Schema.of(("fk", int64()), ("v", int64())),
            {"fk": [LO if i % 5 == 0 else i % 700 for i in range(rows)],
             "v": list(range(rows))})
        dim = Table.from_pydict(
            "dim", Schema.of(("dk", int64()), ("w", int64())),
            {"dk": dim_keys, "w": [10 * i for i in range(len(dim_keys))]})
        catalog = Catalog()
        catalog.register(fact)
        catalog.register(dim)
        config = paper_testbed()
        config = dataclasses.replace(config, thresholds=dataclasses.replace(
            config.thresholds, t1_min_rows=1_000))
        engine = GpuAcceleratedEngine(catalog, config=config,
                                      enable_join_offload=True)
        sql = "SELECT fk, w, v FROM fact JOIN dim ON fk = dk"
        gpu = engine.execute_sql(sql)
        assert any(e.op == "GPU-JOIN" for e in gpu.profile.events)
        got = gpu.table.to_pydict()
        assert {w for fk, w in zip(got["fk"], got["w"]) if fk == LO} == {0}
        assert tables_equal(gpu.table, BluEngine(catalog).execute_sql(sql).table)

    def test_small_probe_stays_on_cpu(self, join_engine):
        result = join_engine.execute_sql(
            "SELECT st_state, COUNT(*) AS c FROM sales "
            "JOIN stores ON s_store = st_id "
            "WHERE s_item = 3 GROUP BY st_state", query_id="j2")
        assert not any(e.op == "GPU-JOIN" for e in result.profile.events)

    def test_empty_build_side_is_not_called_a_small_probe(self):
        """A filter that leaves no dimension rows keeps the join on the
        CPU for that reason — the 50 000-row probe side clears T1."""
        from tests.gpu.test_fusion import fused_config, make_catalog

        engine = GpuAcceleratedEngine(
            make_catalog(), config=fused_config(fusion_enabled=False),
            enable_join_offload=True)
        result = engine.execute_sql(
            "SELECT s_store, SUM(s_paid) AS p FROM sales "
            "JOIN stores ON s_store = st_id WHERE st_state = 'ZZ' "
            "GROUP BY s_store", query_id="empty-build")
        assert result.table.num_rows == 0
        joins = [(d.path, d.reason)
                 for d in engine.monitor.decisions_for("empty-build")
                 if d.operator == "join"]
        assert joins == [("cpu-small", "build side is empty")]

    def test_disabled_by_default(self, gpu_engine):
        result = gpu_engine.execute_sql(JOIN_SQL)
        assert not any(e.op == "GPU-JOIN" for e in result.profile.events)

    def test_reservation_failure_falls_back(self, small_catalog):
        config = paper_testbed()
        tiny = dataclasses.replace(GpuSpec(), device_memory_bytes=32 * 1024)
        thresholds = dataclasses.replace(config.thresholds,
                                         t1_min_rows=1000,
                                         sort_min_rows=10**9)
        config = dataclasses.replace(config, gpus=(tiny,),
                                     thresholds=thresholds)
        engine = GpuAcceleratedEngine(small_catalog, config=config,
                                      enable_join_offload=True)
        cpu = BluEngine(small_catalog)
        gpu_result = engine.execute_sql(JOIN_SQL, query_id="j3")
        assert not any(e.op == "GPU-JOIN"
                       for e in gpu_result.profile.events)
        assert tables_equal(gpu_result.table,
                            cpu.execute_sql(JOIN_SQL).table)

    def test_memory_released(self, join_engine):
        join_engine.execute_sql(JOIN_SQL)
        for device in join_engine.devices:
            # Query-scoped reservations are gone; only column-cache
            # entries (tag="cache") may remain resident.
            assert all(r.tag == "cache"
                       for r in device.memory.live_reservations)
            cached = device.cache.cached_bytes if device.cache else 0
            assert device.memory.reserved == cached
        assert join_engine.pinned.used == 0
