"""Integration tests for the hybrid group-by executor (Figures 2-3)."""

import dataclasses

import pytest

from repro.blu import BluEngine
from repro.config import GpuSpec, paper_testbed
from repro.core import GpuAcceleratedEngine
from tests.conftest import tables_equal


GROUPBY_SQL = ("SELECT s_item, SUM(s_qty) AS q, SUM(s_paid) AS paid, "
               "COUNT(*) AS c FROM sales GROUP BY s_item")
SMALL_SQL = ("SELECT s_store, COUNT(*) AS c FROM sales "
             "WHERE s_item = 7 GROUP BY s_store")


class TestOffloadPaths:
    def test_sweet_spot_offloads(self, gpu_engine):
        result = gpu_engine.execute_sql(GROUPBY_SQL, query_id="gq")
        assert result.profile.offloaded
        ops = [e.op for e in result.profile.events]
        assert "GPU-GROUPBY" in ops
        assert "KMV" in ops and "MEMCPY" in ops
        assert "LGHT" not in ops                  # removed from the chain

    def test_small_query_stays_on_cpu(self, gpu_engine):
        result = gpu_engine.execute_sql(SMALL_SQL, query_id="small")
        assert not result.profile.offloaded
        ops = [e.op for e in result.profile.events]
        assert "LGHT" in ops                      # stock Figure-1 chain
        decisions = gpu_engine.monitor.decisions_for("small")
        assert decisions and decisions[0].path == "cpu-small"

    def test_oversized_query_routed_to_cpu(self, small_catalog):
        config = paper_testbed()
        thresholds = dataclasses.replace(config.thresholds,
                                         t1_min_rows=100, t3_max_rows=1000)
        config = dataclasses.replace(config, thresholds=thresholds)
        engine = GpuAcceleratedEngine(small_catalog, config=config)
        result = engine.execute_sql(GROUPBY_SQL, query_id="big")
        assert not result.profile.offloaded
        decisions = engine.monitor.decisions_for("big")
        assert decisions[0].path == "cpu-large"

    def test_reservation_failure_falls_back_to_cpu(self, small_catalog):
        """Section 2.1.1 option 2: no device memory -> run on the host.

        The devices are full-sized (the working-set screen would route a
        query to the CPU before trying to reserve on an undersized card),
        but another tenant holds almost all of their memory, so the
        runtime reservation fails and the query degrades to the CPU chain.
        """
        config = paper_testbed()
        thresholds = dataclasses.replace(config.thresholds,
                                         t1_min_rows=1000,
                                         sort_min_rows=1000)
        config = dataclasses.replace(config, thresholds=thresholds)
        engine = GpuAcceleratedEngine(small_catalog, config=config)
        hogs = [
            engine.scheduler.try_acquire(
                device.memory.capacity - device.memory.reserved - 1024,
                tag="hog")
            for device in engine.devices
        ]
        assert all(hogs)
        try:
            result = engine.execute_sql(GROUPBY_SQL, query_id="starved")
        finally:
            for hog in hogs:
                engine.scheduler.release(hog)
        assert not result.profile.offloaded
        decisions = engine.monitor.decisions_for("starved")
        assert any(d.path == "cpu-fallback" for d in decisions)
        assert engine.registry.get(
            "repro_reservation_fallbacks_total").value >= 1


class TestFunctionalParity:
    @pytest.mark.parametrize("sql", [
        GROUPBY_SQL,
        "SELECT s_store, s_channel, SUM(s_paid) AS p, MIN(s_qty) AS mn, "
        "MAX(s_qty) AS mx FROM sales GROUP BY s_store, s_channel",
        "SELECT s_item, AVG(s_paid) AS avg_paid FROM sales "
        "WHERE s_qty > 20 GROUP BY s_item",
        "SELECT s_channel, MIN(s_channel) AS lo, COUNT(*) AS c "
        "FROM sales GROUP BY s_channel",
    ])
    def test_gpu_result_equals_cpu_result(self, sql, gpu_engine,
                                          small_catalog):
        cpu = BluEngine(small_catalog)
        gpu_result = gpu_engine.execute_sql(sql)
        cpu_result = cpu.execute_sql(sql)
        assert tables_equal(gpu_result.table, cpu_result.table)

    def test_memory_released_after_query(self, gpu_engine):
        gpu_engine.execute_sql(GROUPBY_SQL)
        for device in gpu_engine.devices:
            # Only the column cache's own entries may outlive the query;
            # every query-scoped reservation must be gone.
            live = device.memory.live_reservations
            assert all(r.tag == "cache" for r in live)
            cached = device.cache.cached_bytes if device.cache else 0
            assert device.memory.reserved == cached
            assert device.outstanding_jobs == 0
        assert gpu_engine.pinned.used == 0


class TestAccounting:
    def test_gpu_event_carries_memory_and_device(self, gpu_engine):
        result = gpu_engine.execute_sql(GROUPBY_SQL)
        gpu_events = [e for e in result.profile.events if e.uses_gpu]
        assert gpu_events
        event = gpu_events[0]
        assert event.gpu_memory_bytes > 0
        assert event.device_id in (0, 1)
        assert event.max_degree == 1              # one dispatching thread

    def test_monitor_sees_the_kernel(self, gpu_engine):
        gpu_engine.execute_sql(GROUPBY_SQL)
        records = [r for launches in gpu_engine.monitor.launches().values()
                   for r in launches]
        assert any(r["kernel"].startswith("groupby") for r in records)

    def test_offload_cheaper_on_host_than_cpu_chain(self, gpu_engine,
                                                    small_catalog):
        cpu = BluEngine(small_catalog)
        gpu_result = gpu_engine.execute_sql(GROUPBY_SQL)
        cpu_result = cpu.execute_sql(GROUPBY_SQL)
        assert gpu_result.profile.cpu_core_seconds < \
            cpu_result.profile.cpu_core_seconds


class TestRacing:
    def test_racing_engine_matches_results(self, small_catalog):
        config = paper_testbed()
        thresholds = dataclasses.replace(config.thresholds,
                                         t1_min_rows=5000,
                                         sort_min_rows=5000)
        config = dataclasses.replace(config, thresholds=thresholds)
        racing = GpuAcceleratedEngine(small_catalog, config=config,
                                      race_kernels=True)
        plain = BluEngine(small_catalog)
        r1 = racing.execute_sql(GROUPBY_SQL)
        r2 = plain.execute_sql(GROUPBY_SQL)
        assert tables_equal(r1.table, r2.table)
        assert racing.registry.get("repro_kernels_raced_total").value >= 1
        assert racing.registry.get(
            "repro_kernels_cancelled_total").value >= 1


class TestDistinctOnGpuPath:
    def test_count_distinct_parity(self, gpu_engine, small_catalog):
        from repro.blu import BluEngine

        sql = ("SELECT s_store, COUNT(DISTINCT s_item) AS items, "
               "SUM(DISTINCT s_qty) AS dq FROM sales GROUP BY s_store")
        cpu = BluEngine(small_catalog)
        gpu_result = gpu_engine.execute_sql(sql)
        assert gpu_result.profile.offloaded
        assert tables_equal(gpu_result.table, cpu.execute_sql(sql).table)
