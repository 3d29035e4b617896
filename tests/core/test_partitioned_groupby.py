"""Tests for the partitioned large-group-by extension (T3 overflow path)."""

import dataclasses

import pytest

from repro.blu import BluEngine
from repro.config import paper_testbed
from repro.core import GpuAcceleratedEngine


BIG_SQL = ("SELECT s_item, SUM(s_qty) AS q, SUM(s_paid) AS paid, "
           "COUNT(*) AS c FROM sales GROUP BY s_item ORDER BY q DESC")


def make_engine(small_catalog, t3: int, partition: bool):
    config = paper_testbed()
    thresholds = dataclasses.replace(config.thresholds, t1_min_rows=1000,
                                     t3_max_rows=t3, sort_min_rows=10**9)
    config = dataclasses.replace(config, thresholds=thresholds,
                                 partition_enabled=partition)
    return GpuAcceleratedEngine(small_catalog, config=config)


def sorted_dict(table):
    d = table.to_pydict()
    order = sorted(range(len(d["s_item"])), key=lambda i: d["s_item"][i])
    return {k: [v[i] for i in order] for k, v in d.items()}


class TestPartitionedGroupBy:
    def test_matches_cpu_results(self, small_catalog):
        engine = make_engine(small_catalog, t3=20_000, partition=True)
        cpu = BluEngine(small_catalog)
        gpu_result = engine.execute_sql(BIG_SQL, query_id="pg1")
        cpu_result = cpu.execute_sql(BIG_SQL)
        # The partitioned path may order equal sort keys differently;
        # compare group contents keyed by the grouping column.
        assert sorted_dict(gpu_result.table) == \
            pytest.approx(sorted_dict(cpu_result.table))

    def test_emits_multiple_gpu_events(self, small_catalog):
        engine = make_engine(small_catalog, t3=20_000, partition=True)
        result = engine.execute_sql(BIG_SQL, query_id="pg2")
        gpu_events = [e for e in result.profile.events
                      if e.op == "GPU-GROUPBY"]
        assert len(gpu_events) >= 3          # 50k rows / 20k per partition
        assert any(e.op == "PARTITION" for e in result.profile.events)
        decisions = engine.monitor.decisions_for("pg2")
        assert any(d.path == "gpu-partitioned" for d in decisions)

    def test_partitions_spread_across_devices(self, small_catalog):
        engine = make_engine(small_catalog, t3=10_000, partition=True)
        result = engine.execute_sql(BIG_SQL)
        devices = {e.device_id for e in result.profile.events
                   if e.op == "GPU-GROUPBY"}
        assert len(devices) >= 1             # leases rotate; memory released
        for device in engine.devices:
            assert device.memory.reserved == 0

    def test_disabled_falls_back_to_cpu_large(self, small_catalog):
        engine = make_engine(small_catalog, t3=20_000, partition=False)
        result = engine.execute_sql(BIG_SQL, query_id="pg3")
        assert not result.profile.offloaded
        decisions = engine.monitor.decisions_for("pg3")
        assert decisions[0].path == "cpu-large"

    def test_below_t3_uses_single_kernel(self, small_catalog):
        engine = make_engine(small_catalog, t3=10**7, partition=True)
        result = engine.execute_sql(BIG_SQL)
        gpu_events = [e for e in result.profile.events
                      if e.op == "GPU-GROUPBY"]
        assert len(gpu_events) == 1

    def test_parallel_group_ids_are_query_state_not_process_state(
            self, small_catalog):
        """Two fresh engines export the same events for the same
        statement in one process: group ids come from the query's
        ledger (0, 1, 2 ... per query), not from a process-wide counter
        (which numbered the second run 1024, 1025 ...)."""
        exports = []
        for _ in range(2):
            engine = make_engine(small_catalog, t3=10_000, partition=True)
            engine.execute_sql(BIG_SQL, query_id="pg")
            engine.execute_sql(BIG_SQL, query_id="pg-again")
            exports.append(engine.monitor.export_events())
        assert exports[0] == exports[1]
        for record in exports[0]:
            if record["kind"] != "query":
                continue
            groups = [e["parallel_group"] for e in record["events"]
                      if e["parallel_group"] >= 0]
            # Claimed in rank order from 0; flushed sorted.
            assert groups == sorted(groups)
            assert sorted(set(groups)) == list(range(len(set(groups))))
            assert len(set(groups)) >= 2
