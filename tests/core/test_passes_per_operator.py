"""The offloaded path's host cost, pinned by counting calls — not by timing.

The paper's chain computes each thing once (LOAD -> CCAT -> HASH -> KMV ->
MEMCPY, then one hash-table kernel), and so does the host that simulates
it: one ``group_encode`` per executed group-by, whatever kernels, rivals
or pieces then read it; a KMV sketch fed the distinct keys' hashes, never
every row's; a dense-span join probe with no factorisation at all; one
build and one probe walk per sharded join, whatever the device count; and
one content digest per ``Column``, however many roles, planners or passes
ask for it.  Each assertion failed before PR 21.
"""

import dataclasses
import sys

import numpy as np
import pytest

from repro.blu import BluEngine, Catalog
from repro.blu.datatypes import int64
from repro.blu.expressions import AggFunc
from repro.config import CostModel, Thresholds, paper_testbed
from repro.core import GpuAcceleratedEngine
from repro.core.dispatch import Dispatcher
from repro.core.moderator import GpuModerator, _run_with_regrow
from repro.gpu.kernels.hashtable import GpuHashTable
from repro.gpu.kernels.join import _join_layout
from repro.gpu.kernels.request import GroupByRequest, PayloadSpec
from repro.workloads.bdinsights import bd_insights_queries
from repro.workloads.cognos_rolap import screen_queries
from repro.workloads.datagen import scaled_config
from repro.workloads.driver import table_checksum
from tests.conftest import build_sales_table

BD = {q.query_id: q for q in bd_insights_queries()}


def counting(monkeypatch, name):
    """Count calls of ``repro``'s function ``name`` through every module
    that imported it; returns the ``(first argument, result)`` list."""
    calls = []
    owners = [m for key, m in sorted(sys.modules.items())
              if key.startswith("repro") and callable(getattr(m, name, None))]
    original = getattr(owners[0], name)
    assert all(getattr(m, name) is original for m in owners)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args[0], result))
        return result

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


class Counts:
    """Every counted function of one (second, warm) execution."""

    def __init__(self, monkeypatch, engine, query):
        engine.execute_sql(query.sql, query_id=query.query_id)
        self.encodes = counting(monkeypatch, "group_encode")
        self.hashes = counting(monkeypatch, "murmur3_fmix64")
        self.sketches = counting(monkeypatch, "estimate_distinct")
        self.digests = counting(monkeypatch, "content_digest")
        self.probes = counting(monkeypatch, "_probe")
        self.splits = counting(monkeypatch, "split_rows")
        self.encodes_at_probe = []
        probe = sys.modules["repro.gpu.kernels.join"]._probe

        def probing(*args):
            before = len(self.encodes)
            result = probe(*args)
            self.encodes_at_probe.append(len(self.encodes) - before)
            return result

        monkeypatch.setattr("repro.gpu.kernels.join._probe", probing)
        self.result = engine.execute_sql(query.sql, query_id=query.query_id)
        self.paths = [(d.operator, d.path) for d in
                      engine.monitor.decisions_for(query.query_id)]
        monkeypatch.undo()

    @property
    def operator(self):
        """``(rows, groups)`` of the group-by: the largest factorisation."""
        keys, (_index, first_row, groups) = max(
            self.encodes, key=lambda call: len(call[0][0]))
        assert len(first_row) == groups
        return len(keys[0]), groups


def test_fused_chain_factorises_once_and_probes_by_value(
        monkeypatch, bd_catalog, bd_config):
    engine = GpuAcceleratedEngine(bd_catalog, config=bd_config)
    counts = Counts(monkeypatch, engine, BD["C1"])
    assert ("fused", "gpu-fused") in counts.paths
    joins = len(counts.probes)
    assert joins >= 1
    # One per join build side (which has no host chain) and one for the
    # group-by; the parent ran five per fused query.
    assert len(counts.encodes) == joins + 1
    assert counts.encodes_at_probe == [0] * joins      # dense spans
    rows, groups = counts.operator
    assert groups < rows
    # KMV is fed the distinct keys' hashes, and nothing hashes per row.
    assert [len(hashes) for hashes, _ in counts.sketches] == [groups]
    build_rows = max(len(table.table) for table, _ in counts.probes)
    assert max(len(keys) for keys, _ in counts.hashes) \
        <= max(groups, build_rows)


def test_raced_kernels_read_one_factorisation(monkeypatch, bd_catalog,
                                              bd_config):
    engine = GpuAcceleratedEngine(bd_catalog, config=bd_config,
                                  race_kernels=True)
    rolap = {q.query_id: q for q in screen_queries(engine)[0]}
    counts = Counts(monkeypatch, engine, rolap["Q10"])
    assert ("groupby", "gpu") in counts.paths
    assert engine.registry.get("repro_kernels_raced_total").value >= 1
    rows, groups = counts.operator
    assert [len(keys[0]) for keys, _ in counts.encodes] == [rows]
    assert [len(hashes) for hashes, _ in counts.sketches] == [groups]


def test_over_memory_pieces_are_slices_of_one_factorisation(
        monkeypatch, bd_catalog, bd_config):
    engine = GpuAcceleratedEngine(bd_catalog, config=bd_config)
    query = screen_queries(engine)[1][0]
    counts = Counts(monkeypatch, engine, query)
    assert ("groupby", "gpu-partitioned") in counts.paths
    rows, groups = counts.operator
    # One per operator, where the parent ran one per piece.
    assert [len(keys[0]) for keys, _ in counts.encodes] == [rows]
    pieces = [len(hashes) for hashes, _ in counts.sketches]
    assert len(pieces) >= 2 and sum(pieces) == groups


def test_sharded_groupby_factorises_once_and_sort_shards_need_no_digest(
        monkeypatch, bd_catalog):
    config = dataclasses.replace(
        scaled_config(bd_catalog, gpus=4), shard_enabled=True,
        nvlink_enabled=True, fusion_enabled=False)
    engine = GpuAcceleratedEngine(bd_catalog, config=config,
                                  enable_join_offload=True)
    counts = Counts(monkeypatch, engine, BD["C4"])
    assert ("groupby", "gpu-sharded") in counts.paths
    assert ("sort", "gpu-sharded") in counts.paths
    rows, groups = counts.operator
    assert groups < rows
    assert [len(keys[0]) for keys, _ in counts.encodes] == [rows]
    # The whole-input sketch, then one per shard: all over distinct keys.
    whole, *shards = [len(hashes) for hashes, _ in counts.sketches]
    assert whole == groups and sum(shards) == groups
    # A split sort reads only the segment's table name: nothing to name.
    assert counts.digests == []
    reference = BluEngine(bd_catalog).execute_sql(BD["C4"].sql).table
    assert table_checksum(counts.result.table) == table_checksum(reference)


def _sharded_engine(bd_catalog, gpus):
    config = dataclasses.replace(
        scaled_config(bd_catalog, gpus=gpus), shard_enabled=True,
        nvlink_enabled=True, fusion_enabled=False)
    return GpuAcceleratedEngine(bd_catalog, config=config,
                                enable_join_offload=True)


@pytest.mark.parametrize("gpus", [0, 2, 4])
def test_one_murmur_per_group_by_whatever_the_piece_count(
        monkeypatch, bd_catalog, bd_config, gpus):
    """The chain hashes the distinct keys once; the piece split, each
    piece's KMV sketch and each kernel's slot choice reuse those hashes
    (0: the over-memory query in partitions on the default config)."""
    if gpus:
        engine = _sharded_engine(bd_catalog, gpus)
        query, path = BD["C4"], "gpu-sharded"
    else:
        engine = GpuAcceleratedEngine(bd_catalog, config=bd_config)
        query, path = screen_queries(engine)[1][0], "gpu-partitioned"
    counts = Counts(monkeypatch, engine, query)
    assert ("groupby", path) in counts.paths
    rows, groups = counts.operator
    assert [len(keys) for keys, _ in counts.hashes] == [groups]
    # The whole-input sketch (sharded only), then one per piece.
    pieces = len(counts.sketches) - bool(gpus)
    assert pieces == gpus if gpus else pieces >= 2


@pytest.mark.parametrize("query_id,row_kernel", [
    ("over-memory", False), ("C4", False), ("C5", True)])
def test_pieces_split_rows_only_for_a_kernel_that_reads_them(
        monkeypatch, bd_catalog, bd_config, query_id, row_kernel):
    """Pieces are cut at the group level: the per-row split runs once, and
    only when the shared-memory kernel, which reads rows, takes a piece —
    never for the regular or biglock kernel.  The over-memory query runs
    in partitions, BD C4 and C5 in four shards."""
    if query_id == "over-memory":
        engine = GpuAcceleratedEngine(bd_catalog, config=bd_config)
        query = screen_queries(engine)[1][0]
    else:
        engine = _sharded_engine(bd_catalog, 4)
        query = BD[query_id]
    pieces = []
    shared = sys.modules["repro.gpu.kernels.groupby_shared"]
    run = shared.SharedMemoryGroupByKernel.run
    monkeypatch.setattr(shared.SharedMemoryGroupByKernel, "run",
                        lambda self, request, headroom=1.5: (
                            pieces.append(request.keys is None)
                            or run(self, request, headroom)))
    counts = Counts(monkeypatch, engine, query)
    rows, groups = counts.operator
    assert any(pieces) is row_kernel
    splits = [len(part) for part, _ in counts.splits]
    assert splits == [groups] + ([rows] if row_kernel else [])
    reference = BluEngine(bd_catalog).execute_sql(query.sql).table
    assert table_checksum(counts.result.table) == table_checksum(reference)


@pytest.mark.parametrize("gpus", [2, 4, 8])
@pytest.mark.parametrize("query_id", ["C1", "C2", "C3"])
def test_sharded_join_builds_and_walks_once_whatever_the_device_count(
        monkeypatch, bd_catalog, query_id, gpus):
    """Each shard's piece is a row range of one build and one probe walk
    per join, however many devices the probe side shards across.  BD
    C1–C3 hold the complex class's sharded FK joins; C4 joins nothing."""
    config = dataclasses.replace(
        scaled_config(bd_catalog, gpus=gpus), shard_enabled=True,
        nvlink_enabled=True, fusion_enabled=False)
    engine = GpuAcceleratedEngine(bd_catalog, config=config,
                                  enable_join_offload=True)
    probes = counting(monkeypatch, "_probe")
    tables = []
    insert = GpuHashTable.insert
    monkeypatch.setattr(GpuHashTable, "insert", lambda table, factors: (
        tables.append(table) or insert(table, factors)))
    result = engine.execute_sql(BD[query_id].sql, query_id=query_id)
    monkeypatch.undo()
    joins = [d.path for d in engine.monitor.decisions_for(query_id)
             if d.operator == "join"]
    assert joins and set(joins) == {"gpu-sharded"}
    assert any(event.op == "GPU-JOIN" and event.parallel_group is not None
               for event in result.profile.events)
    join_tables = [t for t in tables if t.layout == _join_layout(t.key_bits)]
    assert len(join_tables) == len(probes) == len(joins)
    reference = BluEngine(bd_catalog).execute_sql(BD[query_id].sql).table
    assert table_checksum(result.table) == table_checksum(reference)


def test_one_digest_per_column_whatever_the_roles_and_passes(monkeypatch):
    """``s_item`` ships as a grouping key and as a payload; a second
    identical pass re-hashes nothing (unfiltered scans hand the catalog's
    own columns on).  A fresh table: its columns carry no digest yet."""
    sql = ("SELECT s_item, SUM(s_item) AS t, SUM(s_qty) AS q "
           "FROM sales GROUP BY s_item")
    catalog = Catalog()
    catalog.register(build_sales_table())
    config = paper_testbed()
    config = dataclasses.replace(config, thresholds=dataclasses.replace(
        config.thresholds, t1_min_rows=5_000))
    gpu_engine = GpuAcceleratedEngine(catalog, config=config)
    digests = counting(monkeypatch, "content_digest")
    gpu_engine.execute_sql(sql, query_id="cold")
    assert ("groupby", "gpu") in [
        (d.operator, d.path) for d in gpu_engine.monitor.decisions_for("cold")]
    assert len(digests) == 2                # s_item once, s_qty once
    gpu_engine.execute_sql(sql, query_id="warm")
    assert len(digests) == 2


def test_second_fused_pass_rehashes_no_catalog_column(
        monkeypatch, bd_catalog, bd_config):
    """Two planners name the chain's columns (the fused external inputs,
    the resident group-by slices); only the columns the join derived —
    new objects every pass — are hashed again."""
    engine = GpuAcceleratedEngine(bd_catalog, config=bd_config)
    counts = Counts(monkeypatch, engine, BD["C1"])
    catalog_arrays = {id(column.data) for table in bd_catalog
                      for column in table.columns}
    assert counts.digests
    assert not [array for array, _ in counts.digests
                if id(array) in catalog_arrays]


def test_no_digest_when_no_device_caches(monkeypatch, bd_catalog, bd_config):
    """``cache_fraction = 0``: nobody looks a key up, so nobody names one —
    and naming them anyway (the parent's behaviour) changes nothing."""
    config = dataclasses.replace(bd_config, cache_fraction=0.0)
    queries = [BD["C1"], BD["C4"], screen_queries(
        GpuAcceleratedEngine(bd_catalog, config=config))[1][0]]

    def one_pass():
        engine = GpuAcceleratedEngine(bd_catalog, config=config)
        results = [engine.execute_sql(q.sql, query_id=q.query_id)
                   for q in queries]
        assert any(r.profile.offloaded for r in results)
        return [(table_checksum(r.table), r.profile.events) for r in results]

    digests = counting(monkeypatch, "content_digest")
    quiet = one_pass()
    assert digests == []
    monkeypatch.setattr(Dispatcher, "caching", True)
    assert one_pass() == quiet
    assert digests


@pytest.mark.parametrize("kernel_name", ["groupby_regular",
                                         "groupby_biglock"])
def test_undersized_attempts_execute_no_probe_round(monkeypatch,
                                                    kernel_name):
    """An 8x under-estimate regrows twice (x4, x4) to the table a correct
    estimate of 2G would have built, and pays for the two aborted attempts
    from ``table_bytes`` and the row count — without simulating a round."""
    cost = CostModel()
    moderator = GpuModerator(cost, Thresholds())
    kernel = getattr(moderator, "kernel_" + kernel_name.split("_")[1])
    groups = 8_000
    keys = np.random.default_rng(3).permutation(
        np.repeat(np.arange(groups, dtype=np.int64) * 31, 5))
    payloads = [PayloadSpec(int64(), AggFunc.SUM)]

    def request(estimate):
        return GroupByRequest(keys=keys, key_bits=64, payloads=payloads,
                              estimated_groups=estimate)

    walks = []
    slot_of = GpuHashTable._slot_of
    monkeypatch.setattr(
        GpuHashTable, "_slot_of",
        lambda self, k: walks.append(self.slots) or slot_of(self, k))
    result, wasted, retries = _run_with_regrow(kernel, request(groups // 8))
    assert retries == 2
    assert walks == [int(2 * groups * 1.5)]     # only the table that fits
    assert result.n_groups == groups
    assert result.kernel_seconds == kernel.run(request(2 * groups)
                                               ).kernel_seconds
    assert wasted == sum(
        kernel.table_bytes(request(estimate)) / cost.gpu_init_rate
        + len(keys) / cost.gpu_ht_insert_rate
        for estimate in (groups // 8, groups // 2))
