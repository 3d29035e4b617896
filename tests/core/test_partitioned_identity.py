"""Bit-identity guarantees of out-of-core partitioned execution.

The partitioned paths promise *byte-identical* results to the stock CPU
engine — not approximately-equal aggregates.  Group-bys renumber merged
partitions into global first-appearance order and compute aggregates
over the full table, and partitioned sorts stable-merge contiguous
slices, so equality must hold exactly for any partition count and any
fault mix.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blu import BluEngine, Catalog, Schema, Table
from repro.blu.datatypes import int32, int64
from repro.config import GpuSpec, paper_testbed
from repro.core import GpuAcceleratedEngine
from repro.faults import FAULT_SITES, FaultPlan, FaultRule
from repro.gpu.partition import Rival, SplitPlan

GROUPBY_SQL = ("SELECT s_item, SUM(s_qty) AS q, SUM(s_paid) AS paid, "
               "COUNT(*) AS c FROM sales GROUP BY s_item")
SORT_SQL = "SELECT s_item, s_ticket FROM sales ORDER BY s_item"

_baseline_cache: dict[str, object] = {}


def make_engine(small_catalog, t3=20_000, partition=True, faults=None,
                gpus=None):
    config = paper_testbed()
    thresholds = dataclasses.replace(config.thresholds, t1_min_rows=1000,
                                     t3_max_rows=t3, sort_min_rows=10**9)
    config = dataclasses.replace(config, thresholds=thresholds,
                                 faults=faults, partition_enabled=partition)
    if gpus is not None:
        config = dataclasses.replace(config, gpus=gpus)
    return GpuAcceleratedEngine(small_catalog, config=config)


def cpu_baseline(small_catalog, sql):
    if sql not in _baseline_cache:
        _baseline_cache[sql] = \
            BluEngine(small_catalog).execute_sql(sql).table.to_pydict()
    return _baseline_cache[sql]


class TestPartitionCountOne:
    def test_forced_single_partition_is_byte_identical(
            self, small_catalog, monkeypatch):
        """Partition count 1 must degenerate to the unpartitioned result
        bit-for-bit: one hash partition holds every row in global order,
        and the merge renumber is the identity permutation."""
        forced = SplitPlan(
            operator="groupby", pieces=1, rows=50_000, devices=(),
            seconds=0.0, rivals=(Rival("cpu", 1.0, "would not pay"),),
            merge_seconds=0.0, working_set_bytes=1, capacity_bytes=10**9,
            reason="forced single partition")
        monkeypatch.setattr("repro.core.dispatch.price",
                            lambda *args, **kw: forced)
        engine = make_engine(small_catalog)
        result = engine.execute_sql(GROUPBY_SQL, query_id="one")
        decisions = engine.monitor.decisions_for("one")
        assert any(d.path == "gpu-partitioned" for d in decisions)
        assert result.table.to_pydict() == \
            cpu_baseline(small_catalog, GROUPBY_SQL)

    def test_many_partitions_still_byte_identical(self, small_catalog):
        """Not approximate-modulo-reordering: the real multi-partition
        path reproduces the CPU table exactly, including group order."""
        engine = make_engine(small_catalog, t3=10_000)
        result = engine.execute_sql(GROUPBY_SQL, query_id="many")
        gpu_ops = [e for e in result.profile.events
                   if e.op == "GPU-GROUPBY"]
        assert len(gpu_ops) >= 5
        assert result.table.to_pydict() == \
            cpu_baseline(small_catalog, GROUPBY_SQL)


class TestOversizedSinglePartition:
    def test_declines_to_cpu_when_no_slice_fits(self, small_catalog):
        """A device too small for even one max_partitions slice keeps
        the paper's CPU fallback — and says why."""
        tiny = dataclasses.replace(GpuSpec(), device_memory_bytes=4 * 1024)
        engine = make_engine(small_catalog, gpus=(tiny,))
        result = engine.execute_sql(GROUPBY_SQL, query_id="tiny")
        decisions = engine.monitor.decisions_for("tiny")
        assert decisions[0].path == "cpu-large"
        assert "no admissible partition count" in decisions[0].reason
        assert not any(e.uses_gpu for e in result.profile.events)
        assert result.table.to_pydict() == \
            cpu_baseline(small_catalog, GROUPBY_SQL)


fault_rules = st.builds(
    lambda site, device_id, trigger: FaultRule(
        site=site, device_id=device_id,
        stall_seconds=2e-3 if site == "transfer" else 0.0, **trigger),
    site=st.sampled_from(FAULT_SITES),
    device_id=st.sampled_from([-1, 0, 1]),
    trigger=st.one_of(
        st.integers(1, 4).map(lambda n: {"nth": (n,)}),
        st.sampled_from([0.3, 0.7, 1.0]).map(lambda p: {"probability": p}),
        st.integers(1, 3).map(lambda k: {"every": k}),
    ),
)


@given(rule=fault_rules, seed=st.integers(0, 2**16),
       t3=st.sampled_from([5_000, 10_000, 20_000]))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_partitioned_bit_identical_for_any_count_and_faults(
        small_catalog, rule, seed, t3):
    """The property the CI gate leans on: whatever the partition count
    (driven here through T3) and whatever one fault rule does to the
    partition launches — failed leases, lost devices, pinned-pool
    exhaustion — every partition that degrades re-runs on the CPU and
    the merged table equals the CPU baseline byte-for-byte."""
    plan = FaultPlan(rules=(rule,), seed=seed)
    engine = make_engine(small_catalog, t3=t3, faults=plan)
    result = engine.execute_sql(GROUPBY_SQL, query_id="prop")
    assert result.table.to_pydict() == \
        cpu_baseline(small_catalog, GROUPBY_SQL)


@given(seed=st.integers(0, 2**16), pieces=st.integers(1, 4),
       cardinality=st.sampled_from([1, 7, 300, 2500]),
       stride=st.sampled_from([1, 10**9]), nulls=st.booleans(),
       composite=st.booleans())
@settings(max_examples=30, deadline=None)
def test_pieces_as_slices_match_the_cpu_chain_for_any_piece_count(
        seed, pieces, cardinality, stride, nulls, composite):
    """The pieces of a split group-by are slices of the operator's one
    factorisation — no per-piece gather, encode or renumber-merge — and
    the result bytes still equal the CPU chain's: dense and sparse keys,
    a NULL group, one key column or two, one piece to four."""
    rng = np.random.default_rng(seed)
    rows = 3_000
    keys = (rng.integers(0, cardinality, rows) * stride).tolist()
    if nulls:
        for row in rng.integers(0, rows, rows // 10).tolist():
            keys[row] = None
    catalog = Catalog()
    catalog.register(Table.from_pydict(
        "facts",
        Schema.of(("k", int64()), ("j", int32()), ("v", int32())),
        {"k": keys, "j": rng.integers(0, 3, rows).tolist(),
         "v": rng.integers(-50, 50, rows).tolist()}))
    by = "k, j" if composite else "k"
    sql = (f"SELECT {by}, SUM(v) AS s, MIN(v) AS lo, COUNT(*) AS c "
           f"FROM facts GROUP BY {by}")
    forced = SplitPlan(
        operator="groupby", pieces=pieces, rows=rows, devices=(),
        seconds=0.0, rivals=(Rival("cpu", 1.0, "would not pay"),),
        merge_seconds=0.0, working_set_bytes=1, capacity_bytes=10**9,
        reason=f"forced {pieces} partitions")
    with mock.patch("repro.core.dispatch.price", lambda *a, **kw: forced):
        engine = make_engine(catalog, t3=1_000)
        result = engine.execute_sql(sql, query_id="slices")
    assert any(d.path == "gpu-partitioned"
               for d in engine.monitor.decisions_for("slices"))
    assert result.table.to_pydict() == \
        BluEngine(catalog).execute_sql(sql).table.to_pydict()
