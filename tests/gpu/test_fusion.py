"""Fusion planner and fused execution path (see docs/fusion.md).

Covers the three layers of the fusion contract: chain recognition over
compiled plans, the three-gate fuse/no-fuse decision, and the fused
launch itself — including every degradation seam, the observability
surface, and the headline bit-identity guarantee under arbitrary knobs
and fault plans.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.blu import BluEngine, Catalog, Schema, Table
from repro.blu.datatypes import float64, int32, varchar
from repro.blu.engine import OperatorContext
from repro.blu.plan import FilterNode, GroupByNode, JoinNode, ScanNode
from repro.blu.sql import parse_query
from repro.config import Thresholds, paper_testbed
from repro.core import GpuAcceleratedEngine
from repro.core.dispatch import Dispatcher
from repro.core.hybrid_groupby import HybridGroupByExecutor
from repro.core.monitoring import PerformanceMonitor
from repro.faults import FaultPlan, FaultRule
from repro.gpu.fusion import (
    FusedChainEstimate,
    FusedExecutor,
    estimate_chain,
    find_fusable_chain,
)
from repro.obs.tracing import Tracer
from repro.timing import CostLedger
from tests.conftest import tables_equal


def fused_config(fusion_enabled=True, faults=None, pipeline_depth=4,
                 chunk_bytes=1 << 20, cache_fraction=None):
    """Unit-test scale: thresholds low enough that 50k-row joins offload
    and six-group aggregates pass the T2 gate."""
    config = paper_testbed()
    thresholds = dataclasses.replace(config.thresholds, t1_min_rows=5_000,
                                     t2_min_groups=4, sort_min_rows=5_000)
    kwargs = dict(thresholds=thresholds, fusion_enabled=fusion_enabled,
                  faults=faults, pipeline_depth=pipeline_depth,
                  chunk_bytes=chunk_bytes)
    if cache_fraction is not None:
        kwargs["cache_fraction"] = cache_fraction
    return dataclasses.replace(config, **kwargs)


def make_catalog(n=50_000, seed=42, dup_dim_keys=False):
    """Fact + two dimensions, enough for a two-join fusable chain.

    ``dup_dim_keys`` duplicates the store dimension's key column — the
    documented out-of-scope input that must degrade the chain to the
    per-operator path, never corrupt it.
    """
    rng = np.random.default_rng(seed)
    fact = Table.from_pydict("sales", Schema.of(
        ("s_item", int32()), ("s_store", int32()),
        ("s_qty", int32()), ("s_paid", float64()),
    ), {
        "s_item": rng.integers(1, 40, n).tolist(),
        "s_store": rng.integers(1, 13, n).tolist(),
        "s_qty": rng.integers(1, 100, n).tolist(),
        "s_paid": np.round(rng.random(n) * 500, 2).tolist(),
    })
    store_ids = list(range(1, 13))
    if dup_dim_keys:
        store_ids = store_ids[:6] * 2            # every key twice
    states = ["CA", "NY", "TX", "WA", "IL", "FL"]
    stores = Table.from_pydict("stores", Schema.of(
        ("st_id", int32()), ("st_state", varchar(2)),
    ), {
        "st_id": store_ids,
        "st_state": [states[i % 6] for i in range(12)],
    })
    items = Table.from_pydict("items", Schema.of(
        ("i_id", int32()), ("i_class", varchar(4)),
    ), {
        "i_id": list(range(1, 40)),
        "i_class": [f"c{i % 5}" for i in range(39)],
    })
    catalog = Catalog()
    for table in (fact, stores, items):
        catalog.register(table)
    return catalog


ONE_JOIN_SQL = ("SELECT st_state, SUM(s_paid) AS paid, COUNT(*) AS c "
                "FROM sales JOIN stores ON s_store = st_id "
                "GROUP BY st_state")
TWO_JOIN_SQL = ("SELECT st_state, i_class, SUM(s_paid) AS paid "
                "FROM sales JOIN stores ON s_store = st_id "
                "JOIN items ON s_item = i_id "
                "GROUP BY st_state, i_class")


def groupby_of(plan):
    node = plan
    while node is not None and not isinstance(node, GroupByNode):
        node = node.children[0] if node.children else None
    assert node is not None, "plan has no group-by"
    return node


# ---------------------------------------------------------------------------
# Chain recognition
# ---------------------------------------------------------------------------


class TestChainRecognition:
    def setup_method(self):
        self.catalog = make_catalog(n=500)

    def test_single_join_chain(self):
        node = groupby_of(parse_query(ONE_JOIN_SQL, catalog=self.catalog))
        chain = find_fusable_chain(node)
        assert chain is not None
        assert chain.stages == 2
        assert len(chain.joins) == 1
        assert isinstance(chain.probe, ScanNode)
        assert chain.probe.table_name == "sales"
        assert chain.builds[0].table_name == "stores"

    def test_two_join_chain_orders_builds_bottom_up(self):
        node = groupby_of(parse_query(TWO_JOIN_SQL, catalog=self.catalog))
        chain = find_fusable_chain(node)
        assert chain is not None
        assert chain.stages == 3
        assert [j.right.table_name for j in chain.joins] == \
               [b.table_name for b in chain.builds]
        # Bottom-up: the innermost join (stores) runs first.
        assert chain.builds[0].table_name == "stores"
        assert chain.builds[1].table_name == "items"

    def test_residual_filter_joins_the_spine(self):
        # A cross-table predicate cannot push below the join, so it
        # stays as a FilterNode on the chain's spine.
        sql = ("SELECT st_state, SUM(s_paid) AS paid "
               "FROM sales JOIN stores ON s_store = st_id "
               "WHERE s_paid > st_id GROUP BY st_state")
        node = groupby_of(parse_query(sql, catalog=self.catalog))
        assert isinstance(node.child, FilterNode)
        chain = find_fusable_chain(node)
        assert chain is not None
        assert chain.stages == 3
        assert isinstance(chain.spine[0], FilterNode)
        assert isinstance(chain.spine[1], JoinNode)

    def test_no_join_means_no_chain(self):
        sql = "SELECT s_store, SUM(s_paid) AS p FROM sales GROUP BY s_store"
        node = groupby_of(parse_query(sql, catalog=self.catalog))
        assert find_fusable_chain(node) is None

    def test_keyless_aggregate_means_no_chain(self):
        node = groupby_of(parse_query(ONE_JOIN_SQL, catalog=self.catalog))
        keyless = GroupByNode(node.child, keys=(), aggs=node.aggs)
        assert find_fusable_chain(keyless) is None

    def test_estimates_price_both_alternatives(self):
        engine = BluEngine(self.catalog)
        plan = parse_query(TWO_JOIN_SQL, catalog=self.catalog)
        engine.optimizer.annotate(plan)
        chain = find_fusable_chain(groupby_of(plan))
        estimate = estimate_chain(chain, fused_config(), self.catalog,
                                  degree=8)
        assert estimate.fused_seconds > 0
        assert estimate.unfused_seconds > 0
        assert estimate.fused_bytes > 0
        # Owner-granularity staging must undercut per-op GPU transfers.
        assert estimate.fused_bytes < estimate.per_op_gpu_bytes


# ---------------------------------------------------------------------------
# Decision gates
# ---------------------------------------------------------------------------


class TestDecisionGates:
    """``FusedExecutor._decide`` over injected estimates: Figure 3 gates
    first, then the shared cost gate on seconds, then the byte budget."""

    @pytest.fixture(autouse=True)
    def _chain(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.catalog = make_catalog(n=500)
        plan = parse_query(TWO_JOIN_SQL, catalog=self.catalog)
        BluEngine(self.catalog).optimizer.annotate(plan)
        self.chain = find_fusable_chain(groupby_of(plan))

    def _decide(self, gpu_verdict=True, fused_s=1e-3, unfused_s=2e-3,
                fused_b=100, per_op_b=200, tracer=None):
        self.monkeypatch.setattr(
            "repro.gpu.fusion.estimate_chain",
            lambda *args: FusedChainEstimate(fused_s, unfused_s, fused_b,
                                             per_op_b))
        # T1 decides the Figure-3 verdict for the 500-row chain.
        thresholds = Thresholds(
            t1_min_rows=1 if gpu_verdict else 10**12, t2_min_groups=1)
        executor = FusedExecutor(
            groupby=HybridGroupByExecutor(
                dispatch=Dispatcher(
                    scheduler=None, pinned=None,
                    monitor=PerformanceMonitor(tracer=tracer),
                    catalog=self.catalog),
                moderator=None, thresholds=thresholds),
            join=None)
        ctx = OperatorContext(fused_config(), CostLedger(), 8)
        return executor._decide(self.chain, ctx)

    def test_cpu_verdict_blocks_fusion(self):
        decision = self._decide(gpu_verdict=False)
        assert not decision.taken
        assert decision.reason == ("group-by verdict is cpu-small: chain "
                                   "stays on the per-operator path")

    def test_slower_fused_time_blocks_fusion(self):
        decision = self._decide(fused_s=3e-3, unfused_s=2e-3)
        assert not decision.taken
        assert decision.reason == ("fused~3.000ms >= unfused~2.000ms: "
                                   "fusion would not pay")

    def test_a_tie_on_time_blocks_fusion(self):
        assert not self._decide(fused_s=2e-3, unfused_s=2e-3).taken

    def test_more_bytes_blocks_fusion(self):
        decision = self._decide(fused_b=300, per_op_b=200)
        assert not decision.taken
        assert decision.reason == ("fused bytes 300 > per-op GPU bytes 200: "
                                   "fusion would ship more over PCIe")

    def test_time_is_judged_before_bytes(self):
        decision = self._decide(fused_s=3e-3, fused_b=300)
        assert "would not pay" in decision.reason

    def test_all_gates_open_fuses(self):
        decision = self._decide()
        assert decision.taken
        assert decision.reason == (
            "3-stage chain: fused~1.000ms < unfused~2.000ms, "
            "elides 100 transfer bytes")

    def test_decision_emits_pathselect_instant(self):
        tracer = Tracer()
        with tracer.span("query"):
            self._decide(tracer=tracer)
            self._decide(gpu_verdict=False, tracer=tracer)
        instants = [s for s in tracer.spans if s.name == "pathselect.fused"]
        assert len(instants) == 2
        assert instants[0].attributes["fuse"] is True
        assert instants[1].attributes["fuse"] is False
        # The estimates ride the instant whatever the verdict.
        for instant in instants:
            assert instant.attributes["fused_seconds"] == 1e-3
            assert instant.attributes["per_op_gpu_bytes"] == 200

    def test_figure3_mark_follows_a_fused_verdict_only(self):
        """Figure 3 is evaluated once; its ``pathselect.groupby`` mark
        lands after the fused one, and only when the chain fuses (a
        declined chain's per-operator path leaves its own)."""
        from repro.core import pathselect

        evaluations = []
        figure3 = pathselect._groupby_decision
        self.monkeypatch.setattr(
            pathselect, "_groupby_decision",
            lambda *args: evaluations.append(args) or figure3(*args))
        tracer = Tracer()
        with tracer.span("query"):
            self._decide(tracer=tracer)
            self._decide(fused_s=3e-3, tracer=tracer)
        marks = [s.name for s in tracer.spans
                 if s.name.startswith("pathselect.")]
        assert marks == ["pathselect.fused", "pathselect.groupby",
                         "pathselect.fused"]
        assert len(evaluations) == 2


# ---------------------------------------------------------------------------
# Fused execution
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fusion_catalog():
    return make_catalog()


@pytest.fixture(scope="module")
def cpu_answers(fusion_catalog):
    engine = BluEngine(fusion_catalog)
    return {sql: engine.execute_sql(sql).table
            for sql in (ONE_JOIN_SQL, TWO_JOIN_SQL)}


class TestFusedExecution:
    def test_results_bit_identical_to_cpu(self, fusion_catalog, cpu_answers):
        engine = GpuAcceleratedEngine(fusion_catalog, config=fused_config())
        for sql in (ONE_JOIN_SQL, TWO_JOIN_SQL):
            assert tables_equal(engine.execute_sql(sql).table,
                                cpu_answers[sql])

    def test_chain_runs_as_one_launch(self, fusion_catalog):
        engine = GpuAcceleratedEngine(fusion_catalog, config=fused_config())
        engine.execute_sql(TWO_JOIN_SQL, query_id="fused")
        spans = engine.tracer.spans
        fused = [s for s in spans if s.name == "op.fused"]
        assert len(fused) == 1
        assert fused[0].attributes["stages"] == 3
        assert fused[0].attributes["joins"] == 2
        # One gpu.launch for the whole chain, named for its stages.
        launches = [s for s in spans if s.name == "gpu.launch"
                    and str(s.attributes.get("kernel", "")).startswith(
                        "fused:")]
        assert len(launches) == 1
        kernel = launches[0].attributes["kernel"]
        assert kernel.count("hash_join") == 2
        assert launches[0].attributes["fused_stages"] == 3

    def test_filter_stage_fuses_and_matches_cpu(self, fusion_catalog):
        # Residual (cross-table) predicate: a FilterNode rides the spine
        # and executes as a device scan stage inside the launch.  The OR
        # chain keeps the estimated selectivity high enough that fusion
        # still wins the bytes gate (low-selectivity spine filters favour
        # the per-operator path, which ships post-filter granularity).
        sql = ("SELECT st_state, i_class, SUM(s_paid) AS paid FROM sales "
               "JOIN stores ON s_store = st_id JOIN items ON s_item = i_id "
               "WHERE s_paid > st_id OR s_qty > st_id OR s_item > st_id "
               "GROUP BY st_state, i_class")
        want = BluEngine(fusion_catalog).execute_sql(sql).table
        engine = GpuAcceleratedEngine(fusion_catalog, config=fused_config())
        got = engine.execute_sql(sql, query_id="filter-stage")
        assert tables_equal(got.table, want)
        fused = next(s for s in engine.tracer.spans if s.name == "op.fused")
        assert fused.attributes["stages"] == 4
        launch = next(s for s in engine.tracer.spans
                      if s.name == "gpu.launch"
                      and "fused:" in str(s.attributes.get("kernel", "")))
        assert "scan" in launch.attributes["kernel"]

    def test_low_selectivity_spine_filter_declines_on_bytes(
            self, fusion_catalog, cpu_answers):
        # A single 0.33-selectivity residual filter makes the per-op
        # path's post-filter staging cheaper: the bytes gate must say no
        # and the per-operator chain must run instead, bit-identically.
        sql = ("SELECT st_state, SUM(s_paid) AS paid "
               "FROM sales JOIN stores ON s_store = st_id "
               "WHERE s_paid > st_id GROUP BY st_state")
        want = BluEngine(fusion_catalog).execute_sql(sql).table
        engine = GpuAcceleratedEngine(fusion_catalog, config=fused_config())
        got = engine.execute_sql(sql, query_id="decline")
        assert tables_equal(got.table, want)
        assert not any(s.name == "op.fused" for s in engine.tracer.spans)
        verdict = next(s for s in engine.tracer.spans
                       if s.name == "pathselect.fused")
        assert verdict.attributes["fuse"] is False
        assert "more over PCIe" in verdict.attributes["reason"]

    def test_fused_span_nests_inside_groupby_span(self, fusion_catalog):
        engine = GpuAcceleratedEngine(fusion_catalog, config=fused_config())
        engine.execute_sql(ONE_JOIN_SQL, query_id="nesting")
        by_id = {s.span_id: s for s in engine.tracer.spans}
        fused = next(s for s in engine.tracer.spans if s.name == "op.fused")
        assert by_id[fused.parent_id].name == "op.groupby"

    def test_fusion_metrics_and_decision(self, fusion_catalog):
        engine = GpuAcceleratedEngine(fusion_catalog, config=fused_config())
        engine.execute_sql(TWO_JOIN_SQL, query_id="metrics")
        registry = engine.monitor.registry
        assert registry.get("repro_fusion_chains_total").value == 1
        assert registry.get("repro_fusion_elided_bytes_total").value > 0
        decisions = [s.attributes for s in engine.tracer.spans
                     if s.name == "offload.decision"
                     and s.attributes.get("operator") == "fused"]
        assert decisions and decisions[0]["path"] == "gpu-fused"

    def test_groupby_span_keeps_kmv_refinement(self, fusion_catalog):
        """The fused launch's device-side KMV sketch lands on the
        op.groupby span exactly like the per-operator GPU path's."""
        engine = GpuAcceleratedEngine(fusion_catalog, config=fused_config())
        engine.execute_sql(ONE_JOIN_SQL, query_id="kmv")
        span = next(s for s in engine.tracer.spans
                    if s.name == "op.groupby")
        assert span.attributes["kmv_groups"] > 0
        assert span.attributes["kmv_relative_error"] >= 0.0

    def test_fusion_off_runs_per_operator(self, fusion_catalog, cpu_answers):
        engine = GpuAcceleratedEngine(
            fusion_catalog, config=fused_config(fusion_enabled=False))
        for sql in (ONE_JOIN_SQL, TWO_JOIN_SQL):
            assert tables_equal(engine.execute_sql(sql).table,
                                cpu_answers[sql])
        assert not any(s.name == "op.fused" for s in engine.tracer.spans)
        assert engine.monitor.registry.get(
            "repro_fusion_chains_total") is None

    def test_duplicate_build_keys_degrade_not_corrupt(self):
        catalog = make_catalog(dup_dim_keys=True)
        want = BluEngine(catalog).execute_sql(ONE_JOIN_SQL).table
        engine = GpuAcceleratedEngine(catalog, config=fused_config())
        got = engine.execute_sql(ONE_JOIN_SQL, query_id="dup").table
        assert tables_equal(got, want)
        decisions = [s.attributes for s in engine.tracer.spans
                     if s.name == "offload.decision"
                     and s.attributes.get("operator") == "fused"]
        degraded = [d for d in decisions if d["path"] == "fused-degraded"]
        assert degraded
        assert "not unique" in degraded[0]["reason"]

    @pytest.mark.parametrize("site", ["launch", "reserve", "pinned",
                                      "alloc"])
    def test_injected_faults_degrade_bit_identically(self, fusion_catalog,
                                                     cpu_answers, site):
        plan = FaultPlan(rules=(FaultRule(site=site, probability=1.0),),
                         seed=3)
        engine = GpuAcceleratedEngine(fusion_catalog,
                                      config=fused_config(faults=plan))
        got = engine.execute_sql(TWO_JOIN_SQL, query_id=f"fault-{site}")
        assert tables_equal(got.table, cpu_answers[TWO_JOIN_SQL])


# ---------------------------------------------------------------------------
# Bit-identity property: fusion is invisible in the answers
# ---------------------------------------------------------------------------


@st.composite
def star_catalog(draw):
    n = draw(st.integers(min_value=64, max_value=400))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    dim_rows = draw(st.integers(min_value=2, max_value=16))
    fact = Table.from_pydict("f", Schema.of(
        ("fk", int32()), ("v", int32()), ("p", float64()),
    ), {
        "fk": rng.integers(1, dim_rows + 1, n).tolist(),
        "v": rng.integers(-50, 50, n).tolist(),
        "p": np.round(rng.random(n) * 90, 2).tolist(),
    })
    dim = Table.from_pydict("d", Schema.of(
        ("dk", int32()), ("dn", varchar(4)),
    ), {
        "dk": list(range(1, dim_rows + 1)),
        "dn": [f"g{i % 5}" for i in range(dim_rows)],
    })
    catalog = Catalog()
    catalog.register(fact)
    catalog.register(dim)
    return catalog


STAR_SQL = st.sampled_from([
    "SELECT dn, SUM(v) AS sv, COUNT(*) AS c "
    "FROM f JOIN d ON fk = dk GROUP BY dn",
    "SELECT dn, SUM(p) AS sp, MIN(v) AS mn, MAX(v) AS mx "
    "FROM f JOIN d ON fk = dk GROUP BY dn",
    "SELECT dn, AVG(p) AS ap FROM f JOIN d ON fk = dk "
    "WHERE v > 0 GROUP BY dn",
])

knob_configs = st.builds(
    lambda fusion, depth, chunk, fault_site, seed: (
        fusion, depth, chunk,
        None if fault_site is None else FaultPlan(
            rules=(FaultRule(site=fault_site, probability=0.5),),
            seed=seed)),
    fusion=st.booleans(),
    depth=st.integers(min_value=1, max_value=5),
    chunk=st.sampled_from([4096, 1 << 16, 1 << 20]),
    fault_site=st.sampled_from([None, "launch", "reserve", "pinned",
                                "alloc", "transfer"]),
    seed=st.integers(0, 2**16),
)


class TestFusionBitIdentity:
    @given(catalog=star_catalog(), sql=STAR_SQL, knobs=knob_configs)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fusion_never_changes_answers(self, catalog, sql, knobs):
        """The headline contract: for any plan, fault plan, cache or
        pipeline knobs, fused and unfused runs return the CPU baseline's
        exact answers (thresholds lowered so tiny inputs still offload)."""
        fusion, depth, chunk, faults = knobs
        config = fused_config(fusion_enabled=fusion, faults=faults,
                              pipeline_depth=depth, chunk_bytes=chunk)
        thresholds = dataclasses.replace(config.thresholds, t1_min_rows=8,
                                         t2_min_groups=2)
        config = dataclasses.replace(config, thresholds=thresholds)
        gpu = GpuAcceleratedEngine(catalog, config=config)
        cpu = BluEngine(catalog)
        assert tables_equal(gpu.execute_sql(sql).table,
                            cpu.execute_sql(sql).table)
