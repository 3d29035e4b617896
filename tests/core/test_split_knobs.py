"""One behaviour for a knob that is off; one meaning for ``fallbacks``.

A split candidate its knob filters out is *not enumerated*: its terms
are never built, nothing is priced and no ``pathselect.*`` instant is
emitted — on all six "should this operator split?" sites.  At c3b3edf
two sites drifted: the segmented sort generation reported "fewer than
two healthy home devices" on two healthy K40s whenever sharding was
merely off, and the over-memory sort priced a plan ``--partition off``
forbade it to use.  With the knob *on* and too few healthy home devices
the verdict is true, and every operator still says so.

``SortRunStats.fallbacks`` counts GPU-sized work that ended on the
host, on all four sort paths — not the faults met on the way.
"""

import dataclasses

import pytest

from repro.blu import BluEngine, Catalog
from repro.config import GpuSpec, paper_testbed
from repro.core import GpuAcceleratedEngine
from repro.faults import FaultPlan, FaultRule
from repro.workloads.bdinsights import bd_insights_queries
from tests.conftest import tables_equal

GROUPBY_SQL = ("SELECT s_item, SUM(s_qty) AS q, COUNT(*) AS c "
               "FROM sales GROUP BY s_item")
SORT_SQL = "SELECT s_paid, s_ticket FROM sales ORDER BY s_ticket DESC"
SEGMENTED_SQL = ("SELECT s_store, s_ticket FROM sales "
                 "ORDER BY s_store, s_ticket")
JOIN_SQL = ("SELECT st_state, SUM(s_paid) AS rev, COUNT(*) AS c "
            "FROM sales JOIN stores ON s_store = st_id "
            "GROUP BY st_state ORDER BY rev DESC")


def make_engine(tables, *, devices=2, device_bytes=None, faults=None,
                pinned_pool_bytes=1 << 30, **knobs) -> GpuAcceleratedEngine:
    """The 50k-row fixture with offload reachable; a per-test catalog
    (shard-map DDL must not leak)."""
    config = paper_testbed()
    thresholds = dataclasses.replace(config.thresholds, t1_min_rows=5_000,
                                     sort_min_rows=5_000)
    card = GpuSpec()
    if device_bytes is not None:
        card = dataclasses.replace(card, device_memory_bytes=device_bytes)
    config = dataclasses.replace(
        config, thresholds=thresholds, gpus=(card,) * devices,
        fusion_enabled=False, faults=faults, **knobs)
    catalog = Catalog()
    for table in tables:
        catalog.register(table)
    return GpuAcceleratedEngine(catalog, config=config,
                                enable_join_offload=True,
                                pinned_pool_bytes=pinned_pool_bytes)


def instants(engine, name):
    return [s for s in engine.tracer.spans if s.name == name]


@pytest.fixture()
def pricing_calls(monkeypatch):
    """Every call of ``price`` the dispatcher makes."""
    from repro.core import dispatch

    calls = []
    price = dispatch.price
    monkeypatch.setattr(
        dispatch, "price",
        lambda *args, **kw: calls.append(args[0]) or price(*args, **kw))
    return calls


class TestKnobOffIsNotEnumerated:
    def test_shard_off_says_nothing_about_healthy_devices(
            self, bd_catalog, bd_config, pricing_calls):
        """The paper's default testbed — two healthy K40s, sharding off
        — running BD Insights C4 (whose ORDER BY descends through
        segmented generations)."""
        c4 = next(q for q in bd_insights_queries() if q.query_id == "C4")
        engine = GpuAcceleratedEngine(bd_catalog, config=bd_config)
        assert not engine.config.shard_enabled
        assert engine.scheduler.healthy_device_ids() == [0, 1]
        engine.execute_sql(c4.sql, query_id="c4")
        assert engine.sort_executor.last_stats.jobs_gpu >= 2   # the paths ran
        assert instants(engine, "pathselect.shard") == []
        assert pricing_calls == []

    def test_partition_off_orderby_prices_nothing(
            self, sales_table, small_catalog, pricing_calls):
        """A card too small for the job, slicing forbidden: the sort
        (two 50k-row jobs: ``s_ticket`` is 8 key bytes) runs on the CPU
        exactly as when no slice count is admissible, minus the pricing
        and the verdicts."""
        off = make_engine([sales_table], device_bytes=256 * 1024,
                          partition_enabled=False)
        result = off.execute_sql(SORT_SQL, query_id="off")
        assert pricing_calls == []
        assert instants(off, "pathselect.partition") == []
        assert tables_equal(
            result.table, BluEngine(small_catalog).execute_sql(SORT_SQL).table)
        assert not any(e.uses_gpu for e in result.profile.events)

        # The same card with slicing allowed but impossible (one slice
        # may not exceed the card): same ledger, same statistics.
        declined = make_engine([sales_table], device_bytes=256 * 1024,
                               max_partitions=1)
        twin = declined.execute_sql(SORT_SQL, query_id="declined")
        assert pricing_calls == ["sort", "sort"]
        verdicts = instants(declined, "pathselect.partition")
        assert [v.attributes["partition"] for v in verdicts] == [False] * 2
        assert twin.profile.events == result.profile.events
        assert (declined.sort_executor.last_stats
                == off.sort_executor.last_stats)
        assert off.sort_executor.last_stats.fallbacks == 2

    def test_every_site_is_silent_with_both_knobs_off(
            self, sales_table, stores_table, pricing_calls):
        engine = make_engine([sales_table, stores_table],
                             device_bytes=512 * 1024,
                             partition_enabled=False)
        for sql in (GROUPBY_SQL, SORT_SQL, SEGMENTED_SQL, JOIN_SQL):
            engine.execute_sql(sql)
        assert pricing_calls == []
        assert [s.name for s in engine.tracer.spans
                if s.name in ("pathselect.partition",
                              "pathselect.shard")] == []


class TestTooFewHomeDevicesIsStillSaid:
    def test_all_four_operators_say_so(self, sales_table, stores_table):
        """Sharding on, one of two devices quarantined: the verdict is
        true, and group-by, sort job, the two segmented generations
        below it and the join each keep it, byte for byte."""
        engine = make_engine([sales_table, stores_table],
                             shard_enabled=True)
        engine.scheduler.breakers[1].trip()
        assert engine.scheduler.healthy_device_ids() == [0]
        for sql in (GROUPBY_SQL, SEGMENTED_SQL, JOIN_SQL):
            engine.execute_sql(sql)
        verdicts = instants(engine, "pathselect.shard")
        assert [v.attributes["operator"] for v in verdicts] == [
            "groupby", "sort", "sort", "sort", "join"]
        for verdict in verdicts:
            assert verdict.attributes["shard"] is False
            assert verdict.attributes["shards"] == 0
            assert verdict.attributes["devices"] == []
            assert verdict.attributes["reason"] == (
                "fewer than two healthy home devices: whole-job dispatch")


class TestSortFallbacksCountWorkThatEndedOnTheHost:
    def test_a_rerouted_shard_is_not_a_fallback(self, sales_table):
        """A launch fault on shard 0's home device reroutes the shard to
        another card, where it succeeds: nothing ended on the host
        (both of the statement's jobs range-shard)."""
        plan = FaultPlan(rules=(FaultRule(site="launch", device_id=0,
                                          nth=(1,)),), seed=17)
        engine = make_engine([sales_table], devices=4, faults=plan,
                             shard_enabled=True)
        engine.execute_sql(SORT_SQL, query_id="reroute")
        waves = instants(engine, "shard.exec")
        assert [w.attributes["rerouted"] for w in waves] == [1, 0]
        assert [w.attributes["cpu_shards"] for w in waves] == [0, 0]
        stats = engine.sort_executor.last_stats
        assert stats.sharded_jobs == 2
        assert stats.fallbacks == 0

    def test_a_generation_no_device_has_room_for_is_one(self, sales_table):
        """The first job streams through the small cards as slices; the
        two segmented generations below it fit no card whole and sort
        on the host workers — one fallback each."""
        engine = make_engine([sales_table], device_bytes=256 * 1024)
        result = engine.execute_sql(SEGMENTED_SQL, query_id="no-room")
        stats = engine.sort_executor.last_stats
        assert stats.partitioned_jobs == 1
        assert stats.jobs_cpu == 2 and stats.fallbacks == 2
        assert tables_equal(
            result.table,
            BluEngine(engine.catalog).execute_sql(SEGMENTED_SQL).table)

    def test_a_slice_that_ends_on_the_host_is_one_each(self, sales_table):
        """Every slice of a partitioned job degrades to the host when
        the pinned pool cannot stage one: one fallback per slice."""
        engine = make_engine([sales_table], device_bytes=256 * 1024,
                             pinned_pool_bytes=1024)
        engine.execute_sql(SORT_SQL, query_id="slices")
        waves = instants(engine, "partition.exec")
        assert [w.attributes["gpu_partitions"] for w in waves] == [0, 0]
        assert engine.sort_executor.last_stats.fallbacks \
            == sum(w.attributes["cpu_partitions"] for w in waves) == 8
