"""Unit tests for GpuAcceleratedEngine, with and without GPUs."""

import dataclasses

from repro.blu import BluEngine
from repro.blu.engine import (
    cpu_groupby_executor,
    cpu_join_executor,
    cpu_sort_executor,
)
from repro.config import cpu_only_testbed, paper_testbed, single_gpu_testbed
from repro.core import GpuAcceleratedEngine, make_engine

STOCK_SQL = (
    "SELECT s_item, SUM(s_qty) AS q FROM sales GROUP BY s_item ORDER BY q",
    "SELECT s_store, COUNT(*) AS c FROM sales GROUP BY s_store",
    "SELECT s_item, s_store, SUM(s_qty) AS q, "
    "RANK() OVER (ORDER BY q DESC) AS rnk FROM sales GROUP BY s_item, s_store",
    "SELECT st_state, SUM(s_paid) AS p FROM sales "
    "JOIN stores ON s_store = st_id GROUP BY st_state",
)


class TestConstruction:
    def test_zero_gpus_is_the_stock_engine(self, small_catalog):
        """No GPUs is a configuration of the one engine: no devices, the
        Figure-1 chains in every hook, and BluEngine's answers and cost
        events, event for event."""
        zero = GpuAcceleratedEngine(small_catalog, config=cpu_only_testbed())
        assert zero.devices == [] and zero.moderator is None
        assert not zero.gpu_enabled
        assert (zero.groupby_executor, zero.sort_executor,
                zero.join_executor, zero.fused_executor,
                zero.rank_order_executor) == (
            cpu_groupby_executor, cpu_sort_executor, cpu_join_executor,
            None, None)
        stock = BluEngine(small_catalog)
        for sql in STOCK_SQL:
            got = zero.execute_sql(sql, query_id="q")
            want = stock.execute_sql(sql, query_id="q")
            assert got.profile == want.profile
            assert got.table.to_pydict() == want.table.to_pydict()

    def test_device_count_follows_config(self, small_catalog):
        two = GpuAcceleratedEngine(small_catalog, config=paper_testbed())
        one = GpuAcceleratedEngine(small_catalog,
                                   config=single_gpu_testbed())
        assert len(two.devices) == 2
        assert len(one.devices) == 1

    def test_make_engine_dispatch(self, small_catalog):
        config = dataclasses.replace(paper_testbed(), pipeline_depth=2)
        on = make_engine(small_catalog, config, gpu=True)
        off = make_engine(small_catalog, config, gpu=False)
        assert type(on) is type(off) is GpuAcceleratedEngine
        assert on.config is config
        assert off.config == dataclasses.replace(config, gpus=())
        assert len(on.devices) == 2 and off.devices == []

    def test_learning_moderator_flag(self, small_catalog):
        from repro.core.moderator import LearningModerator

        engine = GpuAcceleratedEngine(small_catalog,
                                      learning_moderator=True)
        assert isinstance(engine.moderator, LearningModerator)


class TestQueryFlow:
    def test_profiles_land_in_monitor(self, gpu_engine):
        gpu_engine.execute_sql("SELECT COUNT(*) AS c FROM sales",
                               query_id="m1")
        gpu_engine.execute_sql("SELECT COUNT(*) AS c FROM stores",
                               query_id="m2")
        assert len(gpu_engine.monitor.profiles) == 2

    def test_query_id_threads_through_decisions(self, gpu_engine):
        gpu_engine.execute_sql(
            "SELECT s_item, COUNT(*) AS c FROM sales GROUP BY s_item",
            query_id="tagged")
        assert gpu_engine.monitor.decisions_for("tagged")

    def test_explain_passthrough(self, gpu_engine):
        text = gpu_engine.explain_sql(
            "SELECT s_store, COUNT(*) AS c FROM sales GROUP BY s_store")
        assert "GROUPBY" in text

    def test_catalog_property(self, gpu_engine, small_catalog):
        assert gpu_engine.catalog is small_catalog

    def test_execute_plan(self, gpu_engine, small_catalog):
        from repro.blu.sql import parse_query

        plan = parse_query("SELECT s_item, SUM(s_qty) AS q FROM sales "
                           "GROUP BY s_item", catalog=small_catalog)
        result = gpu_engine.execute_plan(plan, query_id="p1")
        assert result.table.num_rows > 0


class TestExplainDecisions:
    def test_renders_plan_decisions_and_trace(self, gpu_engine):
        text = gpu_engine.explain_decisions(
            "SELECT s_item, SUM(s_qty) AS q FROM sales GROUP BY s_item")
        assert "== plan ==" in text
        assert "== offload decisions ==" in text
        assert "groupby" in text
        assert "GPU-GROUPBY" in text
        assert "simulated ms" in text

    def test_no_offloadable_operators(self, gpu_engine):
        text = gpu_engine.explain_decisions(
            "SELECT s_item FROM sales WHERE s_item = 3")
        assert "(none — no offloadable operators)" in text


class TestRepeatedQueryIds:
    """A second run under a query id it has used before shows that run's
    decisions only: they come from the trace being rendered."""

    SQL = ("SELECT s_item, SUM(s_qty) AS q FROM sales GROUP BY s_item "
           "ORDER BY q DESC")

    def test_profile_lists_only_its_own_trace_s_decisions(self, gpu_engine):
        _result, first = gpu_engine.profile_sql(self.SQL)
        _result, second = gpu_engine.profile_sql(self.SQL)
        instants = [s for s in gpu_engine.tracer.trace(second.trace_id)
                    if s.name == "offload.decision"]
        assert len(instants) == 2
        assert len(second.decisions) == len(instants)
        assert second.decisions == first.decisions

    def test_explain_decisions_shows_only_its_own_run(self, gpu_engine):
        def decision_lines(text: str) -> list[str]:
            section = text.split("== offload decisions ==\n")[1]
            return section.split("\n\n")[0].splitlines()

        sql = self.SQL
        first = decision_lines(gpu_engine.explain_decisions(sql))
        second = decision_lines(gpu_engine.explain_decisions(sql))
        assert [line.split()[0] for line in first] == ["groupby", "sort"]
        assert second == first
