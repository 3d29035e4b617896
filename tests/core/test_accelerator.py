"""Unit tests for the GpuAcceleratedEngine facade."""

import pytest

from repro.blu import BluEngine
from repro.config import cpu_only_testbed, paper_testbed, single_gpu_testbed
from repro.core import GpuAcceleratedEngine, make_engine


class TestConstruction:
    def test_requires_gpus(self, small_catalog):
        with pytest.raises(ValueError):
            GpuAcceleratedEngine(small_catalog, config=cpu_only_testbed())

    def test_device_count_follows_config(self, small_catalog):
        two = GpuAcceleratedEngine(small_catalog, config=paper_testbed())
        one = GpuAcceleratedEngine(small_catalog,
                                   config=single_gpu_testbed())
        assert len(two.devices) == 2
        assert len(one.devices) == 1

    def test_make_engine_dispatch(self, small_catalog):
        assert isinstance(make_engine(small_catalog, gpu=False), BluEngine)
        assert isinstance(make_engine(small_catalog, gpu=True),
                          GpuAcceleratedEngine)

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
