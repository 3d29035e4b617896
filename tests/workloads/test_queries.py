"""Unit tests for the BD Insights and Cognos ROLAP query sets."""


from repro.blu.sql import parse_query
from repro.workloads.bdinsights import bd_insights_queries, queries_by_category
from repro.workloads.cognos_rolap import cognos_rolap_queries
from repro.workloads.query import QueryCategory
from repro.workloads.scenarios import (
    figure8_thread_groups,
    handcrafted_gpu_heavy_queries,
)


class TestBdInsights:
    def test_population_split(self):
        """Section 5.1.1: 100 queries = 5 complex + 25 intermediate +
        70 simple."""
        queries = bd_insights_queries()
        assert len(queries) == 100
        assert len(queries_by_category(QueryCategory.COMPLEX)) == 5
        assert len(queries_by_category(QueryCategory.INTERMEDIATE)) == 25
        assert len(queries_by_category(QueryCategory.SIMPLE)) == 70

    def test_unique_ids(self):
        ids = [q.query_id for q in bd_insights_queries()]
        assert len(set(ids)) == len(ids)

    def test_all_parse(self):
        for query in bd_insights_queries():
            parse_query(query.sql)               # no exception

    def test_all_have_descriptions(self):
        assert all(q.description for q in bd_insights_queries())

    def test_complex_queries_group_and_mostly_join(self):
        complex_qs = queries_by_category(QueryCategory.COMPLEX)
        assert all("GROUP BY" in q.sql for q in complex_qs)
        joined = [q for q in complex_qs if "JOIN" in q.sql]
        assert len(joined) >= 4        # C4 is the pure fact-table RANK query

    def test_simple_queries_touch_one_table(self):
        for q in queries_by_category(QueryCategory.SIMPLE):
            assert "JOIN" not in q.sql


class TestCognosRolap:
    def test_forty_six_queries(self):
        queries = cognos_rolap_queries()
        assert len(queries) == 46
        assert [q.query_id for q in queries[:4]] == ["Q1", "Q2", "Q3", "Q4"]

    def test_all_parse(self):
        for query in cognos_rolap_queries():
            parse_query(query.sql)

    def test_some_queries_drive_sort_via_rank(self):
        """Section 5.1.2: 'some of which include OLAP functions like
        RANK() that drive SORT'."""
        with_rank = [q for q in cognos_rolap_queries()
                     if "RANK()" in q.sql]
        assert len(with_rank) >= 8

    def test_all_queries_sort(self):
        assert all("ORDER BY" in q.sql for q in cognos_rolap_queries())

    def test_oversized_block_is_q35_to_q46(self):
        oversized = [q for q in cognos_rolap_queries()
                     if "exceeds GPU memory" in q.description]
        assert [q.query_id for q in oversized] == \
            [f"Q{i}" for i in range(35, 47)]


class TestScenarios:
    def test_figure8_has_five_groups_of_two(self):
        groups = figure8_thread_groups()
        assert len(groups) == 5
        assert all(group.sessions == 2 for group in groups)

    def test_handcrafted_group_on_ticket_number(self):
        """'As many groups as there are rows in the table.'"""
        for q in handcrafted_gpu_heavy_queries():
            assert "ss_ticket_number" in q.sql
            assert "ORDER BY" in q.sql
            parse_query(q.sql)


class TestMultiUserScenario:
    def test_population_shape(self):
        from repro.workloads.scenarios import bd_insights_multiuser_groups

        groups = bd_insights_multiuser_groups()
        assert [(g.name, g.sessions, g.think_seconds) for g in groups] == [
            ("dashboard", 6, 0.002), ("sales-report", 3, 0.0),
            ("data-scientist", 1, 0.0)]
        total_threads = sum(g.sessions for g in groups)
        assert total_threads == 10

    def test_simulates_with_gain(self, bd_catalog, bd_config):
        from repro.workloads.driver import WorkloadDriver
        from repro.workloads.scenarios import bd_insights_multiuser_groups

        driver = WorkloadDriver(bd_catalog, bd_config)
        # The population without the dashboard's think time.
        groups = [g._replace(think_seconds=0.0)
                  for g in bd_insights_multiuser_groups()]
        on, off = (driver.closed_loop(groups, gpu=gpu,
                                      degree=driver.PROFILE_DEGREE).sim
                   for gpu in (True, False))
        assert on.queries_completed == off.queries_completed
        assert on.makespan < off.makespan      # offload frees CPU capacity
