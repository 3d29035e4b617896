"""Composite test scenarios — the Figure 8/9 concurrent mixed workload.

Section 5.3: a 10-user JMETER test of five thread groups with two threads
each:

- groups 1-3: one Cognos-ROLAP complex query that uses the GPU *moderately*
  plus one BD Insights simple query that never touches the GPU;
- group 4: BD Insights complex queries C1 and C3 (moderate GPU use) plus a
  simple query;
- group 5: two handcrafted queries that push the GPU to its limits —
  group-by and SORT over a grouping set with "as many groups as there are
  rows in the table".
"""

from __future__ import annotations

from repro.workloads.bdinsights import bd_insights_queries
from repro.workloads.cognos_rolap import cognos_rolap_queries
from repro.workloads.query import QueryCategory, SessionGroup, WorkloadQuery


def handcrafted_gpu_heavy_queries() -> list[WorkloadQuery]:
    """The two hand-written group-by+SORT queries of section 5.3."""
    return [
        WorkloadQuery(
            "H1", QueryCategory.COMPLEX,
            "SELECT ss_ticket_number, SUM(ss_net_paid) AS paid, "
            "COUNT(*) AS line_items "
            "FROM store_sales GROUP BY ss_ticket_number "
            "ORDER BY paid DESC",
            "ticket-granularity group-by: as many groups as rows",
        ),
        WorkloadQuery(
            "H2", QueryCategory.COMPLEX,
            "SELECT ss_ticket_number, SUM(ss_quantity) AS qty, "
            "SUM(ss_net_profit) AS profit "
            "FROM store_sales GROUP BY ss_ticket_number "
            "ORDER BY qty DESC",
            "second large-grouping-set group-by + full sort",
        ),
    ]


def bd_insights_multiuser_groups() -> list[SessionGroup]:
    """The multi-user BD Insights mode (section 5.1.1: "The workload can
    be run in several modes with both single user and varying multi-user
    combinations using the Apache JMETER load driver").

    A representative analyst population: many Returns-Dashboard users on
    simple queries (paced by a 2 ms think time between clicks), a few
    Sales-Report analysts on intermediate ones, one Data Scientist on the
    complex set.
    """
    simple = queries_by_category_cached(QueryCategory.SIMPLE)
    intermediate = queries_by_category_cached(QueryCategory.INTERMEDIATE)
    complex_qs = queries_by_category_cached(QueryCategory.COMPLEX)
    return [
        SessionGroup("dashboard", 6, simple[:20], think_seconds=0.002),
        SessionGroup("sales-report", 3, intermediate[:10]),
        SessionGroup("data-scientist", 1, complex_qs),
    ]


def queries_by_category_cached(category: QueryCategory):
    from repro.workloads.bdinsights import queries_by_category

    return queries_by_category(category)


def figure8_thread_groups() -> list[SessionGroup]:
    """The five two-thread groups of the Figure 8 test."""
    by_id = {q.query_id: q for q in bd_insights_queries()}
    rolap = {q.query_id: q for q in cognos_rolap_queries()}
    handcrafted = handcrafted_gpu_heavy_queries()

    # "Moderate GPU use": year-sliced ROLAP store/item analytics (Q5, Q10,
    # Q26) — group-by is a real but not dominant slice of each.
    return [
        SessionGroup("rolap-a", 2, [rolap["Q5"], by_id["S01"]]),
        SessionGroup("rolap-b", 2, [rolap["Q10"], by_id["S21"]]),
        SessionGroup("rolap-c", 2, [rolap["Q26"], by_id["S41"]]),
        SessionGroup("bd-complex", 2,
                     [by_id["C1"], by_id["C3"], by_id["S61"]]),
        SessionGroup("gpu-heavy", 2, handcrafted),
    ]
