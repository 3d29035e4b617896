"""The Cognos ROLAP workload (section 5.1.2).

46 complex analytical queries — "a mix of join, group by, and sort, some of
which include OLAP functions like RANK() that drive SORT" — run against the
BD Insights database.  On the paper's K40s only 34 of the 46 fit device
memory; the other 12 have group-by working sets exceeding the card.  We
reproduce that split: queries Q35-Q46 group at ticket/composite granularity
over the unfiltered fact tables with wide payload lists, so their memory
requirement exceeds the (proportionally scaled) device capacity.

Q1 and Q4 are deliberately short (the paper calls them out as the queries
that see no offload benefit).
"""

from __future__ import annotations

from repro.blu.plan import GroupByNode
from repro.gpu.partition import groupby_working_set_bytes
from repro.workloads.query import QueryCategory, WorkloadQuery

_YEARS = (2010, 2011, 2012, 2013, 2014)
_CATEGORIES = ("Books", "Electronics", "Home", "Jewelry", "Men", "Music",
               "Shoes", "Sports", "Toys", "Women")


def _q(i: int, sql: str, description: str) -> WorkloadQuery:
    return WorkloadQuery(f"Q{i}", QueryCategory.ROLAP, sql, description)


def cognos_rolap_queries() -> list[WorkloadQuery]:
    """All 46 ROLAP queries, Q1..Q46."""
    out: list[WorkloadQuery] = []

    # Q1, Q4 (and a few friends): short-running queries — no offload win.
    out.append(_q(1,
        "SELECT d_year, COUNT(*) AS days FROM date_dim "
        "WHERE d_qoy = 1 GROUP BY d_year ORDER BY d_year",
        "calendar sanity rollup (short)"))
    out.append(_q(2,
        "SELECT s_state, SUM(ss_net_paid) AS rev, SUM(ss_net_profit) AS prof, "
        "COUNT(*) AS cnt FROM store_sales "
        "JOIN store ON ss_store_sk = s_store_sk "
        "JOIN date_dim ON ss_sold_date_sk = d_date_sk "
        "JOIN item ON ss_item_sk = i_item_sk "
        "GROUP BY s_state ORDER BY rev DESC",
        "state revenue league table across the full calendar"))
    out.append(_q(3,
        "SELECT i_category, i_class, SUM(ss_ext_sales_price) AS rev, "
        "AVG(ss_quantity) AS avg_qty, COUNT(*) AS cnt FROM store_sales "
        "JOIN item ON ss_item_sk = i_item_sk "
        "JOIN store ON ss_store_sk = s_store_sk "
        "JOIN date_dim ON ss_sold_date_sk = d_date_sk "
        "GROUP BY i_category, i_class ORDER BY rev DESC",
        "category/class sales cube"))
    out.append(_q(4,
        "SELECT sm_type, COUNT(*) AS modes FROM ship_mode "
        "GROUP BY sm_type ORDER BY modes DESC",
        "ship mode census (short)"))

    # Q5..Q14: year-sliced store analytics with RANK (drives SORT).
    for i, year in enumerate(_YEARS):
        out.append(_q(5 + i,
            f"SELECT ss_store_sk, SUM(ss_net_paid) AS rev, "
            f"SUM(ss_net_profit) AS prof, COUNT(*) AS tickets, "
            f"RANK() OVER (ORDER BY rev DESC) AS rnk "
            f"FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk "
            f"WHERE d_year = {year} GROUP BY ss_store_sk ORDER BY rnk",
            f"store ranking for {year}"))
    for i, year in enumerate(_YEARS):
        out.append(_q(10 + i,
            f"SELECT ss_item_sk, SUM(ss_quantity) AS qty, "
            f"SUM(ss_net_paid) AS rev, AVG(ss_sales_price) AS avg_price "
            f"FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk "
            f"JOIN item ON ss_item_sk = i_item_sk "
            f"WHERE d_year = {year} "
            f"GROUP BY ss_item_sk ORDER BY rev DESC LIMIT 1000",
            f"item velocity for {year}"))

    # Q15..Q24: category-sliced item analytics over the full history.
    for i, category in enumerate(_CATEGORIES):
        out.append(_q(15 + i,
            f"SELECT ss_item_sk, SUM(ss_net_paid) AS rev, "
            f"SUM(ss_net_profit) AS prof, COUNT(*) AS cnt, "
            f"MAX(ss_ext_sales_price) AS biggest "
            f"FROM store_sales JOIN item ON ss_item_sk = i_item_sk "
            f"WHERE i_category = '{category}' "
            f"GROUP BY ss_item_sk ORDER BY rev DESC",
            f"item profitability in {category}"))

    # Q25..Q29: customer-level channel comparisons (joined through the
    # customer dimension, as Cognos generates them).
    for i, (fact, key, paid, date_key) in enumerate((
        ("store_sales", "ss_customer_sk", "ss_net_paid", "ss_sold_date_sk"),
        ("catalog_sales", "cs_bill_customer_sk", "cs_net_paid",
         "cs_sold_date_sk"),
        ("web_sales", "ws_bill_customer_sk", "ws_net_paid",
         "ws_sold_date_sk"),
        ("store_sales", "ss_customer_sk", "ss_net_profit",
         "ss_sold_date_sk"),
        ("catalog_sales", "cs_bill_customer_sk", "cs_net_profit",
         "cs_sold_date_sk"),
    )):
        out.append(_q(25 + i,
            f"SELECT {key}, SUM({paid}) AS total, COUNT(*) AS orders, "
            f"AVG({paid}) AS avg_order FROM {fact} "
            f"JOIN customer ON {key} = c_customer_sk "
            f"JOIN date_dim ON {date_key} = d_date_sk "
            f"GROUP BY {key} ORDER BY total DESC LIMIT 500",
            f"customer totals on {fact}"))

    # Q30..Q34: demographic cubes with RANK.
    demo_dims = (
        ("cd_education_status", "cd_gender", "'M'"),
        ("cd_education_status", "cd_gender", "'F'"),
        ("cd_credit_rating", "cd_marital_status", "'S'"),
        ("cd_credit_rating", "cd_marital_status", "'M'"),
        ("cd_education_status", "cd_marital_status", "'D'"),
    )
    for i, (dim, filter_col, filter_val) in enumerate(demo_dims):
        out.append(_q(30 + i,
            f"SELECT {dim}, SUM(ss_net_paid) AS rev, COUNT(*) AS cnt, "
            f"AVG(ss_quantity) AS avg_qty, "
            f"RANK() OVER (ORDER BY rev DESC) AS rnk "
            f"FROM store_sales "
            f"JOIN customer_demographics ON ss_cdemo_sk = cd_demo_sk "
            f"WHERE {filter_col} = {filter_val} "
            f"GROUP BY {dim} ORDER BY rnk",
            f"demographic cube on {dim}"))

    # Q35..Q46: the 12 queries whose GPU memory requirements exceed the
    # device — ticket-granularity groups over unfiltered facts with wide
    # payload lists (section 5.1.2: "12 of the queries had memory
    # requirements which exceeded the memory available").
    for i in range(6):
        out.append(_q(35 + i,
            f"SELECT ss_ticket_number, SUM(ss_net_paid) AS paid, "
            f"SUM(ss_net_profit) AS prof, SUM(ss_ext_discount_amt) AS disc, "
            f"SUM(ss_quantity) AS qty, MAX(ss_list_price) AS top_list, "
            f"MIN(ss_sales_price) AS low_price, AVG(ss_wholesale_cost) AS wac, "
            f"COUNT(*) AS line_items "
            f"FROM store_sales WHERE ss_item_sk > {i} "
            f"GROUP BY ss_ticket_number ORDER BY paid DESC LIMIT 100",
            "ticket-granularity basket analysis (exceeds GPU memory)"))
    for i in range(6):
        out.append(_q(41 + i,
            f"SELECT ss_ticket_number, ss_item_sk, SUM(ss_net_paid) AS paid, "
            f"SUM(ss_quantity) AS qty, SUM(ss_net_profit) AS prof, "
            f"MAX(ss_ext_sales_price) AS biggest, COUNT(*) AS cnt, "
            f"AVG(ss_list_price) AS avg_list "
            f"FROM store_sales WHERE ss_store_sk > {i} "
            f"GROUP BY ss_ticket_number, ss_item_sk "
            f"ORDER BY paid DESC LIMIT 100",
            "line-item granularity analysis (exceeds GPU memory)"))

    assert len(out) == 46
    return out


# ---------------------------------------------------------------------------
# Memory screening (the 34-of-46 selection)
# ---------------------------------------------------------------------------


def estimate_gpu_memory_requirement(engine, query: WorkloadQuery) -> int:
    """Upper-bound device bytes this query's group-bys would reserve.

    Mirrors section 2.2: "we know the amount of memory that each kernel
    invocation call needs in advance ... calculated using the type of the
    query, size of the input data, and size of the internal data
    structures".  Uses optimizer estimates only — no execution.
    """
    from repro.blu.sql import parse_query

    plan = parse_query(query.sql, catalog=engine.catalog)
    engine.optimizer.annotate(plan)
    worst = 0
    for node in plan.walk():
        if not isinstance(node, GroupByNode):
            continue
        worst = max(worst, groupby_working_set_bytes(
            node.child.estimates.rows, max(1.0, node.estimates.groups),
            len(node.aggs)))
    return worst


def screen_queries(engine, queries=None) -> tuple[list[WorkloadQuery],
                                                  list[WorkloadQuery]]:
    """Split queries into (runnable, exceeds_gpu_memory) like the paper."""
    queries = queries if queries is not None else cognos_rolap_queries()
    capacity = max(
        (spec.device_memory_bytes
         for spec in getattr(engine, "config").gpus), default=0,
    )
    runnable, oversized = [], []
    for query in queries:
        need = estimate_gpu_memory_requirement(engine, query)
        (oversized if need > capacity else runnable).append(query)
    return runnable, oversized
