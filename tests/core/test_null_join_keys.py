"""An inner equi-join never matches a NULL key — on any of the three paths.

NULLs are stored as 0, so a lookup on the raw key values pairs NULL with
NULL and NULL with a real key 0.  The CPU join, the offloaded join and the
fused chain all end in ``join._assemble``, which drops those pairs.
"""

import dataclasses

import numpy as np
import pytest

from repro.blu import BluEngine, Catalog, Schema, Table
from repro.blu.datatypes import float64, int32, varchar
from repro.blu.operators.join import execute_join
from repro.config import CostModel, paper_testbed
from repro.core import GpuAcceleratedEngine
from repro.timing import CostLedger
from tests.conftest import tables_equal

SQL = ("SELECT st_state, COUNT(*) AS c, SUM(s_paid) AS paid "
       "FROM sales JOIN stores ON s_store = st_id GROUP BY st_state")
ROWS = 20_000

#: name -> (probe keys cycle, build keys); raw build values stay unique
#: (NULL is stored as 0), so the GPU paths accept the build side.
CASES = {
    "null_probe_vs_real_zero": ([None, 0, 1, 2, 5], [0, 1, 2, 3]),
    "null_build_vs_real_zero": ([0, 1, 2, 5], [None, 1, 2, 3]),
    "null_on_both_sides": ([None, 0, 1, 2, 5], [None, 1, 2, 3]),
    "no_nulls": ([0, 1, 2, 5], [0, 1, 2, 3]),
}


def catalog_for(case: str) -> Catalog:
    cycle, build = CASES[case]
    probe = [cycle[i % len(cycle)] for i in range(ROWS)]
    sales = Table.from_pydict(
        "sales", Schema.of(("s_store", int32()), ("s_paid", float64())),
        {"s_store": probe, "s_paid": [float(i % 7) for i in range(ROWS)]})
    stores = Table.from_pydict(
        "stores", Schema.of(("st_id", int32()), ("st_state", varchar(2))),
        {"st_id": build, "st_state": ["CA", "NY", "TX", "WA"]})
    catalog = Catalog()
    catalog.register(sales)
    catalog.register(stores)
    return catalog


def expected_counts(case: str) -> dict:
    """Per-state match counts by the SQL rule, row by row."""
    cycle, build = CASES[case]
    state_of = {key: state for key, state
                in zip(build, ["CA", "NY", "TX", "WA"]) if key is not None}
    counts: dict = {}
    for i in range(ROWS):
        key = cycle[i % len(cycle)]
        if key is not None and key in state_of:
            counts[state_of[key]] = counts.get(state_of[key], 0) + 1
    return counts


def engine_for(catalog: Catalog, path: str):
    if path == "cpu":
        return BluEngine(catalog)
    config = paper_testbed()
    thresholds = dataclasses.replace(config.thresholds, t1_min_rows=5_000,
                                     t2_min_groups=2, sort_min_rows=5_000)
    config = dataclasses.replace(config, thresholds=thresholds,
                                 fusion_enabled=(path == "fused"))
    return GpuAcceleratedEngine(catalog, config=config,
                                enable_join_offload=(path == "gpu-join"))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("path", ["cpu", "gpu-join", "fused"])
def test_null_keys_never_match(case, path):
    catalog = catalog_for(case)
    engine = engine_for(catalog, path)
    result = engine.execute_sql(SQL, query_id="q")
    got = result.table.to_pydict()
    assert dict(zip(got["st_state"], got["c"])) == expected_counts(case)
    assert tables_equal(result.table, BluEngine(catalog).execute_sql(SQL).table)
    if path == "gpu-join":
        assert any(e.op == "GPU-JOIN" for e in result.profile.events)
    if path == "fused":
        assert [s for s in engine.tracer.spans if s.name == "op.fused"]


def test_issue_example_returns_two_rows():
    left = Table.from_pydict("l", Schema.of(("k", int32())),
                             {"k": [1, None, 2, None]})
    right = Table.from_pydict("r", Schema.of(("k2", int32())),
                              {"k2": [None, 1, 2]})
    ledger = CostLedger()
    joined = execute_join(left, right, "k", "k2", CostModel(), ledger)
    assert joined.to_pydict() == {"k": [1, 2], "k2": [1, 2]}


def test_cost_terms_see_the_unfiltered_match_vectors():
    """The NULL pairs are dropped after matching: the JOIN event is priced
    on the same key arrays and match count as before the fix."""
    cost = CostModel()
    nullable, plain = (Table.from_pydict(
        "l", Schema.of(("k", int32())), {"k": keys})
        for keys in ([1, None, 0], [1, 0, 0]))
    right = Table.from_pydict("r", Schema.of(("k2", int32())), {"k2": [0, 1]})
    events = []
    for left in (nullable, plain):
        ledger = CostLedger()
        execute_join(left, right, "k", "k2", cost, ledger)
        events.append([(e.op, e.rows, e.cpu_seconds) for e in ledger.events])
    assert events[0] == events[1]
    assert np.isfinite(events[0][0][2])
