"""Late materialisation: deferred gathers read back what eager gathers held.

Property (hypothesis): any chain of take / filter / head / select /
join-assemble / sort over a table with string, nullable and empty columns
yields the same ``data``, ``null_mask``, ``dictionary``, ``encoded_nbytes``
and ``to_pydict()`` as the eager oracle, whatever order the columns are
read in.  Plus the passes-over-memory guard: a star-join query gathers
only the columns it reads, however wide the fact table is.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.blu import BluEngine, Catalog, Schema, Table
from repro.blu.column import Column
from repro.blu.datatypes import float64, int32, varchar
from repro.blu.operators.join import _assemble
from repro.blu.operators.sort import execute_sort_cpu, sort_order
from repro.blu.plan import SortKey
from repro.config import CostModel
from repro.timing import CostLedger
from repro.workloads.bdinsights import bd_insights_queries
from tests.blu import oracles


FACT_SCHEMA = Schema.of(("k", int32()), ("n", int32()), ("s", varchar(4)),
                        ("f", float64()))
DIM = Table.from_pydict(
    "dim", Schema.of(("d_id", int32()), ("d_tag", varchar(3)), ("n", int32())),
    {"d_id": [0, 1, 2, 3], "d_tag": ["x", None, "y", "x"],
     "n": [7, 8, None, 9]})

fact_rows = st.lists(
    st.tuples(st.integers(0, 3),
              st.one_of(st.none(), st.integers(-5, 5)),
              st.one_of(st.none(), st.sampled_from(["a", "bb", "", "zz"])),
              st.one_of(st.none(), st.floats(-2, 2, allow_nan=False))),
    max_size=12)


def fact_table(rows) -> Table:
    columns = list(zip(*rows)) if rows else [[], [], [], []]
    return Table.from_pydict(
        "fact", FACT_SCHEMA, dict(zip(FACT_SCHEMA.names(), columns)))


def read_eagerly(table: Table) -> Table:
    """The same table with every column gathered through the oracle."""
    return oracles.eager_table_take(table, np.arange(table.num_rows))


def step(data, lazy: Table, eager: Table) -> tuple[Table, Table]:
    """Apply one drawn operation to the lazy table and to its oracle."""
    n = lazy.num_rows
    rows = st.integers(0, max(0, n - 1))
    op = data.draw(st.sampled_from(
        ["take", "filter", "mask", "head", "select", "join", "sort"]))
    if op == "take":
        idx = np.array(data.draw(st.lists(rows, max_size=2 * n) if n
                                 else st.just([])), dtype=np.int64)
        return lazy.take(idx), oracles.eager_table_take(eager, idx)
    if op in ("filter", "mask"):
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                           max_size=n)), dtype=bool)
        idx = np.nonzero(keep)[0]
        return (lazy.filter(idx if op == "filter" else keep),
                oracles.eager_table_take(eager, idx))
    if op == "head":
        k = data.draw(st.integers(0, n + 2))
        return lazy.head(k), oracles.eager_head(eager, k)
    if op == "select":
        names = data.draw(st.permutations(lazy.schema.names()))
        names = names[:data.draw(st.integers(1, len(names)))]
        return lazy.select(names), eager.select(names)
    if op == "join":
        pairs = data.draw(st.lists(st.tuples(rows, st.integers(0, 3)),
                                   max_size=2 * n) if n else st.just([]))
        left_idx = np.array([p[0] for p in pairs], dtype=np.int64)
        right_idx = np.array([p[1] for p in pairs], dtype=np.int64)
        key = "k" if "k" in lazy.schema else "d_id"
        if key not in lazy.schema:          # the non-NULL keys were projected away
            return lazy, eager
        return (_assemble(lazy, DIM, key, "d_id", left_idx, right_idx),
                oracles.eager_assemble(eager, DIM, left_idx, right_idx))
    keys = [SortKey(data.draw(st.sampled_from(lazy.schema.names())),
                    ascending=data.draw(st.booleans()))]
    return (execute_sort_cpu(lazy, keys, CostModel(), CostLedger()),
            oracles.eager_table_take(eager, sort_order(eager, keys)))


@settings(max_examples=150, deadline=None)
@given(rows=fact_rows, data=st.data())
def test_any_chain_reads_back_equal_to_eager(rows, data):
    lazy = eager = fact_table(rows)
    for _ in range(data.draw(st.integers(1, 6))):
        lazy, eager = step(data, lazy, eager)
        if data.draw(st.booleans()):
            eager = read_eagerly(eager)
    assert lazy.schema.names() == eager.schema.names()
    assert lazy.num_rows == eager.num_rows
    assert lazy.encoded_nbytes == eager.encoded_nbytes     # before any gather
    for position in data.draw(st.permutations(range(lazy.num_columns))):
        got, want = lazy.columns[position], eager.columns[position]
        assert len(got) == len(want)
        assert got.encoded_nbytes == want.encoded_nbytes
        if data.draw(st.booleans()):                       # mask before data
            assert (got.null_mask is None) == (want.null_mask is None)
        assert got.data.dtype == want.data.dtype
        assert np.array_equal(got.data, want.data)
        assert (got.null_mask is None) == (want.null_mask is None)
        if want.null_mask is not None:
            assert np.array_equal(got.null_mask, want.null_mask)
        assert got.dictionary is want.dictionary
        assert got.has_nulls == want.has_nulls
        assert got.encoded_nbytes == want.encoded_nbytes   # and after
    assert lazy.to_pydict() == eager.to_pydict()


class TestDeferredGather:
    def test_take_gathers_nothing_until_read(self, monkeypatch):
        gathers = count_gathers(monkeypatch)
        table = fact_table([(1, 2, "a", 0.5), (2, None, None, 1.5)] * 3)
        taken = table.take(np.array([5, 0, 3])).take(np.array([2, 2, 0]))
        assert (taken.num_rows, taken.encoded_nbytes) == (3, 3 * 20 + 2)
        assert gathers == []
        assert taken.column("n").values_at(range(3)) == [None, None, None]
        assert len(gathers) == 1

    def test_columns_of_one_source_share_their_row_ids(self):
        table = fact_table([(1, 2, "a", 0.5)] * 4)
        once = table.take(np.array([3, 1, 0]))
        twice = once.take(np.array([1, 1]))
        for taken in (once, twice, twice.head(1)):
            assert len({id(c._rows) for c in taken.columns}) == 1

    def test_read_column_drops_its_lineage(self):
        table = fact_table([(1, 2, "a", 0.5)] * 4)
        col = table.take(np.array([3, 1])).column("k")
        assert col._source is table.column("k").data
        assert list(col.data) == [1, 1]
        assert col._source is None and col._rows is None


def count_gathers(monkeypatch) -> list:
    gathers = []
    original = Column._gather

    def counted(self):
        gathers.append(self)
        original(self)
    monkeypatch.setattr(Column, "_gather", counted)
    return gathers


class TestPassesOverMemory:
    """A query gathers the columns it reads, not the columns its tables have."""

    SQL = next(q.sql for q in bd_insights_queries() if q.query_id == "C2")
    #: ss_item_sk, ss_store_sk, ss_quantity, ss_net_paid, ss_net_profit,
    #: ss_list_price, i_item_sk, s_store_sk (the four join keys among them).
    REFERENCED = 8

    def _gathers(self, monkeypatch, catalog) -> int:
        engine = BluEngine(catalog)
        gathers = count_gathers(monkeypatch)
        result = engine.execute_sql(self.SQL)
        executed = len(gathers)
        monkeypatch.undo()
        assert result.table.num_rows == 500
        return executed

    def test_star_join_gathers_only_what_it_reads(self, monkeypatch,
                                                  bd_catalog):
        fact = bd_catalog.table("store_sales")
        narrow = self._gathers(monkeypatch, bd_catalog)
        assert 0 < narrow <= self.REFERENCED < fact.num_columns

        extra = [f.name for f in fact.schema
                 if f.name not in ("ss_item_sk", "ss_store_sk")]
        fields = list(fact.schema.fields)
        columns = list(fact.columns)
        for copy in range(3):
            for name in extra:
                src = fact.schema.field(name)
                fields.append(type(src)(f"{name}_{copy}", src.dtype))
                columns.append(fact.column(name))
        wide_catalog = Catalog()
        for name in ("item", "store"):
            wide_catalog.register(bd_catalog.table(name))
        wide_catalog.register(Table("store_sales", Schema(fields), columns))
        assert len(columns) > 3 * fact.num_columns
        assert self._gathers(monkeypatch, wide_catalog) == narrow
