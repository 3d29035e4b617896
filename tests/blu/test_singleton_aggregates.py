"""One row per group: the aggregates are the rows' own values, bit for bit.

``apply_aggregates`` skips every reduction when the first-appearance
factorisation has as many groups as rows.  These properties hold that
shortcut to the general reductions over NULLs, -0.0, NaN, infinities,
int64 extremes, float32 input, strings and DISTINCT.  The general side
runs on the same rows with one extra, empty group appended (``n_groups =
rows + 1``), which keeps it off the shortcut and leaves the first
``rows`` groups as they are.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.blu.datatypes import float64, int64, varchar
from repro.blu.expressions import AggFunc, AggSpec, ColumnRef
from repro.blu.operators.aggregate import (
    _reduce,
    _reduce_singletons,
    apply_aggregates,
)
from repro.blu.table import Schema, Table

I64 = np.iinfo(np.int64)
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -5e-324]),
    st.floats(allow_nan=True, allow_infinity=True))
_INTS = st.one_of(st.sampled_from([I64.min, I64.max, 0, -1]),
                  st.integers(I64.min, I64.max))
_FUNCS = [AggFunc.COUNT, AggFunc.SUM, AggFunc.MIN, AggFunc.MAX, AggFunc.AVG]


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype and bytes (tells -0.0 from 0.0, keeps NaN equal)."""
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def _arrays(draw):
    """A value array of one dtype and an optional validity mask."""
    dtype = draw(st.sampled_from([np.int32, np.int64, np.float32,
                                  np.float64]))
    n = draw(st.integers(0, 30))
    if np.dtype(dtype).kind == "f":
        values = np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)),
                          dtype=np.float64).astype(dtype)
    else:
        info = np.iinfo(dtype)
        values = np.array(draw(st.lists(
            st.one_of(st.sampled_from([info.min, info.max, 0]),
                      st.integers(info.min, info.max)),
            min_size=n, max_size=n)), dtype=dtype)
    valid = None
    if draw(st.booleans()):
        valid = np.array(draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)), dtype=bool)
    return values, valid


@given(case=_arrays(), func=st.sampled_from(_FUNCS))
@settings(max_examples=400, deadline=None)
def test_singleton_reduction_equals_the_general_one(case, func):
    values, valid = case
    n = len(values)
    want = _reduce(func, np.arange(n), n, values, valid)
    got = _reduce_singletons(func, values, valid)
    if n and (valid is None or valid.any()):
        assert got.dtype == want.dtype
    # With no valid row numpy's weighted ``bincount`` answers in int64;
    # ``apply_aggregates`` casts both to the output type.
    common = np.result_type(got, want)
    assert _same(got.astype(common), want.astype(common))


@st.composite
def _tables(draw):
    """A table of int64 (extremes), float64 (-0.0, NaN, inf) and string
    columns, each with or without NULLs (at least one row: an empty string
    column has no dictionary rank for the extra empty group)."""
    n = draw(st.integers(1, 25))

    def column(elements):
        nullable = draw(st.booleans())
        return draw(st.lists(
            st.one_of(elements, st.none()) if nullable else elements,
            min_size=n, max_size=n))

    schema = Schema.of(("i", int64()), ("f", float64()), ("s", varchar(4)))
    table = Table.from_pydict("t", schema, {
        "i": column(_INTS), "f": column(_FLOATS),
        "s": column(st.sampled_from(["a", "b", "zz", ""])),
    })
    if draw(st.booleans()):
        # A filtered input: its columns are still deferred gathers.
        table = table.take(draw(st.permutations(range(n))))
    return table


_SPECS = st.lists(st.one_of(
    st.builds(AggSpec, st.sampled_from(_FUNCS),
              st.sampled_from([ColumnRef("i"), ColumnRef("f")]),
              st.just("x"), st.booleans()),
    st.builds(AggSpec, st.sampled_from([AggFunc.MIN, AggFunc.MAX,
                                        AggFunc.COUNT]),
              st.just(ColumnRef("s")), st.just("x"), st.booleans()),
    st.just(AggSpec(AggFunc.COUNT, None, "x"))), min_size=1, max_size=6)


@given(table=_tables(), aggs=_SPECS)
@settings(max_examples=300, deadline=None)
def test_singleton_aggregates_equal_the_general_reductions(table, aggs):
    n = table.num_rows
    identity = np.arange(n)
    got = apply_aggregates(identity, n, table, aggs)
    want = apply_aggregates(identity, n + 1, table, aggs)
    for (alias, dtype, col), (w_alias, w_dtype, w_col) in zip(got, want):
        assert (alias, dtype) == (w_alias, w_dtype)
        assert _same(col.data, w_col.data[:n])
        assert col.dictionary is w_col.dictionary


def test_a_filtered_index_of_group_length_is_not_the_identity():
    """DISTINCT filtering can leave ``len == n_groups`` without group g
    being row g: here the valid pairs are (0, 5) and (0, 6).  The shortcut
    is decided on the operator's index, so group 1 stays empty."""
    table = Table.from_pydict("t", Schema.of(("v", int64())),
                              {"v": [5, 6, None]})
    spec = AggSpec(AggFunc.SUM, ColumnRef("v"), "s", distinct=True)
    [(_alias, _dtype, col)] = apply_aggregates(np.array([0, 0, 1]), 2,
                                               table, [spec])
    assert col.data.tolist() == [11, 0]

