"""Grouping and aggregation primitives shared by CPU and GPU paths.

The GPU kernels must produce results bit-identical to the CPU chain, so both
sides reduce to the same primitives: :func:`group_encode` assigns a dense
group index to every row, and :func:`apply_aggregates` folds payload columns
per group.  The GPU kernels walk the simulated hash table over the same
factorisation (:func:`factorise`, computed once per operator by the host
chain) and aggregate with these reductions; tests cross-check the two paths.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.blu.column import Column
from repro.blu.datatypes import DataType, float64, int64
from repro.blu.expressions import AggFunc, AggSpec
from repro.blu.table import Table
from repro.errors import ExecutionError, TypeMismatchError


def group_encode(key_arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense-encode composite grouping keys.

    Returns ``(group_index, first_row, n_groups)`` where ``group_index[r]``
    is the dense id of row ``r``'s group, and ``first_row[g]`` is a
    representative row of group ``g``.  Groups are numbered in order of first
    appearance, matching hash-table insertion order semantics.
    """
    if not key_arrays:
        raise ExecutionError("group_encode requires at least one key")
    n = len(key_arrays[0])
    if n == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0)
    span = dense_span(key_arrays[0], n) if len(key_arrays) == 1 else None
    if span is not None:
        # Direct addressing, no sort: scattering row ids in reverse leaves
        # each key's *first* row in its slot (numpy keeps the last write),
        # and only slots some row wrote are ever read back.
        slot = key_arrays[0] - span[0]
        first = np.empty(span[1], dtype=np.int64)
        first[slot[::-1]] = np.arange(n - 1, -1, -1)
        first_of_row = first[slot]
    else:
        # One sort makes equal keys adjacent (np.lexsort takes keys
        # minor-to-major); run order does not matter, because each run's
        # first appearance is read off as its smallest row id.
        if len(key_arrays) == 1:
            order = np.argsort(key_arrays[0])
        else:
            order = np.lexsort(tuple(reversed(key_arrays)))
        changed = np.zeros(n, dtype=bool)
        changed[0] = True
        for key in key_arrays:
            sorted_key = key[order]
            changed[1:] |= sorted_key[1:] != sorted_key[:-1]
        if changed.all():
            # No equal neighbours: every row is its own group, in row order.
            return np.arange(n), np.arange(n), n
        run_starts = np.flatnonzero(changed)
        first_of_run = np.minimum.reduceat(order, run_starts)
        first_of_row = np.empty(n, dtype=np.int64)
        first_of_row[order] = np.repeat(first_of_run,
                                        np.diff(run_starts, append=n))
    # Number groups by first appearance: group 0 is the first row's group.
    is_first = first_of_row == np.arange(n)
    first_row = np.flatnonzero(is_first)
    return (np.cumsum(is_first) - 1)[first_of_row], first_row, len(first_row)


class Factorisation(NamedTuple):
    """One operator's combined keys, factorised once by the host chain and
    read by everything downstream (insert, KMV, kernels, the piece split):
    row ``r``'s dense group id ``group_index[r]`` — groups numbered by first
    appearance — group ``g``'s key ``keys[g]`` and row count ``counts[g]``.
    """

    group_index: np.ndarray
    keys: np.ndarray
    counts: np.ndarray


def factorise(keys: np.ndarray) -> tuple[Factorisation, np.ndarray]:
    """``(factorisation, first row of each group)`` of one key word per row."""
    keys = np.asarray(keys, dtype=np.int64)
    group_index, first_row, n_groups = group_encode([keys])
    return Factorisation(group_index, keys[first_row], np.bincount(
        group_index, minlength=n_groups)), first_row


def dense_span(keys: np.ndarray, rows: int) -> Optional[tuple]:
    """``(min, span)`` when ``keys`` can index a table directly, else None.

    The one home of the direct-addressing rule: integer keys whose value
    span ``max - min + 1`` is at most 4x the ``rows`` that will touch the
    table (surrogate keys and dictionary codes; hashed composites are not).
    A span-sized table then costs no more memory traffic than the sort it
    replaces.  A caller's ``keys - min`` runs in the keys' own dtype: exact
    for the int32/int64 a ``Column`` stores, but an int8/int16 span above
    the signed maximum (-100..100 in int8) wraps — widen such keys first.
    """
    if keys.dtype.kind not in "iu" or not len(keys):
        return None
    lo = keys.min()
    span = int(keys.max()) - int(lo) + 1
    return (lo, span) if span <= 4 * rows else None


def _reduce(func: AggFunc, group_index: np.ndarray, n_groups: int,
            values: np.ndarray, valid: Optional[np.ndarray]) -> np.ndarray:
    """Apply one aggregation per group (``valid`` None: no NULL to mask)."""
    gi, vals = group_index, values
    if valid is not None:
        gi, vals = group_index[valid], values[valid]
    if func is AggFunc.COUNT:
        return np.bincount(gi, minlength=n_groups).astype(np.int64)
    if func is AggFunc.SUM:
        if vals.dtype.kind == "f":
            return np.bincount(gi, weights=vals, minlength=n_groups)
        out = np.zeros(n_groups, dtype=np.int64)
        np.add.at(out, gi, vals.astype(np.int64, copy=False))
        return out
    if func is AggFunc.MIN:
        fill = np.iinfo(np.int64).max if vals.dtype.kind != "f" else np.inf
        out = np.full(n_groups, fill, dtype=vals.dtype if vals.dtype.kind == "f" else np.int64)
        np.minimum.at(out, gi, vals)
        return out
    if func is AggFunc.MAX:
        fill = np.iinfo(np.int64).min if vals.dtype.kind != "f" else -np.inf
        out = np.full(n_groups, fill, dtype=vals.dtype if vals.dtype.kind == "f" else np.int64)
        np.maximum.at(out, gi, vals)
        return out
    if func is AggFunc.AVG:
        counts = np.bincount(gi, minlength=n_groups)
        sums = np.bincount(gi, weights=vals.astype(np.float64), minlength=n_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    raise ExecutionError(f"unsupported aggregate {func}")


def apply_aggregates(
    group_index: np.ndarray,
    n_groups: int,
    table: Table,
    aggs: Sequence[AggSpec],
) -> list[tuple[str, DataType, Column]]:
    """Evaluate each aggregation over the dense group index.

    Returns ``[(alias, output_type, column)]`` in SELECT-list order.  String
    MIN/MAX aggregate on collation ranks and decode back through the
    dictionary, mirroring how the GPU path must lock-protect wide values.
    """
    out: list[tuple[str, DataType, Column]] = []
    for spec in aggs:
        if spec.expr is None:  # COUNT(*)
            counts = np.bincount(group_index, minlength=n_groups).astype(np.int64)
            out.append((spec.alias, int64(), Column(int64(), counts)))
            continue
        res = spec.expr.evaluate(table)
        valid = None if res.nulls is None else ~res.nulls
        if res.dtype.is_string:
            if spec.func is AggFunc.COUNT:
                # COUNT([DISTINCT] string): count on factorised codes.
                _, codes = np.unique(res.values.astype(str),
                                     return_inverse=True)
                codes = codes.astype(np.int64)
                if spec.distinct:
                    gi, vals, ok = _distinct_pairs(group_index, codes, valid)
                else:
                    gi, vals, ok = group_index, codes, valid
                reduced = _reduce(AggFunc.COUNT, gi, n_groups, vals, ok)
                out.append((spec.alias, int64(),
                            Column(int64(), reduced.astype(np.int64))))
                continue
            col = _string_min_max(spec, group_index, n_groups, table, valid)
            out.append((spec.alias, res.dtype, col))
            continue
        values = res.values
        if spec.distinct and spec.func in (AggFunc.SUM, AggFunc.COUNT,
                                           AggFunc.AVG):
            group_index_in, values_in, valid_in = _distinct_pairs(
                group_index, values, valid)
            reduced = _reduce(spec.func, group_index_in, n_groups,
                              values_in, valid_in)
        else:
            reduced = _reduce(spec.func, group_index, n_groups, values,
                              valid)
        out_type = spec.output_type(table)
        if spec.func is AggFunc.AVG:
            col = Column(float64(), reduced.astype(np.float64))
            out.append((spec.alias, float64(), col))
        else:
            col = Column(out_type, reduced.astype(out_type.numpy_dtype))
            out.append((spec.alias, out_type, col))
    return out


def _distinct_pairs(group_index: np.ndarray, values: np.ndarray,
                    valid: Optional[np.ndarray]):
    """Keep one row per distinct (group, value) pair (DISTINCT aggregates)."""
    positions = (np.arange(len(values)) if valid is None
                 else np.nonzero(valid)[0])
    if not len(positions):
        return group_index, values, valid
    gi = group_index[positions]
    vals = values[positions]
    order = np.lexsort((vals, gi))
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = (gi[order][1:] != gi[order][:-1]) \
        | (vals[order][1:] != vals[order][:-1])
    selected = positions[order[keep]]
    return group_index[selected], values[selected], None


def _string_min_max(spec: AggSpec, group_index: np.ndarray, n_groups: int,
                    table: Table, valid: np.ndarray) -> Column:
    """MIN/MAX over a dictionary-encoded string column."""
    from repro.blu.expressions import ColumnRef

    if spec.func not in (AggFunc.MIN, AggFunc.MAX):
        raise TypeMismatchError(f"{spec.func.value} is not defined for strings")
    if not isinstance(spec.expr, ColumnRef):
        raise TypeMismatchError("string aggregates require a plain column")
    source = table.column(spec.expr.name)
    if source.dictionary is None:
        raise TypeMismatchError("string aggregates require an encoded column")
    ranks = source.dictionary.sort_rank[source.data].astype(np.int64)
    reduced_rank = _reduce(spec.func, group_index, n_groups, ranks, valid)
    # Map winning ranks back to codes: invert sort_rank.
    code_of_rank = np.empty(source.dictionary.cardinality, dtype=np.int32)
    code_of_rank[source.dictionary.sort_rank] = np.arange(
        source.dictionary.cardinality, dtype=np.int32
    )
    reduced_rank = np.clip(reduced_rank, 0, source.dictionary.cardinality - 1)
    codes = code_of_rank[reduced_rank.astype(np.int64)]
    return Column(source.dtype, codes, source.dictionary)


# Sentinel for NULL grouping keys.  SQL groups all NULLs together, in a
# group distinct from every real value (including the 0 the storage layer
# uses as the null placeholder).  One above the hash table's empty-slot
# marker, which the insert path already remaps.
NULL_KEY_SENTINEL = np.int64(np.iinfo(np.int64).min + 3)


def grouping_key_arrays(table: Table, keys: Sequence[str]) -> list[np.ndarray]:
    """Encoded key arrays for grouping (codes for strings, values otherwise).

    NULL rows are replaced by :data:`NULL_KEY_SENTINEL` so they form their
    own group, per SQL GROUP BY semantics.
    """
    arrays = []
    for name in keys:
        col = table.column(name)
        arr = col.data.astype(np.int64, copy=False)
        if col.null_mask is not None:
            arr = np.where(col.null_mask, NULL_KEY_SENTINEL, arr)
        arrays.append(arr)
    return arrays


def build_group_output(
    table: Table,
    keys: Sequence[str],
    aggs: Sequence[AggSpec],
    group_index: np.ndarray,
    first_row: np.ndarray,
    n_groups: int,
    name: str,
) -> Table:
    """Assemble the grouped result table (keys first, then aggregates)."""
    from repro.blu.table import Field, Schema

    fields = []
    columns = []
    for key in keys:
        src = table.column(key)
        fields.append(Field(key, src.dtype))
        columns.append(src.take(first_row))
    for alias, dtype, col in apply_aggregates(group_index, n_groups, table, aggs):
        fields.append(Field(alias, dtype))
        columns.append(col)
    return Table(name, Schema(fields), columns)
