"""Eager / sort-based reference implementations, kept as test oracles.

These are the bodies the engine ran before late materialisation and
direct addressing: a gather per column per ``take``, a sort per
``group_encode``, ``np.unique`` + ``np.searchsorted`` per join lookup,
``np.unique`` per column at load.
The production code must return exactly what they return; nothing
outside ``tests/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.blu.column import Column
from repro.blu.statistics import ColumnStats
from repro.blu.table import Field, Schema, Table


def appearance_rank(first: np.ndarray,
                    n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank groups by their (distinct) first rows without sorting them.

    Returns ``(rank, first_row)``: group ``g``'s position in appearance
    order, and the first rows in that order (flag them, count the flags).
    """
    is_first = np.zeros(n_rows, dtype=bool)
    is_first[first] = True
    return (np.cumsum(is_first) - 1)[first], np.flatnonzero(is_first)


def eager_take(col: Column, indices) -> Column:
    """``Column.take`` as it was: gather data and mask on the spot."""
    mask = None if col.null_mask is None else col.null_mask[indices]
    return Column(col.dtype, col.data[indices], col.dictionary, mask)


def eager_table_take(table: Table, indices, name=None) -> Table:
    return Table(name or table.name, table.schema,
                 [eager_take(c, indices) for c in table.columns])


def eager_head(table: Table, n: int) -> Table:
    return eager_table_take(table, slice(0, n))


def eager_assemble(left: Table, right: Table, left_idx, right_idx) -> Table:
    """``join._assemble`` over eagerly gathered sides (no NULL keys here)."""
    taken_left = eager_table_take(left, left_idx)
    taken_right = eager_table_take(right, right_idx)
    fields = list(taken_left.schema.fields)
    columns = list(taken_left.columns)
    existing = {f.name.lower() for f in fields}
    for f, c in zip(taken_right.schema, taken_right.columns):
        if f.name.lower() in existing:
            continue
        fields.append(Field(f.name, f.dtype))
        columns.append(c)
    return Table(f"{left.name}_join_{right.name}", Schema(fields), columns)


def group_encode_sorted(key_arrays):
    """``group_encode``'s sort path, for every input."""
    n = len(key_arrays[0])
    if n == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0)
    if len(key_arrays) == 1:
        order = np.argsort(key_arrays[0])
    else:
        order = np.lexsort(tuple(reversed(key_arrays)))
    changed = np.zeros(n, dtype=bool)
    changed[0] = True
    for key in key_arrays:
        sorted_key = key[order]
        changed[1:] |= sorted_key[1:] != sorted_key[:-1]
    run_starts = np.flatnonzero(changed)
    first_of_run = np.minimum.reduceat(order, run_starts)
    renumber, first_row = appearance_rank(first_of_run, n)
    group_index = np.empty(n, dtype=np.int64)
    group_index[order] = np.repeat(renumber, np.diff(run_starts, append=n))
    return group_index, first_row, len(first_row)


def match_rows_sorted(build_keys, probe_keys):
    """The join lookup as it was: ``np.unique`` + ``np.searchsorted`` on a
    unique build side, one Python step per probe row otherwise."""
    empty = np.empty(0, dtype=np.int64)
    if len(build_keys) == 0 or len(probe_keys) == 0:
        return empty, empty
    unique_keys, first_pos = np.unique(build_keys, return_index=True)
    if len(unique_keys) == len(build_keys):
        positions = np.searchsorted(unique_keys, probe_keys)
        positions = np.clip(positions, 0, len(unique_keys) - 1)
        matched = unique_keys[positions] == probe_keys
        return np.nonzero(matched)[0], first_pos[positions[matched]]
    order = np.argsort(build_keys, kind="stable")
    sorted_build = build_keys[order]
    starts = np.searchsorted(sorted_build, probe_keys, side="left")
    ends = np.searchsorted(sorted_build, probe_keys, side="right")
    counts = ends - starts
    if not counts.sum():
        return empty, empty
    left_idx = np.repeat(np.arange(len(probe_keys)), counts)
    offsets = np.concatenate(
        [np.arange(s, e) for s, e in zip(starts, ends) if e > s])
    return left_idx, order[offsets]


def aligned_string_keys_by_row(build_col: Column, probe_col: Column):
    """String join keys as they were: decode every row, unique over rows."""
    build_vals = build_col.dictionary.decode(build_col.data).astype(str)
    probe_vals = probe_col.dictionary.decode(probe_col.data).astype(str)
    universe, build_keys = np.unique(build_vals, return_inverse=True)
    probe_pos = np.searchsorted(universe, probe_vals)
    probe_pos = np.clip(probe_pos, 0, len(universe) - 1)
    probe_keys = np.where(universe[probe_pos] == probe_vals, probe_pos, -1)
    return build_keys.astype(np.int64), probe_keys.astype(np.int64)


def oracle_column_stats(column: Column) -> ColumnStats:
    """``compute_column_stats`` as it was: one ``np.unique`` per column."""
    data = column.data
    null_count = int(column.null_mask.sum()) if column.null_mask is not None else 0
    if column.dictionary is not None:
        present = np.unique(data)
        distinct = int(len(present))
    else:
        distinct = int(len(np.unique(data)))
    lo, hi = column.min_max()
    return ColumnStats(
        rows=len(column),
        distinct=distinct,
        null_count=null_count,
        min_value=lo,
        max_value=hi,
    )
