"""CPU hash join (build on the right/dimension side, probe the left).

Joins stay on the host in the paper's prototype ("As one of our next steps,
we would like to study the performance of other compute intensive operations
(like join) on the GPU"), so this operator only ever produces CPU cost
events.
"""

from __future__ import annotations

import numpy as np

from repro.blu.operators.aggregate import dense_span
from repro.blu.table import Schema, Table
from repro.config import CostModel
from repro.errors import ExecutionError
from repro.timing import CostLedger


def execute_join(
    left: Table,
    right: Table,
    left_key: str,
    right_key: str,
    cost: CostModel,
    ledger: CostLedger,
    max_degree: int = 48,
) -> Table:
    """Inner equi-join; left columns plus non-colliding right columns."""
    build_col = right.column(right_key)
    probe_col = left.column(left_key)
    if build_col.dtype.is_string != probe_col.dtype.is_string:
        raise ExecutionError(
            f"join key type mismatch: {probe_col.dtype} vs {build_col.dtype}"
        )

    build_keys, probe_keys = _aligned_keys(build_col, probe_col)
    left_idx, right_idx = match_rows(build_keys, probe_keys)
    if len(build_keys) == 0 or len(probe_keys) == 0:
        rows = max(len(build_keys), len(probe_keys))
        seconds = rows / cost.cpu_join_probe_rate
    else:
        columns = left.num_columns + right.num_columns
        seconds = (
            len(build_keys) / cost.cpu_join_build_rate
            + len(probe_keys) / cpu_probe_rate(len(build_keys), cost)
            + len(left_idx) * columns / cost.cpu_decode_rate
        )
    ledger.cpu("JOIN", left.num_rows, seconds, max_degree)
    return _assemble(left, right, left_key, right_key, left_idx, right_idx)


def match_rows(build_keys: np.ndarray, probe_keys: np.ndarray) -> tuple:
    """Inner-join match vectors ``(probe rows, build rows)``, probe-ordered.

    Dense unique build keys (the star-schema dimension case: surrogate
    keys, dictionary codes) are addressed directly: one position table, then
    a subtraction and a gather per probe row.  Sparse or duplicated build
    keys take the sort-merge expansion.
    """
    span = dense_span(build_keys, len(build_keys) + len(probe_keys))
    if span is not None:
        low, slots = span
        position = np.full(slots, -1, dtype=np.int64)
        position[build_keys - low] = np.arange(len(build_keys))
        if np.count_nonzero(position >= 0) == len(build_keys):  # unique
            # A wrapped difference cannot land in [0, slots): the probe key
            # and low + offset are both representable, so they are equal.
            offset = probe_keys - low
            left_idx = np.flatnonzero((offset >= 0) & (offset < slots))
            right_idx = position[offset[left_idx]]
            hit = right_idx >= 0
            return left_idx[hit], right_idx[hit]
    return _many_to_many(probe_keys, build_keys)


def cpu_probe_rate(build_rows: int, cost: CostModel) -> float:
    """Per-core probe throughput: random lookups slow sharply once the
    build table falls out of the last-level cache (dimension tables fit;
    fact-sized build sides do not)."""
    build_bytes = build_rows * 16  # key + payload pointer
    if build_bytes <= cost.cpu_cache_bytes:
        return cost.cpu_join_probe_rate
    return cost.cpu_join_probe_rate_uncached


def _assemble(
    left: Table,
    right: Table,
    left_key: str,
    right_key: str,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
) -> Table:
    """Joined table from match vectors: where every join executor ends.

    SQL never matches a NULL key, but NULLs are stored as 0 and the lookups
    pair them.  Such pairs are dropped here, after matching, so the key
    arrays and every cost term priced on them stay as they were.
    """
    sides = ((left[left_key], left_idx), (right[right_key], right_idx))
    nulls = [c.null_mask[idx] for c, idx in sides if c.null_mask is not None]
    null = np.logical_or.reduce(nulls) if nulls else None
    if null is not None and null.any():
        left_idx, right_idx = left_idx[~null], right_idx[~null]
    fields = list(left.schema.fields)
    columns = list(left.take(left_idx).columns)
    existing = {f.name.lower() for f in fields}
    for f, c in zip(right.schema, right.take(right_idx).columns):
        if f.name.lower() not in existing:
            fields.append(f)
            columns.append(c)
    name = f"{left.name}_join_{right.name}"
    return Table(name, Schema(fields), columns)


def _aligned_keys(build_col, probe_col) -> tuple[np.ndarray, np.ndarray]:
    """Comparable int64 key arrays for build and probe sides.

    Dictionary-encoded string keys from *different* tables carry different
    code spaces, so string joins align the two dictionaries (cardinality
    sized): a build value's key is its rank among the values the build rows
    use, a probe value the build side lacks gets -1, and rows map through
    their codes without being decoded.
    """
    if build_col.dictionary is None:
        build_keys = build_col.data.astype(np.int64)
        return build_keys, probe_col.data.astype(np.int64)
    build_values = build_col.dictionary.values.astype(str)
    used = np.zeros(len(build_values), dtype=bool)
    used[build_col.data] = True
    universe, rank = np.unique(build_values[used], return_inverse=True)
    build_map = np.full(len(build_values), -1, dtype=np.int64)
    build_map[used] = rank
    probe_values = probe_col.dictionary.values.astype(str)
    found = np.isin(probe_values, universe)
    probe_map = np.where(found, np.searchsorted(universe, probe_values), -1)
    return build_map[build_col.data], probe_map[probe_col.data]


def _many_to_many(probe_keys: np.ndarray, build_keys: np.ndarray):
    """General inner join via sorted expansion (sparse or duplicate keys)."""
    order = np.argsort(build_keys, kind="stable")
    sorted_build = build_keys[order]
    starts = np.searchsorted(sorted_build, probe_keys, side="left")
    counts = np.searchsorted(sorted_build, probe_keys, side="right") - starts
    left_idx = np.repeat(np.arange(len(probe_keys)), counts)
    # Match p sits at its probe row's run start plus its rank in the run.
    packed_starts = np.cumsum(counts) - counts
    positions = np.arange(len(left_idx)) + (starts - packed_starts)[left_idx]
    return left_idx, order[positions]
