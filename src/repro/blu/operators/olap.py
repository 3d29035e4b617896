"""OLAP RANK() — the window function that drives SORT in Cognos ROLAP."""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from repro.blu.column import Column
from repro.blu.datatypes import int64
from repro.blu.plan import RankNode, SortKey
from repro.blu.operators.sort import sort_order
from repro.blu.table import Field, Schema, Table
from repro.config import CostModel
from repro.timing import CostLedger


#: Pluggable window-sort strategy: ``(table, keys) -> row order``.  The
#: callable does its own cost accounting for an order it returns; a
#: ``None`` order (or no callable) keeps the stock CPU sort.  This is the
#: seam through which the hybrid sort executor (and its sharded N-device
#: path) accelerates the sort RANK drives.
RankOrderFn = Callable[[Table, Sequence[SortKey]], Optional[np.ndarray]]


def execute_rank(
    table: Table,
    node: RankNode,
    cost: CostModel,
    ledger: CostLedger,
    max_degree: int = 24,
    order_fn: Optional[RankOrderFn] = None,
) -> Table:
    """Append a RANK() column computed over (partition, order) keys.

    Standard SQL RANK: ties share a rank and the next distinct value skips
    ahead by the tie count.  Implemented as one sort over
    (partition_keys..., order_key) plus a linear pass — which is exactly why
    the paper says RANK "drives SORT".  ``order_fn`` replaces that sort
    (cost accounting included) when it returns an order, so a GPU-backed
    engine can offload it.
    """
    keys = [SortKey(k) for k in node.partition_keys]
    keys.append(SortKey(node.order_key, ascending=node.ascending))
    rows = table.num_rows
    order = order_fn(table, keys) if order_fn is not None else None
    if order is None:
        order = sort_order(table, keys)
        if rows > 1:
            comparisons = rows * math.log2(rows) * len(keys)
            ledger.cpu("SORT", rows, comparisons / (cost.cpu_sort_rate * 16),
                       max_degree)
    ledger.cpu("RANK", rows, rows / cost.cpu_scan_rate, max_degree)

    ranks_sorted = _ranks_in_order(table, node, order)
    ranks = np.empty(rows, dtype=np.int64)
    ranks[order] = ranks_sorted

    fields = list(table.schema.fields) + [Field(node.alias, int64())]
    columns = list(table.columns) + [Column(int64(), ranks)]
    return Table(f"{table.name}_ranked", Schema(fields), columns)


def _ranks_in_order(table: Table, node: RankNode, order: np.ndarray) -> np.ndarray:
    """RANK values for rows laid out in sorted order."""
    rows = len(order)
    if rows == 0:
        return np.empty(0, dtype=np.int64)
    new_partition = np.zeros(rows, dtype=bool)
    new_partition[0] = True
    for key in node.partition_keys:
        arr = table.column(key).data[order]
        new_partition[1:] |= arr[1:] != arr[:-1]
    order_vals = table.column(node.order_key).sort_keys()[order]
    new_value = np.zeros(rows, dtype=bool)
    new_value[0] = True
    new_value[1:] = order_vals[1:] != order_vals[:-1]
    new_value |= new_partition

    position = np.arange(rows, dtype=np.int64)
    partition_start = np.maximum.accumulate(np.where(new_partition, position, 0))
    # RANK = index of the current value-run's first row within its partition + 1.
    value_start = np.maximum.accumulate(np.where(new_value, position, 0))
    return value_start - partition_start + 1
