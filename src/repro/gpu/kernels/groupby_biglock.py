"""Kernel 3 — many aggregation functions / low contention (section 4.3.3).

Structurally kernel 1 (global device hash table, parallel inserts), but the
aggregation takes one *global row lock* per matched entry and then applies
every aggregation function under that single lock, instead of paying an
atomic (or lock) per payload.  This wins when the number of aggregation
functions is large (> 5) or when rows/groups is small so per-payload atomic
overhead is pure waste.
"""

from __future__ import annotations

from repro.config import CostModel
from repro.gpu.kernels.atomics import AtomicsModel
from repro.gpu.kernels.hashtable import GpuHashTable
from repro.gpu.kernels.request import GroupByKernelResult, GroupByRequest

_WIDE_KEY_LOCK_PENALTY = 3.0


class GlobalLockGroupByKernel:
    """Row-lock aggregation variant of the hash group-by."""

    name = "groupby_biglock"

    def __init__(self, cost: CostModel) -> None:
        self.cost = cost
        self.atomics = AtomicsModel(cost)

    def table_bytes(self, request: GroupByRequest,
                    headroom: float = 1.5) -> int:
        table = GpuHashTable.sized_for(
            request.estimated_groups, request.key_bits, request.payloads,
            headroom=headroom,
        )
        return table.table_bytes

    def run(self, request: GroupByRequest,
            headroom: float = 1.5) -> GroupByKernelResult:
        table = GpuHashTable.sized_for(
            request.estimated_groups, request.key_bits, request.payloads,
            headroom=headroom,
        )
        _row_slot, stats = table.insert(request.keys)
        n_groups = stats.groups         # fresh table: one entry per group

        init_seconds = table.table_bytes / self.cost.gpu_init_rate
        insert_seconds = stats.total_accesses / self.cost.gpu_ht_insert_rate
        if request.key_bits > 64:
            insert_seconds *= _WIDE_KEY_LOCK_PENALTY
        agg_seconds = self.atomics.total_aggregation_seconds(
            request.payloads, request.rows, n_groups, row_lock=True,
        )
        return GroupByKernelResult(
            kernel=self.name,
            group_index=stats.group_index,
            n_groups=n_groups,
            kernel_seconds=init_seconds + insert_seconds + agg_seconds,
            table_bytes=table.table_bytes,
            stats={
                "probes": stats.probes,
                "fill_ratio": stats.fill_ratio,
                "init_seconds": init_seconds,
                "insert_seconds": insert_seconds,
                "agg_seconds": agg_seconds,
            },
        )
