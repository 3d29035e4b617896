"""Kernel 1 — regular queries (section 4.3.1).

Global hash table in device memory sized from the optimizer/KMV group
estimate; parallel threads insert keys with atomicCAS (locks for keys wider
than 64 bits) and apply every aggregation function with per-payload atomic
operations immediately after finding the group.
"""

from __future__ import annotations

from repro.config import CostModel
from repro.gpu.kernels.atomics import AtomicsModel
from repro.gpu.kernels.hashtable import GpuHashTable
from repro.gpu.kernels.request import GroupByKernelResult, GroupByRequest

_WIDE_KEY_LOCK_PENALTY = 3.0    # lock-guarded insert for keys > 64 bits


class RegularGroupByKernel:
    """The default hash-based group-by/aggregation kernel."""

    name = "groupby_regular"
    #: One atomic per payload; kernel 3 takes one row lock instead.
    row_lock = False

    def __init__(self, cost: CostModel) -> None:
        self.cost = cost
        self.atomics = AtomicsModel(cost)

    def table_bytes(self, request: GroupByRequest,
                    headroom: float = 1.5) -> int:
        """Device memory the hash table will claim (for reservations)."""
        table = GpuHashTable.sized_for(
            request.estimated_groups, request.key_bits, request.payloads,
            headroom=headroom,
        )
        return table.table_bytes

    def run(self, request: GroupByRequest,
            headroom: float = 1.5) -> GroupByKernelResult:
        """Execute the kernel; raises HashTableOverflowError when the group
        estimate was too small (callers own the grow-and-retry loop)."""
        table = GpuHashTable.sized_for(
            request.estimated_groups, request.key_bits, request.payloads,
            headroom=headroom,
        )
        factors = request.groups()
        stats = table.insert_stats(factors.keys, factors.counts,
                                   request.hashes)
        n_groups = stats.groups         # fresh table: one entry per group

        init_seconds = table.table_bytes / self.cost.gpu_init_rate
        insert_seconds = stats.total_accesses / self.cost.gpu_ht_insert_rate
        if request.key_bits > 64:
            insert_seconds *= _WIDE_KEY_LOCK_PENALTY
        agg_seconds = self.atomics.total_aggregation_seconds(
            request.payloads, stats.rows, n_groups, row_lock=self.row_lock,
        )
        return GroupByKernelResult(
            kernel=self.name,
            group_index=factors.group_index,
            n_groups=n_groups,
            kernel_seconds=init_seconds + insert_seconds + agg_seconds,
            table_bytes=table.table_bytes,
            stats={
                "probes": stats.probes,
                "rounds": stats.rounds,
                "fill_ratio": stats.fill_ratio,
                "init_seconds": init_seconds,
                "insert_seconds": insert_seconds,
                "agg_seconds": agg_seconds,
            },
        )
