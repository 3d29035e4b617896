"""Kernel 2 — small numbers of groups (section 4.3.2).

Each SMX builds a partial hash table in its 48 KB shared memory (the
64 KB split is configured shared-heavy) over its slice of the input, then
the partial tables are merged into a global table in device memory.  Tiny
group counts (group-by-birth-month style queries) make the shared tables
hot in every SMX, so inserts run at shared-memory speed instead of
device-global atomic speed.

Functionally we execute the same two phases: partition rows across SMXes,
build per-partition group assignments, then merge, so the simulation is the
real algorithm at Python scale.
"""

from __future__ import annotations

import numpy as np

from repro.config import CostModel
from repro.gpu.kernels.atomics import AtomicsModel
from repro.gpu.kernels.hashtable import HashTableLayout
from repro.gpu.kernels.request import GroupByKernelResult, GroupByRequest


class SharedMemoryGroupByKernel:
    """Two-phase shared-memory group-by for small group counts."""

    name = "groupby_shared"

    def __init__(self, cost: CostModel, smx_count: int = 15,
                 shared_bytes: int = 48 * 1024) -> None:
        self.cost = cost
        self.smx_count = smx_count
        self.shared_bytes = shared_bytes
        self.atomics = AtomicsModel(cost)

    # ------------------------------------------------------------------
    # Applicability and sizing
    # ------------------------------------------------------------------

    def shared_capacity_groups(self, request: GroupByRequest) -> int:
        """How many groups one SMX's shared table can hold."""
        layout = HashTableLayout.build(request.key_bits, request.payloads)
        return max(1, self.shared_bytes // layout.entry_bytes)

    def fits(self, request: GroupByRequest, headroom: float = 1.3) -> bool:
        """Can the estimated groups live in shared memory with headroom?"""
        return (request.estimated_groups * headroom
                <= self.shared_capacity_groups(request))

    def table_bytes(self, request: GroupByRequest,
                    headroom: float = 1.5) -> int:
        """Device memory needed: the global merge target table."""
        layout = HashTableLayout.build(request.key_bits, request.payloads)
        slots = max(16, int(request.estimated_groups * headroom))
        return layout.table_bytes(slots)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, request: GroupByRequest,
            headroom: float = 1.5) -> GroupByKernelResult:
        rows = request.rows
        capacity = self.shared_capacity_groups(request)

        # Phase 2's merge result — the global group assignment — also
        # yields phase 1: each SMX builds a shared-memory table over its
        # contiguous slice, holding the groups seen there; a slice whose
        # group count exceeds shared capacity must flush (merge early)
        # once per overflow.
        group_index, distinct, _counts = request.factorisation()
        n_groups = len(distinct)
        bounds = np.linspace(0, rows, self.smx_count + 1, dtype=np.int64)
        smx_of_row = np.repeat(np.arange(self.smx_count), np.diff(bounds))
        seen = np.zeros((self.smx_count, n_groups), dtype=bool)
        seen[smx_of_row, group_index] = True
        chunk_groups = seen.sum(axis=1)
        partial_entries = int(chunk_groups.sum())
        flushes = int(np.maximum(0, -(-chunk_groups // capacity) - 1).sum())

        layout = HashTableLayout.build(request.key_bits, request.payloads)
        global_slots = max(16, int(max(request.estimated_groups, n_groups)
                                   * headroom))
        table_bytes = layout.table_bytes(global_slots)

        insert_seconds = rows / self.cost.gpu_shared_insert_rate
        merge_entries = partial_entries * (1 + flushes)
        merge_seconds = (merge_entries * max(1, request.num_aggs)
                         / self.cost.gpu_shared_merge_rate)
        init_seconds = (table_bytes + self.smx_count * self.shared_bytes) \
            / self.cost.gpu_init_rate
        # Shared-memory aggregation piggybacks on the insert (same bank
        # access), so only the merge pays per-payload atomic costs.
        agg_seconds = self.atomics.total_aggregation_seconds(
            request.payloads, merge_entries, n_groups, row_lock=False,
        )
        return GroupByKernelResult(
            kernel=self.name,
            group_index=group_index,
            n_groups=n_groups,
            kernel_seconds=(init_seconds + insert_seconds
                            + merge_seconds + agg_seconds),
            table_bytes=table_bytes,
            stats={
                "partial_entries": partial_entries,
                "flushes": flushes,
                "shared_capacity_groups": capacity,
                "insert_seconds": insert_seconds,
                "merge_seconds": merge_seconds,
            },
        )
