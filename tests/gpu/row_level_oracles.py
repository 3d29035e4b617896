"""Row-level reference implementations, kept verbatim as test oracles.

These are the pre-"distinct-key" simulations of the offloaded kernels'
host side: one probe path per *row* with an ``np.unique`` per CAS round,
duplicate ranges as Python lists of tuples, and the list-driven segmented
descent.  The production code must reproduce every simulated quantity
they compute, bit for bit; nothing outside ``tests/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.hybrid_sort import SortJob, extract_partial_keys
from repro.errors import HashTableOverflowError
from repro.gpu.kernels.hashtable import GpuHashTable, InsertStats
from repro.timing import CostEvent

_EMPTY = np.int64(np.iinfo(np.int64).min)


def insert_row_level(self: GpuHashTable,
                     keys: np.ndarray) -> tuple[np.ndarray, InsertStats]:
    """The row-at-a-time insert: every unresolved row acts each round."""
    n = len(keys)
    keys = keys.astype(np.int64)
    if np.any(keys == _EMPTY):
        # The sentinel is not a legal key; remap it (paper: all-F key
        # pattern is reserved as the empty marker).
        keys = np.where(keys == _EMPTY, _EMPTY + 1, keys)
    row_slot = np.full(n, -1, dtype=np.int64)
    cur = self._slot_of(keys)
    active = np.arange(n)
    probes = 0
    rounds = 0
    max_rounds = 4 * self.slots + 64
    while active.size:
        rounds += 1
        if rounds > max_rounds:
            raise HashTableOverflowError(
                f"insert did not converge after {rounds} rounds "
                f"(slots={self.slots})"
            )
        slots_now = cur[active]
        occupants = self.table[slots_now]
        active_keys = keys[active]

        matched = occupants == active_keys
        empty = occupants == _EMPTY

        # atomicCAS: the first active row targeting each empty slot wins.
        if empty.any():
            empty_rows = active[empty]
            empty_slots = slots_now[empty]
            uniq_slots, first_idx = np.unique(empty_slots, return_index=True)
            winners = empty_rows[first_idx]
            self.table[uniq_slots] = keys[winners]
            self.filled += len(uniq_slots)
            row_slot[winners] = uniq_slots
            if self.filled > self.slots:
                raise HashTableOverflowError("slot accounting corrupted")

        if matched.any():
            row_slot[active[matched]] = slots_now[matched]

        # Remaining rows: either lost a CAS race (retry same slot) or hit
        # an occupied mismatch (probe to the next slot).
        unresolved = row_slot[active] == -1
        if not unresolved.any():
            break
        still = active[unresolved]
        occupants_still = self.table[cur[still]]
        mismatch = (occupants_still != keys[still]) & (occupants_still != _EMPTY)
        cur[still[mismatch]] = (cur[still[mismatch]] + 1) % self.slots
        probes += int(mismatch.sum())
        active = still

        if self.filled >= self.slots:
            # Table is full: any unresolved key absent from the table
            # can never be inserted — the estimate was too small.
            missing = ~np.isin(keys[active], self.table)
            if missing.any():
                raise HashTableOverflowError(
                    f"hash table full at {self.slots} slots with "
                    f"{int(missing.sum())} unplaced keys "
                    "(group estimate too small)"
                )
    stats = InsertStats(rows=n, probes=probes, rounds=rounds,
                        groups=self.filled, slots=self.slots)
    return row_slot, stats


def probe_row_level(table: GpuHashTable,
                    keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Row-at-a-time linear-probing lookups: match slot or -1 per row."""
    n = len(keys)
    result = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return result, 0
    keys = table.as_stored(keys)
    cur = table._slot_of(keys)
    active = np.arange(n)
    extra_probes = 0
    empty = np.int64(np.iinfo(np.int64).min)
    for _round in range(table.slots + 1):
        if not active.size:
            break
        occupants = table.table[cur[active]]
        active_keys = keys[active]
        miss = occupants == empty               # definitively absent
        hit = (occupants == active_keys) & ~miss
        result[active[hit]] = cur[active[hit]]
        unresolved = ~(hit | miss)
        still = active[unresolved]
        cur[still] = (cur[still] + 1) % table.slots
        extra_probes += len(still)
        active = still
    return result, extra_probes


def duplicate_ranges_list(sorted_keys: np.ndarray) -> list[tuple[int, int]]:
    """Runs of equal keys in an already-sorted array (start, length)."""
    length = len(sorted_keys)
    if not length:
        return []
    change = np.empty(length, dtype=bool)
    change[0] = True
    change[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.nonzero(change)[0]
    lengths = np.diff(np.append(starts, length))
    return [(int(s), int(n)) for s, n in zip(starts, lengths) if n > 1]


def drain_duplicate_ranges_list(self, encoded, order, ranges, offset,
                                total_bytes, radix, ctx, stats, table_name,
                                queue) -> None:
    """One generation of duplicate ranges at a time, ranges as tuples."""
    cost = ctx.config.cost
    while ranges and offset < total_bytes:
        rows = sum(r[1] for r in ranges)
        if len(ranges) < 2 or rows < cost.cpu_sort_job_threshold:
            for start, length in ranges:
                stats.duplicate_jobs += 1
                queue.append(SortJob(start, length, offset))
            return
        stats.duplicate_jobs += len(ranges)
        stats.jobs_total += 1
        lengths = np.array([r[1] for r in ranges], dtype=np.int64)
        positions = np.concatenate(
            [np.arange(s, s + n) for s, n in ranges])
        rows_idx = order[positions]
        partial = extract_partial_keys(encoded, rows_idx, offset)
        seg = np.repeat(np.arange(len(ranges), dtype=np.int64),
                        lengths)
        ctx.ledger.add(CostEvent(
            op="PARTIALKEY", rows=rows,
            cpu_seconds=rows / cost.cpu_partialkey_rate,
            max_degree=min(ctx.degree, 48),
        ))
        # Stable by (segment, partial key): within each segment this
        # is exactly the per-range sort; across segments nothing
        # moves.
        perm = np.lexsort((partial, seg))
        self._charge_segmented(rows, len(ranges), radix, ctx, stats,
                               table_name)
        order[positions] = rows_idx[perm]

        sorted_partial = partial[perm]
        sorted_seg = seg[perm]
        change = np.empty(rows, dtype=bool)
        change[0] = True
        change[1:] = ((sorted_partial[1:] != sorted_partial[:-1])
                      | (sorted_seg[1:] != sorted_seg[:-1]))
        run_starts = np.nonzero(change)[0]
        run_lengths = np.diff(np.append(run_starts, rows))
        # A run stays inside one segment, and sorted rank p lands at
        # absolute slot positions[p], so each surviving run is again
        # one contiguous absolute range.
        ranges = [
            (int(positions[rs]), int(rl))
            for rs, rl in zip(run_starts, run_lengths) if rl > 1
        ]
        offset += 4
