"""GPU hash-join kernel — the paper's stated next step.

Section 6: "As one of our next steps, we would like to study the
performance of other compute intensive operations (like join) on the GPU."
This module implements that step in the same style as the group-by
kernels: a device-global hash table is built over the (dimension) build
side, then probe rows look up their match in parallel.  The functional
result is exact; the cost model counts real probe traffic.

Only unique-build-key (FK/dimension) joins are eligible — the common star
schema case.  Many-to-many joins stay on the CPU, mirroring how the
original prototype scoped each offload to the shapes the kernel handles
well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.blu.operators.aggregate import dense_span, factorise
from repro.config import CostModel
from repro.errors import GpuError
from repro.gpu.kernels.hashtable import (GpuHashTable, HashTableLayout,
                                         InsertStats, MaskField)


@dataclass
class JoinKernelResult:
    """Matched row pairs plus simulated timing; each probe row's walk past
    its home slot (``steps``) and the table's terms price :meth:`shard`."""

    kernel: str
    left_idx: np.ndarray          # probe-side row ids with a match
    right_idx: np.ndarray         # matching build-side row ids
    kernel_seconds: float
    table_bytes: int
    stats: dict
    steps: np.ndarray = field(repr=False)
    build: "_Build" = field(repr=False)

    def shard(self, lo: int, hi: int) -> "JoinKernelResult":
        """The join of probe rows ``[lo, hi)`` alone, numbered from ``lo``:
        every field equals ``run(build_keys, probe_keys[lo:hi])``'s, as
        neither the table nor a row's walk depends on the other rows."""
        a, b = np.searchsorted(self.left_idx, (lo, hi))
        return self.build.result(self.left_idx[a:b] - lo,
                                 self.right_idx[a:b], self.steps[lo:hi])


@dataclass(frozen=True)
class _Build:
    """A built join table: what every probe row range of it pays."""

    cost: CostModel
    table_bytes: int
    insert: InsertStats

    def result(self, left_idx: np.ndarray, right_idx: np.ndarray,
               steps: np.ndarray) -> JoinKernelResult:
        """Price the probe of ``len(steps)`` rows walking ``steps``."""
        cost = self.cost
        probe_count = int(steps.sum(dtype=np.int64))
        build_seconds = self.insert.total_accesses / cost.gpu_ht_insert_rate
        # Probes are read-only (no CAS), so they run at the higher
        # load-coalesced rate.
        probe_seconds = (len(steps) + probe_count) / cost.gpu_ht_probe_rate
        init_seconds = self.table_bytes / cost.gpu_init_rate
        # Writing the compacted match vector is a sequential store at
        # device memory bandwidth (4 bytes per match).
        emit_seconds = len(left_idx) * 4 / cost.gpu_init_rate
        return JoinKernelResult(
            HashJoinKernel.name, left_idx, right_idx,
            init_seconds + build_seconds + probe_seconds + emit_seconds,
            self.table_bytes,
            {"build_probes": self.insert.probes,
             "probe_probes": probe_count, "matches": len(left_idx),
             "fill_ratio": self.insert.fill_ratio},
            steps=steps, build=self)


def _join_layout(key_bits: int) -> HashTableLayout:
    """Entry layout: key word + build-row payload (the 'pointer')."""
    key_bytes = max(4, (key_bits + 7) // 8)
    fields = (
        MaskField("key", key_bytes, "F" * (key_bits // 4)),
        MaskField("row", 8, -1),
    )
    raw = key_bytes + 8
    entry = ((raw + 7) // 8) * 8
    padding = entry - raw
    if padding:
        fields = fields + (MaskField("padding", padding, 0),)
    return HashTableLayout(key_bytes=key_bytes, fields=fields,
                           entry_bytes=entry, padding_bytes=padding)


class HashJoinKernel:
    """Build-then-probe device hash join over unique build keys."""

    name = "hash_join"

    def __init__(self, cost: CostModel) -> None:
        self.cost = cost

    def table_bytes(self, build_rows: int, key_bits: int = 64,
                    headroom: float = 1.5) -> int:
        layout = _join_layout(key_bits)
        slots = max(16, int(build_rows * headroom))
        return layout.table_bytes(slots)

    def run(self, build_keys: np.ndarray, probe_keys: np.ndarray,
            key_bits: int = 64, headroom: float = 1.5) -> JoinKernelResult:
        """Join ``probe_keys`` against unique ``build_keys``.

        Raises :class:`~repro.errors.GpuError` when the build side has
        duplicate keys (the kernel's documented scope).
        """
        build_keys = build_keys.astype(np.int64, copy=False)
        probe_keys = probe_keys.astype(np.int64, copy=False)
        table = GpuHashTable(
            slots=max(16, int(len(build_keys) * headroom)),
            key_bits=key_bits,
            layout=_join_layout(key_bits),
        )
        # The build side has no host chain behind it: it factorises itself.
        row_slot, insert_stats = table.insert(factorise(build_keys)[0])
        if insert_stats.groups != len(build_keys):
            raise GpuError(
                "hash_join kernel requires unique build keys "
                "(many-to-many joins run on the CPU)"
            )
        # slot -> build row id ("pointer" payload of the entry).
        slot_row = np.full(table.slots, -1, dtype=np.int64)
        slot_row[row_slot] = np.arange(len(build_keys))

        match_slot, steps = _probe(table, probe_keys)
        matched = match_slot >= 0
        left_idx = np.nonzero(matched)[0]
        return _Build(self.cost, table.table_bytes, insert_stats).result(
            left_idx, slot_row[match_slot[matched]], steps)


def _probe(table: GpuHashTable,
           keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parallel linear-probing lookups: per row, the slot of its key's
    match or -1, and the steps its walk took past the home slot.

    Rows with equal keys walk the same path, so the walk runs once per
    distinct key and every row of that key reads its result back.  A
    read-only walk does not depend on the order the keys appeared in, so
    on a dense span the distinct keys come from one ``bincount`` and the
    answers map back through the span table; only off it is a
    first-appearance factorisation worth its sort.  Keys walk as the
    table stores them (:meth:`GpuHashTable.as_stored`).
    """
    span = dense_span(keys, len(keys))
    if span is not None:
        key_of_row = keys - span[0]
        present = np.flatnonzero(np.bincount(key_of_row, minlength=span[1]))
        distinct = present + span[0]
    else:
        (key_of_row, distinct, _weight), _first = factorise(keys)
    distinct = table.as_stored(distinct)
    found = np.full(len(distinct), -1, dtype=np.int64)
    walk = np.zeros(len(distinct), dtype=np.int32)
    cur = table._slot_of(distinct)
    active = np.arange(len(distinct))
    empty = np.int64(np.iinfo(np.int64).min)
    for _round in range(table.slots + 1):
        if not active.size:
            break
        occupants = table.table[cur[active]]
        hit = occupants == distinct[active]
        found[active[hit]] = cur[active[hit]]
        # An empty slot means definitively absent; the rest probe on.
        active = active[~hit & (occupants != empty)]
        cur[active] = (cur[active] + 1) % table.slots
        walk[active] += 1
    # The marker "hit" the free slot that ended its walk: a miss.
    found[distinct == empty] = -1
    if span is not None:
        # Back through the span table (values no row carries are unread).
        found_by = np.empty(span[1], dtype=np.int64)
        walk_by = np.empty(span[1], dtype=np.int32)
        found_by[present], walk_by[present] = found, walk
        found, walk = found_by, walk_by
    return found[key_of_row], walk[key_of_row]
