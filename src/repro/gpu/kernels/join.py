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
from repro.gpu.kernels.hashtable import GpuHashTable, HashTableLayout, MaskField


@dataclass
class JoinKernelResult:
    """Matched row pairs plus simulated timing."""

    kernel: str
    left_idx: np.ndarray          # probe-side row ids with a match
    right_idx: np.ndarray         # matching build-side row ids
    kernel_seconds: float
    table_bytes: int
    stats: dict = field(default_factory=dict)


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

        match_slot, probe_count = _probe(table, probe_keys)
        matched = match_slot >= 0
        left_idx = np.nonzero(matched)[0]
        right_idx = slot_row[match_slot[matched]]

        build_seconds = insert_stats.total_accesses \
            / self.cost.gpu_ht_insert_rate
        # Probes are read-only (no CAS), so they run at the higher
        # load-coalesced rate.
        probe_seconds = (len(probe_keys) + probe_count) \
            / self.cost.gpu_ht_probe_rate
        init_seconds = table.table_bytes / self.cost.gpu_init_rate
        # Writing the compacted match vector is a sequential store at
        # device memory bandwidth (4 bytes per match).
        emit_seconds = len(left_idx) * 4 / self.cost.gpu_init_rate

        return JoinKernelResult(
            kernel=self.name,
            left_idx=left_idx,
            right_idx=right_idx,
            kernel_seconds=(init_seconds + build_seconds
                            + probe_seconds + emit_seconds),
            table_bytes=table.table_bytes,
            stats={
                "build_probes": insert_stats.probes,
                "probe_probes": int(probe_count),
                "matches": int(len(left_idx)),
                "fill_ratio": insert_stats.fill_ratio,
            },
        )


def _probe(table: GpuHashTable, keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Parallel linear-probing lookups: slot of each key's match or -1.

    Rows with equal keys walk the same path, so the walk runs once per
    distinct key and its probe steps count once per row of that key.  A
    read-only walk does not depend on the order the keys appeared in, so
    on a dense span the distinct keys and their row counts come from one
    ``bincount`` and the answers map back through the span table; only
    off it is a first-appearance factorisation worth its sort.  Keys walk
    as the table stores them (:meth:`GpuHashTable.as_stored`).
    """
    span = dense_span(keys, len(keys))
    if span is not None:
        key_of_row = keys - span[0]
        counts = np.bincount(key_of_row, minlength=span[1])
        present = np.flatnonzero(counts)
        distinct, weight = present + span[0], counts[present]
    else:
        (key_of_row, distinct, weight), _first = factorise(keys)
    distinct = table.as_stored(distinct)
    n_keys = len(distinct)
    found = np.full(n_keys, -1, dtype=np.int64)
    cur = table._slot_of(distinct)
    active = np.arange(n_keys)
    extra_probes = 0
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
        extra_probes += int(weight[active].sum())
    # The marker "hit" the free slot that ended its walk: a miss.
    found[distinct == empty] = -1
    if span is not None:
        # Back through the span table (values no row carries stay -1).
        by_value = np.full(span[1], -1, dtype=np.int64)
        by_value[present] = found
        found = by_value
    return found[key_of_row], extra_probes
