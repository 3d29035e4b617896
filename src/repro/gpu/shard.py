"""Shard maps and row splits for N-device execution (scale-out).

The paper's §2.2 scheduler dispatches each whole job to *one* of the two
K40s.  Sharding splits a single group-by, join probe or sort across
every healthy device instead: the catalog carries a versioned
:class:`ShardMap` per fact table, the executors cut the operator's input
along it, each shard runs on its home device, and an exchange + merge
step reassembles a result byte-identical to the CPU chain (PR 9's
renumber-merge for group-by, k-way stable merge for sort, order-
preserving concatenation for join probes).  This module holds the
placement (:class:`ShardMap`, :func:`home_devices`) and the row-split
helpers; the decision is priced as a split in space by
:func:`repro.gpu.partition.price`.

The sharded data path ships BLU-*encoded* columns and decodes, hashes
and repartitions on the shards (Amdahl's law: the classic path's
host-side evaluator chain would cap N-device speedup near 2x, so
scale-out moves that work onto the devices it multiplies).  See
``docs/scale_out.md`` for the full contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ReproError


class ShardError(ReproError):
    """Shard-map misuse: empty device sets, unknown kinds."""


#: Shard-map kinds.  ``hash`` shards carry disjoint grouping-key sets
#: (group-by reuses the renumber-merge); ``range`` shards are contiguous
#: row slices (sort k-way merges, join probes concatenate in order).
SHARD_KINDS = ("hash", "range")


@dataclass(frozen=True)
class ShardMap:
    """How one table's rows spread across devices.

    Registered maps live in the catalog and are versioned like DDL —
    registering, dropping or rebalancing one bumps the catalog version,
    so the content-addressed device cache (keyed on that version)
    invalidates its stale shard segments automatically.
    """

    table: str
    kind: str
    devices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in SHARD_KINDS:
            raise ShardError(f"unknown shard kind {self.kind!r}")
        if not self.devices:
            raise ShardError(f"shard map for {self.table!r} has no devices")

    @property
    def shard_count(self) -> int:
        """One shard per home device."""
        return len(self.devices)

    def device_for(self, shard: int) -> int:
        """Home device of shard ``shard``."""
        return self.devices[shard % len(self.devices)]

    def without_device(self, device_id: int) -> "ShardMap":
        """The rebalanced map after ``device_id`` is lost.

        The dead device's shard redistributes across the survivors;
        with no survivors the map keeps a single CPU-routed shard
        (device -1) so executors still have a deterministic split.
        """
        survivors = tuple(d for d in self.devices if d != device_id)
        return ShardMap(self.table, self.kind, survivors or (-1,))


def build_shard_map(table: str, device_ids: Sequence[int],
                    kind: str = "hash") -> ShardMap:
    """A fresh shard map assigning one shard to each device, in order."""
    return ShardMap(table=table, kind=kind, devices=tuple(device_ids))


def home_devices(scheduler, catalog, table_name: str) -> tuple[int, ...]:
    """Home devices for sharding ``table_name``'s rows.

    A registered catalog shard map whose table is a name prefix of the
    input (intermediates inherit their base table's placement) wins,
    filtered to currently healthy devices; otherwise every healthy
    device hosts one shard.
    """
    healthy = scheduler.healthy_device_ids()
    if catalog is not None:
        name = table_name.lower()
        for shard_map in catalog.shard_maps():
            if name.startswith(shard_map.table.lower()):
                pinned = [d for d in shard_map.devices if d in healthy]
                if len(pinned) >= 2:
                    return tuple(pinned)
    return tuple(healthy)


# ---------------------------------------------------------------------------
# Row-split helpers shared by the executors and the property tests
# ---------------------------------------------------------------------------


def hash_shard_assignment(hashes: np.ndarray, shards: int) -> np.ndarray:
    """Shard id per row for hash sharding (disjoint key sets)."""
    return (hashes % np.uint64(shards)).astype(np.int64)


def split_rows(part_of_row: np.ndarray, parts: int) -> list[np.ndarray]:
    """Row ids of every part, ascending within each part.

    One stable sort of the part ids, not a scan of the input per part;
    narrowed first, because numpy radix-sorts integers of up to 16 bits.
    """
    narrow = part_of_row.astype(np.min_scalar_type(parts))
    order = np.argsort(narrow, kind="stable")
    counts = np.bincount(part_of_row, minlength=parts)
    return np.split(order, np.cumsum(counts)[:-1])


def range_shard_bounds(rows: int, shards: int) -> np.ndarray:
    """Slice boundaries for range sharding: ``shards + 1`` int offsets."""
    return np.linspace(0, rows, shards + 1).astype(np.int64)
