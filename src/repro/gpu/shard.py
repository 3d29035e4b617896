"""Sharded N-device execution planning (scale-out across the cards).

The paper's §2.2 scheduler dispatches each whole job to *one* of the two
K40s.  This module splits a single group-by, join probe or sort across
every healthy device instead: the catalog carries a versioned
:class:`ShardMap` per fact table, the executors cut the operator's input
along it, each shard runs on its home device, and an exchange + merge
step reassembles a result byte-identical to the CPU chain (PR 9's
renumber-merge for group-by, k-way stable merge for sort, order-
preserving concatenation for join probes).

:func:`plan_sharded` prices the decision on the same
:class:`~repro.gpu.streams.FlowShop` as the stream pipeline and the
out-of-core partition planner, plus two costs single-device plans never
pay:

- the host->device staging leaves as one *wave* — every shard transfers
  at once — so each leg is priced at the switch-contended bandwidth from
  :mod:`repro.gpu.interconnect`, and
- the exchange + merge tail (peer-to-peer over NVLink when enabled,
  otherwise bounced through host memory, then the host-side merge).

The sharded data path ships BLU-*encoded* columns and decodes, hashes
and repartitions on the shards (Amdahl's law: the classic path's
host-side evaluator chain would cap N-device speedup near 2x, so
scale-out moves that work onto the devices it multiplies).  The plan is
gated against both the single-device estimate and the CPU chain;
sharding only wins when the device time it divides across N cards
outweighs the contention, exchange and merge it adds.  See
``docs/scale_out.md`` for the full contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.config import CostModel, GpuSpec, HostSpec
from repro.errors import ReproError
from repro.gpu.interconnect import Interconnect
from repro.gpu.streams import DISPATCH_SECONDS, FlowShop
from repro.gpu.transfer import transfer_seconds


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


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """One operator's sharded execution, priced against both rivals.

    ``gpu_seconds`` is the sharded estimate (host staging + contended
    H2D wave + the max per-device flow-shop makespan + exchange + merge);
    ``single_seconds`` is the same job on one device; ``cpu_seconds`` is
    the stock CPU chain.  ``stall_seconds`` breaks out the switch-
    contention penalty so EXPLAIN ANALYZE can show what the topology
    cost on its own.
    """

    operator: str
    shards: int
    rows: int
    devices: tuple[int, ...]
    gpu_seconds: float
    single_seconds: float
    cpu_seconds: float
    exchange_seconds: float
    merge_seconds: float
    stall_seconds: float
    reason: str

    @property
    def shard_rows(self) -> int:
        """Rows per shard (ceiling; hash shards are near-even)."""
        return -(-self.rows // self.shards)

    @property
    def beats_single(self) -> bool:
        """Does sharding beat running whole on one device?"""
        return self.gpu_seconds < self.single_seconds

    @property
    def beats_cpu(self) -> bool:
        """Does sharding beat the stock CPU chain?"""
        return self.gpu_seconds < self.cpu_seconds


def plan_sharded(
    *,
    operator: str,
    rows: int,
    staged_bytes: int,
    result_bytes: int,
    kernel_seconds: float,
    exchange_bytes: int,
    merge_core_seconds: float,
    devices: Sequence[int],
    cost: CostModel,
    spec: GpuSpec,
    host: HostSpec,
    degree: int,
    interconnect: Interconnect,
    cpu_seconds: float,
    host_core_seconds: float = 0.0,
    broadcast_bytes: int = 0,
    replicated_kernel_seconds: float = 0.0,
) -> Optional[ShardPlan]:
    """Price splitting one operator across ``devices``; ``None`` declines.

    ``kernel_seconds`` is the whole-input kernel time on one device;
    each shard's slice scales by its row share plus one launch overhead.
    ``broadcast_bytes`` and ``replicated_kernel_seconds`` are the parts
    that do *not* divide — a join ships the whole build side to every
    shard and each shard builds the full hash table — so they ride each
    shard whole (and the single-device rival once).
    ``merge_core_seconds`` and ``host_core_seconds`` are core-seconds
    (divided by the processor-sharing capacity here).  The three-engine
    flow-shop recurrence runs per device with the H2D legs priced at the
    switch-contended bandwidth, since every shard's staging departs in
    one wave.
    """
    shards = len(devices)
    if rows <= 0 or shards == 0:
        return None
    if shards == 1 or any(d < 0 for d in devices):
        return None

    staged_p = -(-staged_bytes // shards) + broadcast_bytes
    result_p = -(-result_bytes // shards)
    kernel_p = (spec.kernel_launch_overhead + kernel_seconds / shards
                + replicated_kernel_seconds)

    legs = interconnect.wave_legs([(d, staged_p) for d in devices])
    out_legs = interconnect.wave_legs([(d, result_p) for d in devices])
    makespan = 0.0
    for leg, out in zip(legs, out_legs):
        shop = FlowShop()
        shop.push(leg.seconds, kernel_p, out.seconds)
        makespan = max(makespan, shop.schedule().total_seconds)
    stall_seconds = sum(leg.stall_seconds for leg in legs) \
        + sum(leg.stall_seconds for leg in out_legs)

    capacity = max(1.0, host.effective_capacity(degree))
    exchange = interconnect.exchange_seconds(exchange_bytes, shards)
    merge_seconds = merge_core_seconds / capacity
    host_seconds = host_core_seconds / capacity
    # Shards dispatch as one wave (one per device), so the host pays one
    # dispatch latency, not ``shards`` of them — execution collapses the
    # per-shard dispatch events into one parallel group the same way.
    gpu_seconds = (host_seconds + makespan + DISPATCH_SECONDS
                   + exchange + merge_seconds)

    single_seconds = (transfer_seconds(staged_bytes + broadcast_bytes, spec)
                      + spec.kernel_launch_overhead + kernel_seconds
                      + replicated_kernel_seconds
                      + transfer_seconds(result_bytes, spec)
                      + DISPATCH_SECONDS)

    return ShardPlan(
        operator=operator,
        shards=shards,
        rows=rows,
        devices=tuple(devices),
        gpu_seconds=gpu_seconds,
        single_seconds=single_seconds,
        cpu_seconds=cpu_seconds,
        exchange_seconds=exchange,
        merge_seconds=merge_seconds,
        stall_seconds=stall_seconds,
        reason=(f"{shards} shards of ~{-(-rows // shards)} rows across "
                f"devices {tuple(devices)}"),
    )
