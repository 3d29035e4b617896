"""Out-of-core partition planning for over-memory GPU jobs.

The paper's Figure-3 T3 verdict sends every group-by whose working set
exceeds device memory to the CPU ("in our current implementation, all of
the large queries are processed in the CPU").  This module removes that
cliff: it plans *execution* chunking — the generalisation of the stream
pipeline's transfer chunking (:mod:`repro.gpu.streams`) from one
launch's staged bytes to one operator's whole input.

A :class:`PartitionPlan` splits an over-memory sort or hash group-by
into device-sized partitions and prices both sides of the decision:

- the partitioned GPU side steps the stream pipeline's own
  :class:`~repro.gpu.streams.FlowShop`, one job per partition, so
  partition k+1's host->device copy overlaps partition k's kernel and
  partition k-1's device->host drain — plus the host-side split and
  merge passes;
- the CPU side reprices the stock evaluator chain
  (:func:`repro.blu.evaluators.build_cpu_groupby_chain`) at the wall
  clock the processor-sharing simulator would grant it.

The partition count satisfies two constraints at once: per-partition
working sets must fit device memory, and per-partition rows must stay
under T3 (the threshold calibrated for one resident working set).  A
plan *declines* (returns ``None``) when no admissible count exists
within ``max_partitions`` — e.g. a single partition would still exceed
device memory — and the executors then keep the paper's CPU fallback.

See ``docs/out_of_core.md`` for the planner's cost model and knobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.blu.evaluators import (
    build_cpu_groupby_chain,
    build_gpu_host_chain,
)
from repro.config import CostModel, GpuSpec, HostSpec, Thresholds
from repro.gpu.streams import DISPATCH_SECONDS, FlowShop
from repro.gpu.transfer import transfer_seconds


class PartitionStreamState:
    """One :class:`~repro.gpu.streams.FlowShop` per device, stepped
    across partition launches.

    The dispatcher streams partitions through each device back-to-back;
    :meth:`advance` returns the launch's incremental contribution to its
    device's makespan — partition k+1's host->device copy hides under
    partition k's kernel, and only the exposed remainder is charged — so
    the per-partition cost events on one device sum exactly to that
    device's overlapped makespan.
    """

    def __init__(self) -> None:
        self._devices: dict[int, FlowShop] = {}

    def advance(self, device_id: int, h2d_seconds: float,
                kernel_seconds: float, d2h_seconds: float) -> float:
        """Feed one partition launch through its device's pipeline.

        Returns the device-resident seconds *exposed* by this launch:
        the growth of the device's overall makespan after overlapping
        the copies with neighbouring partitions' kernel slices.
        """
        shop = self._devices.get(device_id)
        if shop is None:
            shop = self._devices[device_id] = FlowShop()
        makespan = shop.d2h_free
        shop.push(h2d_seconds, kernel_seconds, d2h_seconds)
        return max(0.0, shop.d2h_free - makespan)


@dataclass(frozen=True)
class PartitionPlan:
    """One over-memory operator's partitioning, with both costed sides.

    ``gpu_seconds`` is the estimated wall clock of the partitioned GPU
    execution (host split + per-partition host chains + the overlapped
    device makespan + merge); ``cpu_seconds`` is the stock CPU chain's
    estimated wall clock for the same job.  ``merge_seconds`` is broken
    out so EXPLAIN ANALYZE can show what the merge costs on its own.
    """

    partitions: int
    rows: int
    working_set_bytes: int
    capacity_bytes: int
    gpu_seconds: float
    cpu_seconds: float
    merge_seconds: float
    reason: str

    @property
    def partition_rows(self) -> int:
        """Rows per partition (ceiling; hash partitions are near-even)."""
        return -(-self.rows // self.partitions)

    @property
    def beats_cpu(self) -> bool:
        """Does the partitioned GPU plan beat the stock CPU chain?"""
        return self.gpu_seconds < self.cpu_seconds


def groupby_working_set_bytes(rows: int, groups: int, num_aggs: int) -> int:
    """Device bytes one group-by working set needs (staged + table + out).

    Mirrors :func:`repro.workloads.cognos_rolap.
    estimate_gpu_memory_requirement` so the planner and the workload
    screen agree on which inputs are over-memory.
    """
    payload_bytes = 8 * max(1, num_aggs)
    staged = rows * (8 + payload_bytes)
    table = groups * 1.5 * (8 + payload_bytes)
    result = groups * (8 + payload_bytes)
    return int(staged + table + result)


def _chain_wall_seconds(chain, host: HostSpec, degree: int) -> float:
    """Wall clock of an evaluator chain under processor sharing."""
    total = 0.0
    for e in chain.evaluators:
        capacity = host.effective_capacity(min(e.max_degree, degree))
        total += e.cpu_seconds / max(1.0, capacity)
    return total


def _admissible_partition_count(
    rows: int,
    fits,                      # fits(partitions) -> bool
    floor: int,
    max_partitions: int,
) -> Optional[int]:
    """Smallest partition count >= ``floor`` whose partitions fit.

    Working sets are not perfectly linear in the partition count (the
    hash table's group share shrinks too), so the count steps up from
    the analytic floor until the per-partition working set fits; ``None``
    when even ``max_partitions`` partitions do not.
    """
    partitions = max(1, min(floor, max_partitions))
    while partitions <= max_partitions:
        if fits(partitions):
            return partitions
        partitions += 1
    return None


def plan_groupby_partitions(
    *,
    rows: int,
    estimated_groups: int,
    num_keys: int,
    num_aggs: int,
    thresholds: Thresholds,
    cost: CostModel,
    spec: GpuSpec,
    host: HostSpec,
    degree: int,
    capacity_bytes: int,
    max_partitions: int,
    devices: int = 1,
) -> Optional[PartitionPlan]:
    """Plan an over-memory hash group-by; ``None`` declines to the CPU.

    The partition count is the smallest value that (a) brings every
    partition's working set under ``capacity_bytes``, (b) keeps
    per-partition rows under T3, and (c) stays within
    ``max_partitions``.  Hash partitioning on the grouping key makes the
    partitions' group sets disjoint, so the merge is a renumber-and-
    concatenate pass priced at the CPU merge rate — no re-aggregation.
    """
    if rows <= 0 or capacity_bytes <= 0 or max_partitions < 1:
        return None
    groups = max(1, int(estimated_groups))
    working_set = groupby_working_set_bytes(rows, groups, num_aggs)
    payload_bytes = 8 * max(1, num_aggs)

    def fits(partitions: int) -> bool:
        rows_p = -(-rows // partitions)
        groups_p = -(-groups // partitions)
        return (groupby_working_set_bytes(rows_p, groups_p, num_aggs)
                <= capacity_bytes
                and rows_p <= thresholds.t3_max_rows)

    floor = max(
        -(-working_set // capacity_bytes),
        -(-rows // max(1, thresholds.t3_max_rows)),
    )
    partitions = _admissible_partition_count(rows, fits, floor,
                                             max_partitions)
    if partitions is None:
        return None

    rows_p = -(-rows // partitions)
    groups_p = -(-groups // partitions)
    staged_p = rows_p * (8 + payload_bytes)
    result_p = groups_p * (8 + payload_bytes)
    kernel_p = (spec.kernel_launch_overhead
                + rows_p / cost.gpu_ht_insert_rate
                + rows_p * max(1, num_aggs) / cost.gpu_atomic_agg_rate)
    # Partitions stream through the devices on the three-engine pipeline;
    # multiple cards drain the per-partition kernel slices data-parallel.
    shop = FlowShop()
    for _ in range(partitions):
        shop.push(transfer_seconds(staged_p, spec),
                  kernel_p / max(1, devices),
                  transfer_seconds(result_p, spec))
    device_seconds = shop.schedule().total_seconds

    capacity = max(1.0, host.effective_capacity(degree))
    split_seconds = rows / cost.cpu_scan_rate / capacity
    host_chain = build_gpu_host_chain(
        rows=rows_p, num_keys=num_keys, num_aggs=max(1, num_aggs),
        staged_bytes=staged_p, cost=cost,
    )
    host_seconds = partitions * _chain_wall_seconds(host_chain, host, degree)
    merge_seconds = (groups / cost.cpu_merge_rate
                     + rows / cost.cpu_scan_rate) / capacity
    # The single dispatching thread serialises across device waves.
    waves = -(-partitions // max(1, devices))
    gpu_seconds = split_seconds + host_seconds + device_seconds \
        + waves * DISPATCH_SECONDS + merge_seconds

    cpu_chain = build_cpu_groupby_chain(
        rows=rows, num_keys=num_keys, num_aggs=num_aggs, groups=groups,
        cost=cost,
    )
    cpu_seconds = _chain_wall_seconds(cpu_chain, host, degree)

    return PartitionPlan(
        partitions=partitions,
        rows=rows,
        working_set_bytes=working_set,
        capacity_bytes=capacity_bytes,
        gpu_seconds=gpu_seconds,
        cpu_seconds=cpu_seconds,
        merge_seconds=merge_seconds,
        # Name the constraint that forced the split (Figure 3 sends an
        # input here over T3 by rows *or* over device memory by bytes).
        reason=((f"working set ~{working_set} bytes > device "
                 f"{capacity_bytes}" if working_set > capacity_bytes
                 else f"{rows} rows > T3 {thresholds.t3_max_rows}")
                + f": {partitions} partitions of ~{rows_p} rows"),
    )


def plan_sort_partitions(
    *,
    rows: int,
    device_bytes_per_row: int,
    staged_bytes_per_row: int,
    cost: CostModel,
    spec: GpuSpec,
    host: HostSpec,
    degree: int,
    capacity_bytes: int,
    max_partitions: int,
    devices: int = 1,
) -> Optional[PartitionPlan]:
    """Plan an over-memory sort job; ``None`` declines to the CPU sort.

    Partitions are *contiguous slices* of the job: each slice radix-sorts
    on the device independently, and the slices k-way merge on the host
    (stable, so the merged order equals one global stable sort).  The
    merge is priced like the CPU sort's comparison model over
    ``rows * log2(partitions)``.
    """
    if rows <= 0 or capacity_bytes <= 0 or max_partitions < 1:
        return None
    working_set = rows * device_bytes_per_row

    def fits(partitions: int) -> bool:
        rows_p = -(-rows // partitions)
        return rows_p * device_bytes_per_row <= capacity_bytes

    floor = -(-working_set // capacity_bytes)
    partitions = _admissible_partition_count(rows, fits, floor,
                                             max_partitions)
    if partitions is None:
        return None

    rows_p = -(-rows // partitions)
    staged_p = rows_p * staged_bytes_per_row
    kernel_p = (spec.kernel_launch_overhead
                + rows_p / cost.gpu_radix_sort_rate
                + rows_p / cost.gpu_scan_rate)
    shop = FlowShop()
    for _ in range(partitions):
        shop.push(transfer_seconds(staged_p, spec),
                  kernel_p / max(1, devices),
                  transfer_seconds(staged_p, spec))
    device_seconds = shop.schedule().total_seconds

    merge_capacity = max(1.0, host.effective_capacity(min(degree, 8)))
    merge_seconds = 0.0
    if partitions > 1:
        merge_comparisons = rows * math.log2(partitions)
        merge_seconds = merge_comparisons / (cost.cpu_sort_rate * 16) \
            / merge_capacity
    waves = -(-partitions // max(1, devices))
    gpu_seconds = device_seconds + waves * DISPATCH_SECONDS \
        + merge_seconds

    cpu_seconds = 0.0
    if rows > 1:
        comparisons = rows * math.log2(rows)
        cpu_seconds = comparisons / (cost.cpu_sort_rate * 16) \
            / merge_capacity

    return PartitionPlan(
        partitions=partitions,
        rows=rows,
        working_set_bytes=working_set,
        capacity_bytes=capacity_bytes,
        gpu_seconds=gpu_seconds,
        cpu_seconds=cpu_seconds,
        merge_seconds=merge_seconds,
        reason=(f"sort job ~{working_set} device bytes > "
                f"{capacity_bytes}: {partitions} slices of ~{rows_p} "
                "rows, k-way merged"),
    )
