"""The hybrid job-queue sort — section 3.

The sort never moves the wide tuples (they stay in the Sort Data Store);
what gets sorted are *partial keys*: 4-byte binary-sortable prefixes of a
type-erased key encoding, paired with 4-byte payloads pointing back at the
tuples.  A job queue drives the work:

- the initial job covers the whole data set at key offset 0;
- each job extracts its 4-byte partial keys (host side, parallel), then is
  dispatched either to a GPU (Merrill radix sort) when it is large enough,
  or sorted on the CPU when it is small — "a truly hybrid sorting system";
- the GPU identifies *duplicate ranges* (runs of equal partial keys); each
  range becomes a new job on the next 4 key bytes;
- jobs operate on disjoint contiguous slices of the global order, so no
  merge step ever runs ("we have a merge free sort algorithm ... by making
  conflict free partitions before sending sort jobs to the GPU").

The byte encoding is order-preserving for every supported type (two's
complement sign flip for integers, the IEEE total-order trick for floats,
collation ranks for dictionary-coded strings; descending keys are bitwise
complemented), so sorting the byte stream 4 bytes at a time equals the
CPU engine's multi-key sort exactly — which the tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.blu.catalog import Catalog
from repro.blu.engine import OperatorContext, cpu_sort_executor
from repro.blu.plan import SortKey, SortNode
from repro.blu.table import Table
from repro.config import Thresholds
from repro.core.hybrid_groupby import _PARALLEL_GROUP_IDS
from repro.core.monitoring import OffloadDecision, PerformanceMonitor
from repro.core.pathselect import (select_partitioned_path,
                                   select_sharded_path, select_sort_offload)
from repro.core.scheduler import MultiGpuScheduler
from repro.errors import GpuError, PinnedMemoryError
from repro.obs.tracing import NULL_TRACER
from repro.gpu.cache import SegmentKey, StagedSegment, content_digest
from repro.gpu.interconnect import Interconnect
from repro.gpu.kernels.radix_sort import (RadixSortKernel,
                                          find_duplicate_ranges)
from repro.gpu.partition import PartitionStreamState, plan_sort_partitions
from repro.gpu.shard import (ShardPlan, home_devices, plan_sharded,
                             range_shard_bounds)
from repro.gpu.pinned import PinnedMemoryPool
from repro.gpu.streams import PipelineSpec, streamed_launch
from repro.gpu.transfer import effective_transfer_bytes
from repro.timing import CostEvent

_DISPATCH_SECONDS = 50e-6


# ---------------------------------------------------------------------------
# Order-preserving key encoding (the "partial binary sortable representation")
# ---------------------------------------------------------------------------


def encode_sort_keys(table: Table, keys: Sequence[SortKey]) -> np.ndarray:
    """Encode the sort keys of every row into big-endian sortable bytes.

    Returns an (n, total_bytes) uint8 array whose lexicographic byte order
    equals the logical multi-key order.
    """
    from repro.blu.operators.sort import null_high_sort_keys

    parts = []
    for key in keys:
        col = table.column(key.column)
        raw = null_high_sort_keys(col)
        if raw.dtype.kind == "f":
            encoded = _encode_float64(raw.astype(np.float64))
        elif raw.dtype.itemsize <= 4:
            encoded = _encode_int(raw.astype(np.int32))
        else:
            encoded = _encode_int(raw.astype(np.int64))
        if not key.ascending:
            encoded = ~encoded
        parts.append(encoded)
    return (np.hstack(parts) if parts
            else np.zeros((table.num_rows, 0), dtype=np.uint8))


def _encode_int(values: np.ndarray) -> np.ndarray:
    """Two's-complement ints -> big-endian unsigned bytes, order-preserving."""
    if values.dtype == np.int32:
        unsigned = (values.view(np.uint32) ^ np.uint32(1 << 31))
        return unsigned.astype(">u4").view(np.uint8).reshape(len(values), 4)
    unsigned = (values.view(np.uint64) ^ np.uint64(1 << 63))
    return unsigned.astype(">u8").view(np.uint8).reshape(len(values), 8)


def _encode_float64(values: np.ndarray) -> np.ndarray:
    """IEEE-754 total-order trick: flip all bits of negatives, sign bit of
    non-negatives.  -0.0 is normalised to +0.0 first — SQL comparison
    semantics treat them as equal, but their bit patterns would not be."""
    values = np.where(values == 0.0, 0.0, values)
    bits = values.view(np.uint64)
    sign = np.uint64(1 << 63)
    flipped = np.where(bits & sign != 0, ~bits, bits | sign)
    return flipped.astype(">u8").view(np.uint8).reshape(len(values), 8)


def extract_partial_keys(encoded: np.ndarray, rows: np.ndarray,
                         offset: int) -> np.ndarray:
    """The 4-byte partial key of each row at ``offset`` (zero-padded)."""
    n = len(rows)
    window = np.zeros((n, 4), dtype=np.uint8)
    available = max(0, min(4, encoded.shape[1] - offset))
    if available:
        window[:, :available] = encoded[rows, offset:offset + available]
    return window.view(">u4").reshape(n).astype(np.uint32)


# ---------------------------------------------------------------------------
# Job queue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SortJob:
    """One contiguous slice of the global order at one key offset."""

    start: int
    length: int
    key_offset: int


@dataclass
class SortRunStats:
    """What the hybrid sort did (for tests and monitoring)."""

    jobs_total: int = 0
    jobs_gpu: int = 0
    jobs_cpu: int = 0
    duplicate_jobs: int = 0
    fallbacks: int = 0
    partitioned_jobs: int = 0
    sharded_jobs: int = 0


@dataclass
class HybridSortExecutor:
    """Pluggable sort executor implementing the section-3 design."""

    scheduler: MultiGpuScheduler
    pinned: PinnedMemoryPool
    thresholds: Thresholds
    monitor: Optional[PerformanceMonitor] = None
    catalog: Optional[Catalog] = None
    pipeline: Optional[PipelineSpec] = None
    partition_large: bool = False
    max_partitions: int = 64
    #: Scale-out (docs/scale_out.md): when set with an interconnect,
    #: large jobs range-shard across every healthy device.
    shard_enabled: bool = False
    interconnect: Optional[Interconnect] = None
    #: Engine callback invoked with the lost device ids after a shard
    #: reroute, so shard maps rebalance (and the catalog version bumps).
    rebalance: Optional[Callable[[list], None]] = None
    query_id: str = ""
    last_stats: SortRunStats = field(default_factory=SortRunStats)

    def __call__(self, table: Table, node: SortNode,
                 ctx: OperatorContext) -> Table:
        rows = table.num_rows
        if (not select_sort_offload(rows, self.thresholds,
                                    tracer=self._tracer)
                or self.scheduler.device_count == 0):
            self._record("cpu-small",
                         f"{rows} rows below sort offload threshold")
            return cpu_sort_executor(table, node, ctx)

        order, stats = self._hybrid_sort(table, node.keys, ctx)
        self.last_stats = stats
        self._record("gpu", f"hybrid sort: {stats.jobs_gpu} GPU / "
                            f"{stats.jobs_cpu} CPU jobs")
        if self.monitor is not None:
            self.monitor.record_sort_stats(stats)
        return table.take(order, name=f"{table.name}_sorted")

    def rank_order(self, table: Table, keys: Sequence[SortKey],
                   ctx: OperatorContext) -> np.ndarray:
        """The row order a RANK() window needs, via the hybrid sort.

        Same gate and job queue as ``__call__`` but returns the bare
        permutation instead of a materialised table — the window
        operator scatters ranks through it.  Below the offload
        threshold this charges exactly the stock CPU window-sort cost,
        so CPU-path profiles are unchanged.
        """
        from repro.blu.operators.sort import sort_order

        rows = table.num_rows
        if (not select_sort_offload(rows, self.thresholds,
                                    tracer=self._tracer)
                or self.scheduler.device_count == 0):
            self._record("cpu-small",
                         f"{rows} rows below sort offload threshold")
            order = sort_order(table, keys)
            if rows > 1:
                comparisons = rows * math.log2(rows) * len(keys)
                ctx.ledger.cpu(
                    "SORT", rows,
                    comparisons / (ctx.config.cost.cpu_sort_rate * 16),
                    min(ctx.degree, 24))
            return order

        order, stats = self._hybrid_sort(table, keys, ctx)
        self.last_stats = stats
        self._record("gpu", f"hybrid rank sort: {stats.jobs_gpu} GPU / "
                            f"{stats.jobs_cpu} CPU jobs")
        if self.monitor is not None:
            self.monitor.record_sort_stats(stats)
        return order

    # ------------------------------------------------------------------

    def _hybrid_sort(self, table: Table, keys: Sequence[SortKey],
                     ctx: OperatorContext) -> tuple[np.ndarray, SortRunStats]:
        cost = ctx.config.cost
        radix = RadixSortKernel(cost)
        encoded = encode_sort_keys(table, keys)
        total_bytes = encoded.shape[1]
        n = table.num_rows
        order = np.arange(n, dtype=np.int64)
        stats = SortRunStats()

        tracer = self._tracer or NULL_TRACER
        version = self.catalog.version if self.catalog is not None else 0
        keys_label = ",".join(
            k.column + ("+" if k.ascending else "-") for k in keys)
        # Small jobs are disjoint contiguous slices ("conflict free
        # partitions"), so host threads drain them concurrently: their
        # comparison counts pool into one full-degree SORT event after
        # the queue empties instead of a serial event per job.
        cpu_batch_rows = 0
        cpu_batch_comparisons = 0.0
        queue: list[SortJob] = [SortJob(0, n, 0)]
        while queue:
            job = queue.pop()
            stats.jobs_total += 1
            rows_idx = order[job.start:job.start + job.length]
            partial = extract_partial_keys(encoded, rows_idx, job.key_offset)

            with tracer.span("sort.job", length=job.length,
                             key_offset=job.key_offset) as span:
                # Host threads generate partial keys and payloads in
                # parallel.
                ctx.ledger.add(CostEvent(
                    op="PARTIALKEY", rows=job.length,
                    cpu_seconds=job.length / cost.cpu_partialkey_rate,
                    max_degree=min(ctx.degree, 48),
                ))

                if job.length >= cost.cpu_sort_job_threshold:
                    # A job is identified by its exact key/payload pairs:
                    # the same slice of the same data sorted again (a
                    # repeated ORDER BY across the query stream) hits.
                    segment = StagedSegment(
                        key=SegmentKey(
                            table=table.name, column=keys_label,
                            segment="sort:" + content_digest(partial,
                                                             rows_idx),
                            catalog_version=version,
                        ),
                        nbytes=job.length * 8,
                    )
                    result = self._gpu_sort_job(partial, radix, ctx,
                                                stats, segment)
                else:
                    result = None
                if result is None:
                    sub_order, (dup_starts, dup_lengths) = _cpu_sort_job(
                        partial, stats)
                    cpu_batch_rows += job.length
                    if job.length > 1:
                        cpu_batch_comparisons += (
                            job.length * math.log2(job.length))
                    span.attributes["target"] = "cpu"
                else:
                    sub_order, (dup_starts, dup_lengths) = result
                    span.attributes["target"] = "gpu"

            order[job.start:job.start + job.length] = rows_idx[sub_order]

            next_offset = job.key_offset + 4
            if next_offset < total_bytes and len(dup_starts):
                self._drain_duplicate_ranges(
                    encoded, order, job.start + dup_starts, dup_lengths,
                    next_offset, total_bytes, radix, ctx, stats,
                    table.name, queue)
        if cpu_batch_rows:
            ctx.ledger.cpu(
                "SORT", cpu_batch_rows,
                cpu_batch_comparisons / (cost.cpu_sort_rate * 16),
                min(ctx.degree, 48))
        return order, stats

    def _gpu_sort_job(self, partial: np.ndarray, radix: RadixSortKernel,
                      ctx: OperatorContext, stats: SortRunStats,
                      segment: Optional[StagedSegment] = None):
        """Dispatch one job to a GPU; None means fall back to the CPU."""
        length = len(partial)
        if self.shard_enabled and self.interconnect is not None:
            table_name = segment.key.table if segment is not None else ""
            sharded = self._sharded_sort_job(partial, radix, ctx, stats,
                                             table_name)
            if sharded is not None:
                return sharded
        staged = length * 8           # key + payload pairs
        memory_needed = radix.device_bytes(length)
        if not self.scheduler.fits_any_device(memory_needed):
            # No card could ever hold this job whole — the sort-side T3
            # cliff.  Slice it through the devices, or decline to the
            # CPU sort when the planner says partitioning cannot win.
            return self._partitioned_sort_job(partial, radix, ctx, stats)
        affinity = [segment.key] if segment is not None else None
        lease = self.scheduler.try_acquire(memory_needed, tag="sort",
                                           affinity=affinity)
        if lease is None:
            stats.fallbacks += 1
            return None
        cache = lease.device.cache
        hit_bytes = 0
        if (segment is not None and cache is not None and cache.enabled
                and cache.lookup(segment.key)):
            hit_bytes = segment.nbytes
        transfer = effective_transfer_bytes(staged, hit_bytes)
        try:
            result = radix.run(partial)
            launch = streamed_launch(
                lease.device, self.pinned,
                kernel=radix.name,
                kernel_seconds=result.kernel_seconds,
                reservation=lease.reservation,
                rows=length,
                bytes_in=transfer,
                bytes_out=staged,
                pinned=True,
                pipeline=self.pipeline,
            )
            ctx.ledger.add(CostEvent(
                op="GPU-SORT", rows=length,
                cpu_seconds=_DISPATCH_SECONDS, max_degree=1,
                gpu_seconds=launch.total_seconds,
                gpu_memory_bytes=lease.reservation.nbytes,
                device_id=lease.device.device_id,
            ))
        except PinnedMemoryError as exc:
            # Host-side staging exhaustion is not the device's fault, so
            # the circuit breaker stays out of it.
            if self.monitor is not None:
                self.monitor.record_fault_fallback("sort", exc)
            stats.fallbacks += 1
            return None
        except GpuError as exc:
            # The job falls back to the CPU sort path (None); the breaker
            # hears about the device that failed it.
            self.scheduler.record_failure(lease)
            if self.monitor is not None:
                self.monitor.record_fault_fallback(
                    "sort", exc, lease.device.device_id)
            stats.fallbacks += 1
            return None
        else:
            self.scheduler.record_success(lease)
        finally:
            self.scheduler.release(lease)
        if (segment is not None and cache is not None and cache.enabled
                and hit_bytes == 0):
            cache.insert(segment.key, segment.nbytes)
        stats.jobs_gpu += 1
        return result.order, (result.duplicate_starts,
                              result.duplicate_lengths)

    # ------------------------------------------------------------------
    # Extension: partitioned processing of over-memory jobs
    # ------------------------------------------------------------------

    def _partitioned_sort_job(self, partial: np.ndarray,
                              radix: RadixSortKernel, ctx: OperatorContext,
                              stats: SortRunStats):
        """An over-memory job as contiguous device-sized slices.

        Each slice radix-sorts independently (on a device when one has
        room, on the host when not or when a launch faults), then one
        stable argsort over the concatenated slice-sorted keys merges
        the runs.  Slices are contiguous ascending index ranges, so for
        equal keys the merge keeps lower-slice (= lower-index) rows
        first: the merged order equals a single global stable sort
        bit-for-bit, for any slice count and any mix of per-slice
        faults.  ``None`` declines the whole job to the CPU sort.
        """
        cost = ctx.config.cost
        capacity = max(
            (d.memory.capacity for d in self.scheduler.devices), default=0)
        rows = len(partial)
        plan = plan_sort_partitions(
            rows=rows,
            device_bytes_per_row=radix.device_bytes(1),
            staged_bytes_per_row=8,
            cost=cost, spec=self.scheduler.devices[0].spec,
            host=ctx.config.host, degree=ctx.degree,
            capacity_bytes=capacity,
            max_partitions=self.max_partitions,
            devices=self.scheduler.device_count,
        )
        decision = select_partitioned_path(
            operator="sort", plan=plan, enabled=self.partition_large,
            tracer=self._tracer)
        if not decision.partition:
            stats.fallbacks += 1
            return None
        partitions = plan.partitions
        self._record("gpu-partitioned", plan.reason)

        stream = PartitionStreamState()
        device_seq: dict[int, int] = {}
        group_base = next(_PARALLEL_GROUP_IDS)
        gpu_events: list[CostEvent] = []
        tracer = self._tracer
        gpu_parts = cpu_parts = 0
        bounds = np.linspace(0, rows, partitions + 1).astype(np.int64)
        pieces: list[np.ndarray] = []
        for p in range(partitions):
            lo, hi = int(bounds[p]), int(bounds[p + 1])
            if hi <= lo:
                continue
            sub = partial[lo:hi]
            sliced = self._gpu_sort_slice(sub, radix, ctx, stream,
                                          device_seq, group_base,
                                          gpu_events)
            if sliced is None:
                # The slice (not the whole job) degrades to the host.
                stats.fallbacks += 1
                cpu_parts += 1
                target, device_id = "cpu", -1
                sub_order = np.argsort(sub, kind="stable")
                if len(sub) > 1:
                    comparisons = len(sub) * math.log2(len(sub))
                    ctx.ledger.add(CostEvent(
                        op="SORT", rows=len(sub),
                        cpu_seconds=comparisons / (cost.cpu_sort_rate * 16),
                        max_degree=min(ctx.degree, 8),
                    ))
            else:
                gpu_parts += 1
                target = "gpu"
                sub_order, device_id = sliced
            if tracer is not None:
                tracer.instant(
                    "partition.part", operator="sort", index=p,
                    rows=hi - lo, target=target, device_id=device_id,
                    query_id=self.query_id,
                )
            pieces.append(lo + sub_order)

        # Same-rank slices on different devices overlap; same-device
        # slices keep their exposed-makespan accounting (see the
        # group-by executor's partitioned path).
        gpu_events.sort(key=lambda e: e.parallel_group)
        ctx.ledger.extend(gpu_events)

        # The k-way merge: one stable argsort over the concatenated
        # slice-sorted keys (runs are already sorted, priced at
        # rows * log2(k) comparisons like the CPU sort model).
        run_order = np.concatenate(pieces)
        merge_perm = np.argsort(partial[run_order], kind="stable")
        sub_order = run_order[merge_perm]
        if partitions > 1:
            merge_comparisons = rows * math.log2(partitions)
            ctx.ledger.add(CostEvent(
                op="SORT-MERGE", rows=rows,
                cpu_seconds=merge_comparisons / (cost.cpu_sort_rate * 16),
                max_degree=min(ctx.degree, 8),
            ))
        if tracer is not None:
            tracer.instant(
                "partition.exec", operator="sort", partitions=partitions,
                gpu_partitions=gpu_parts, cpu_partitions=cpu_parts,
                rows=rows, groups=0, merge_seconds=plan.merge_seconds,
                working_set=plan.working_set_bytes,
                capacity=plan.capacity_bytes, query_id=self.query_id,
            )
        stats.jobs_gpu += 1
        stats.partitioned_jobs += 1
        return sub_order, find_duplicate_ranges(partial[sub_order])

    def _gpu_sort_slice(self, sub: np.ndarray, radix: RadixSortKernel,
                        ctx: OperatorContext, stream: PartitionStreamState,
                        device_seq: dict[int, int], group_base: int,
                        gpu_events: list[CostEvent]):
        """One slice on a device; ``None`` degrades the slice to the host."""
        length = len(sub)
        staged = length * 8
        lease = self.scheduler.try_acquire(radix.device_bytes(length),
                                           tag="sort-part")
        if lease is None:
            return None
        try:
            result = radix.run(sub)
            launch = streamed_launch(
                lease.device, self.pinned,
                kernel=radix.name,
                kernel_seconds=result.kernel_seconds,
                reservation=lease.reservation,
                rows=length,
                bytes_in=staged,
                bytes_out=staged,
                pinned=True,
                pipeline=self.pipeline,
            )
            device_id = lease.device.device_id
            exposed = stream.advance(
                device_id,
                launch.transfer_in_seconds,
                launch.kernel_seconds,
                launch.transfer_out_seconds,
            )
            seq = device_seq.get(device_id, 0)
            device_seq[device_id] = seq + 1
            gpu_events.append(CostEvent(
                op="GPU-SORT", rows=length,
                cpu_seconds=_DISPATCH_SECONDS, max_degree=1,
                gpu_seconds=exposed,
                gpu_memory_bytes=lease.reservation.nbytes,
                device_id=device_id,
                parallel_group=group_base + seq,
            ))
        except PinnedMemoryError as exc:
            # Host-side staging exhaustion: the breaker stays out of it.
            if self.monitor is not None:
                self.monitor.record_fault_fallback("sort", exc)
            return None
        except GpuError as exc:
            self.scheduler.record_failure(lease)
            if self.monitor is not None:
                self.monitor.record_fault_fallback(
                    "sort", exc, lease.device.device_id)
            return None
        else:
            self.scheduler.record_success(lease)
        finally:
            self.scheduler.release(lease)
        return result.order, lease.device.device_id

    # ------------------------------------------------------------------
    # Extension: sharded N-device execution (docs/scale_out.md)
    # ------------------------------------------------------------------

    def _plan_shard_sort(self, partial: np.ndarray, ctx: OperatorContext,
                         table_name: str) -> Optional[ShardPlan]:
        """Price range-sharding one sort job across the healthy devices.

        Range shards are contiguous slices of the job, so no exchange
        crosses the interconnect — the runs meet again in the host-side
        k-way stable merge, which is what the merge term prices.
        """
        devices = home_devices(self.scheduler, self.catalog, table_name)
        if len(devices) < 2:
            return None
        cost = ctx.config.cost
        rows = len(partial)
        shards = len(devices)
        kernel_seconds = (rows / cost.gpu_radix_sort_rate
                          + rows / cost.gpu_scan_rate)
        merge_core = 0.0
        cpu_core = 0.0
        if rows > 1:
            merge_core = (rows * math.log2(shards)
                          / (cost.cpu_sort_rate * 16))
            cpu_core = (rows * math.log2(rows)
                        / (cost.cpu_sort_rate * 16))
        cpu_capacity = max(1.0, ctx.config.host.effective_capacity(
            min(ctx.degree, 8)))
        return plan_sharded(
            operator="sort",
            rows=rows,
            staged_bytes=rows * 8,
            result_bytes=rows * 8,
            kernel_seconds=kernel_seconds,
            exchange_bytes=0,
            merge_core_seconds=merge_core,
            devices=devices,
            cost=cost,
            spec=self.scheduler.devices[0].spec,
            host=ctx.config.host,
            degree=ctx.degree,
            interconnect=self.interconnect,
            cpu_seconds=cpu_core / cpu_capacity,
        )

    def _sharded_sort_job(self, partial: np.ndarray,
                          radix: RadixSortKernel, ctx: OperatorContext,
                          stats: SortRunStats, table_name: str):
        """One job as range shards, one per healthy device.

        Shards are contiguous ascending index slices, so the PR 9
        k-way stable merge (one stable argsort over the concatenated
        slice-sorted keys) reproduces a single global stable sort
        bit-for-bit for any shard count and fault mix.  The H2D wave is
        priced at the switch-contended bandwidth; a shard whose home
        device dies reroutes to any admissible device, then to the host
        sort, and the loss triggers the engine's shard-map rebalance.
        ``None`` means the gate declined and the job runs whole.
        """
        plan = self._plan_shard_sort(partial, ctx, table_name)
        decision = select_sharded_path(operator="sort", plan=plan,
                                       tracer=self._tracer)
        if not decision.shard:
            return None
        cost = ctx.config.cost
        rows = len(partial)
        shards = plan.shards
        self._record("gpu-sharded", plan.reason)
        bounds = range_shard_bounds(rows, shards)
        legs = self.interconnect.wave_legs([
            (plan.devices[s % len(plan.devices)],
             int(bounds[s + 1] - bounds[s]) * 8)
            for s in range(shards)
        ])

        stream = PartitionStreamState()
        device_seq: dict[int, int] = {}
        group_base = next(_PARALLEL_GROUP_IDS)
        gpu_events: list[CostEvent] = []
        tracer = self._tracer
        gpu_shards = cpu_shards = rerouted = 0
        lost_devices: set[int] = set()
        pieces: list[np.ndarray] = []
        for s in range(shards):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            if hi <= lo:
                continue
            sub = partial[lo:hi]
            staged = len(sub) * 8
            home = plan.devices[s % len(plan.devices)]
            sliced = None
            for attempt in range(2):
                prefer = home if attempt == 0 else None
                lease = self.scheduler.try_acquire(
                    radix.device_bytes(len(sub)), tag="sort-shard",
                    prefer_device=prefer)
                if lease is None:
                    break
                try:
                    result = radix.run(sub)
                    launch = streamed_launch(
                        lease.device, self.pinned,
                        kernel=radix.name,
                        kernel_seconds=result.kernel_seconds,
                        reservation=lease.reservation,
                        rows=len(sub),
                        bytes_in=staged,
                        bytes_out=staged,
                        pinned=True,
                        pipeline=self.pipeline,
                    )
                    device_id = lease.device.device_id
                    stall = legs[s].stall_seconds
                    self.interconnect.record_transfer(
                        device_id, staged,
                        launch.transfer_in_seconds + stall, stall)
                    self.interconnect.record_transfer(
                        device_id, staged, launch.transfer_out_seconds)
                    exposed = stream.advance(
                        device_id,
                        launch.transfer_in_seconds + stall,
                        launch.kernel_seconds,
                        launch.transfer_out_seconds,
                    )
                    seq = device_seq.get(device_id, 0)
                    device_seq[device_id] = seq + 1
                    gpu_events.append(CostEvent(
                        op="GPU-SORT", rows=len(sub),
                        cpu_seconds=_DISPATCH_SECONDS, max_degree=1,
                        gpu_seconds=exposed,
                        gpu_memory_bytes=lease.reservation.nbytes,
                        device_id=device_id,
                        parallel_group=group_base + seq,
                    ))
                    sliced = (result.order, device_id)
                except PinnedMemoryError as exc:
                    if self.monitor is not None:
                        self.monitor.record_fault_fallback("sort", exc)
                    stats.fallbacks += 1
                    break
                except GpuError as exc:
                    # Only this shard reroutes: feed the breaker, then
                    # retry on any other admissible device before the
                    # host sort.
                    self.scheduler.record_failure(lease)
                    if not lease.device.alive:
                        lost_devices.add(lease.device.device_id)
                    if self.monitor is not None:
                        self.monitor.record_fault_fallback(
                            "sort", exc, lease.device.device_id)
                    stats.fallbacks += 1
                    rerouted += 1
                    continue
                else:
                    self.scheduler.record_success(lease)
                    break
                finally:
                    self.scheduler.release(lease)
            if sliced is None:
                cpu_shards += 1
                target, device_id = "cpu", -1
                sub_order = np.argsort(sub, kind="stable")
                if len(sub) > 1:
                    comparisons = len(sub) * math.log2(len(sub))
                    ctx.ledger.add(CostEvent(
                        op="SORT", rows=len(sub),
                        cpu_seconds=comparisons / (cost.cpu_sort_rate * 16),
                        max_degree=min(ctx.degree, 8),
                    ))
            else:
                gpu_shards += 1
                target = "gpu"
                sub_order, device_id = sliced
            if tracer is not None:
                tracer.instant(
                    "shard.part", operator="sort", index=s,
                    rows=hi - lo, target=target, device_id=device_id,
                    query_id=self.query_id,
                )
            pieces.append(lo + sub_order)

        gpu_events.sort(key=lambda e: e.parallel_group)
        ctx.ledger.extend(gpu_events)

        # PR 9's k-way stable merge, verbatim: shards are contiguous
        # ascending index ranges, so equal keys keep lower-index rows
        # first and the result equals one global stable sort.
        run_order = np.concatenate(pieces)
        merge_perm = np.argsort(partial[run_order], kind="stable")
        sub_order = run_order[merge_perm]
        if shards > 1 and rows > 1:
            # Merge-path partitioning: the k-way merge splits into
            # independent output ranges, so it runs at full degree
            # (unlike the single-queue partitioned merge).
            merge_comparisons = rows * math.log2(shards)
            ctx.ledger.add(CostEvent(
                op="SORT-MERGE", rows=rows,
                cpu_seconds=merge_comparisons / (cost.cpu_sort_rate * 16),
                max_degree=min(ctx.degree, 48),
            ))
        if lost_devices and self.rebalance is not None:
            self.rebalance(sorted(lost_devices))
        if tracer is not None:
            tracer.instant(
                "shard.exec", operator="sort", shards=shards,
                gpu_shards=gpu_shards, cpu_shards=cpu_shards,
                rerouted=rerouted, devices=list(plan.devices),
                rows=rows, groups=0, merge_seconds=plan.merge_seconds,
                exchange_seconds=0.0, exchange_bytes=0,
                stall_seconds=sum(leg.stall_seconds for leg in legs),
                nvlink=self.interconnect.nvlink_enabled,
                query_id=self.query_id,
            )
        stats.jobs_gpu += 1
        stats.sharded_jobs += 1
        return sub_order, find_duplicate_ranges(partial[sub_order])

    # ------------------------------------------------------------------
    # Extension: segmented descent through duplicate ranges
    # ------------------------------------------------------------------

    def _drain_duplicate_ranges(self, encoded: np.ndarray,
                                order: np.ndarray, starts: np.ndarray,
                                lengths: np.ndarray, offset: int,
                                total_bytes: int, radix: RadixSortKernel,
                                ctx: OperatorContext, stats: SortRunStats,
                                table_name: str, queue) -> None:
        """One generation of duplicate ranges as a single segmented job.

        A low-cardinality leading key leaves thousands of small
        duplicate ranges, and one kernel launch per range would drown
        in overheads.  Real GPU sorts batch them instead (CUB's
        segmented radix sort runs every segment in one launch), so this
        sorts a whole generation's ranges at once — the segment id
        rides as the primary key, which reproduces the per-range
        job-queue order exactly — then descends to the next 4 key
        bytes with the surviving duplicate runs.  Segments never
        interact, so the sharded version needs no exchange and no
        merge.  Generations too small to batch fall back to the
        classic per-range queue.
        """
        cost = ctx.config.cost
        while len(starts) and offset < total_bytes:
            rows = int(lengths.sum())
            if len(starts) < 2 or rows < cost.cpu_sort_job_threshold:
                stats.duplicate_jobs += len(starts)
                queue.extend(SortJob(start, length, offset) for start, length
                             in zip(starts.tolist(), lengths.tolist()))
                return
            stats.duplicate_jobs += len(starts)
            stats.jobs_total += 1
            seg = np.repeat(np.arange(len(starts)), lengths)
            # Row p of the packed generation sits at its range's start
            # plus its rank inside the range.
            packed_starts = np.cumsum(lengths) - lengths
            positions = np.arange(rows) + (starts - packed_starts)[seg]
            rows_idx = order[positions]
            partial = extract_partial_keys(encoded, rows_idx, offset)
            ctx.ledger.add(CostEvent(
                op="PARTIALKEY", rows=rows,
                cpu_seconds=rows / cost.cpu_partialkey_rate,
                max_degree=min(ctx.degree, 48),
            ))
            # Stable by (segment, partial key), packed into one word:
            # within each segment this is exactly the per-range sort;
            # across segments nothing moves.
            seg_key = (seg.astype(np.uint64) << np.uint64(32)) | partial
            perm = np.argsort(seg_key, kind="stable")
            self._charge_segmented(rows, len(starts), radix, ctx, stats,
                                   table_name)
            order[positions] = rows_idx[perm]

            # A run stays inside one segment, and sorted rank p lands at
            # absolute slot positions[p], so each surviving run is again
            # one contiguous absolute range.
            run_starts, lengths = find_duplicate_ranges(seg_key[perm])
            starts = positions[run_starts]
            offset += 4

    def _charge_segmented(self, rows: int, segments: int,
                          radix: RadixSortKernel, ctx: OperatorContext,
                          stats: SortRunStats, table_name: str) -> None:
        """Account one segmented sort: sharded, one device, or host.

        The kernel prices like the plain radix sort (segment offsets
        ride in the scan term); the host rival pools every segment
        across the worker threads.  Sharding splits on segment
        boundaries, so the plan carries zero exchange and zero merge.
        """
        cost = ctx.config.cost
        staged = rows * 8
        kernel_seconds = (rows / cost.gpu_radix_sort_rate
                          + rows / cost.gpu_scan_rate)
        capacity = max(1.0, ctx.config.host.effective_capacity(
            min(ctx.degree, 48)))
        host_comparisons = rows * math.log2(max(2, rows // segments))
        host_seconds = (host_comparisons / (cost.cpu_sort_rate * 16)
                        / capacity)

        plan = None
        if self.shard_enabled and self.interconnect is not None:
            devices = home_devices(self.scheduler, self.catalog,
                                   table_name)
            if len(devices) >= 2:
                plan = plan_sharded(
                    operator="sort", rows=rows, staged_bytes=staged,
                    result_bytes=staged, kernel_seconds=kernel_seconds,
                    exchange_bytes=0, merge_core_seconds=0.0,
                    devices=devices, cost=cost,
                    spec=self.scheduler.devices[0].spec,
                    host=ctx.config.host, degree=ctx.degree,
                    interconnect=self.interconnect,
                    cpu_seconds=host_seconds,
                )
        decision = select_sharded_path(operator="sort", plan=plan,
                                       tracer=self._tracer)
        if decision.shard:
            self._charge_segmented_shards(rows, segments, staged, plan,
                                          radix, ctx, stats)
            return

        lease = None
        if (self.scheduler.device_count and self.scheduler.fits_any_device(
                radix.device_bytes(rows))):
            lease = self.scheduler.try_acquire(radix.device_bytes(rows),
                                               tag="sort")
        if lease is None:
            ctx.ledger.cpu("SORT", rows,
                           host_comparisons / (cost.cpu_sort_rate * 16),
                           min(ctx.degree, 48))
            stats.jobs_cpu += 1
            return
        try:
            launch = streamed_launch(
                lease.device, self.pinned, kernel=radix.name,
                kernel_seconds=kernel_seconds,
                reservation=lease.reservation, rows=rows,
                bytes_in=staged, bytes_out=staged, pinned=True,
                pipeline=self.pipeline,
            )
            ctx.ledger.add(CostEvent(
                op="GPU-SORT", rows=rows,
                cpu_seconds=_DISPATCH_SECONDS, max_degree=1,
                gpu_seconds=launch.total_seconds,
                gpu_memory_bytes=lease.reservation.nbytes,
                device_id=lease.device.device_id,
            ))
        except (PinnedMemoryError, GpuError) as exc:
            if isinstance(exc, GpuError):
                self.scheduler.record_failure(lease)
            if self.monitor is not None:
                self.monitor.record_fault_fallback("sort", exc)
            stats.fallbacks += 1
            ctx.ledger.cpu("SORT", rows,
                           host_comparisons / (cost.cpu_sort_rate * 16),
                           min(ctx.degree, 48))
            stats.jobs_cpu += 1
            return
        else:
            self.scheduler.record_success(lease)
        finally:
            self.scheduler.release(lease)
        stats.jobs_gpu += 1

    def _charge_segmented_shards(self, rows: int, segments: int,
                                 staged: int, plan: ShardPlan,
                                 radix: RadixSortKernel,
                                 ctx: OperatorContext,
                                 stats: SortRunStats) -> None:
        """The segmented job's shard wave: merge-free per-device legs."""
        cost = ctx.config.cost
        shards = plan.shards
        bounds = range_shard_bounds(rows, shards)
        legs = self.interconnect.wave_legs([
            (plan.devices[s % len(plan.devices)],
             int(bounds[s + 1] - bounds[s]) * 8)
            for s in range(shards)
        ])
        stream = PartitionStreamState()
        device_seq: dict[int, int] = {}
        group_base = next(_PARALLEL_GROUP_IDS)
        gpu_events: list[CostEvent] = []
        lost_devices: set[int] = set()
        for s in range(shards):
            rows_s = int(bounds[s + 1] - bounds[s])
            if rows_s <= 0:
                continue
            staged_s = rows_s * 8
            home = plan.devices[s % len(plan.devices)]
            kernel_s = (rows_s / cost.gpu_radix_sort_rate
                        + rows_s / cost.gpu_scan_rate)
            placed = False
            for attempt in range(2):
                prefer = home if attempt == 0 else None
                lease = self.scheduler.try_acquire(
                    radix.device_bytes(rows_s), tag="sort-shard",
                    prefer_device=prefer)
                if lease is None:
                    break
                try:
                    launch = streamed_launch(
                        lease.device, self.pinned, kernel=radix.name,
                        kernel_seconds=kernel_s,
                        reservation=lease.reservation, rows=rows_s,
                        bytes_in=staged_s, bytes_out=staged_s,
                        pinned=True, pipeline=self.pipeline,
                    )
                    device_id = lease.device.device_id
                    stall = legs[s].stall_seconds
                    self.interconnect.record_transfer(
                        device_id, staged_s,
                        launch.transfer_in_seconds + stall, stall)
                    self.interconnect.record_transfer(
                        device_id, staged_s, launch.transfer_out_seconds)
                    exposed = stream.advance(
                        device_id,
                        launch.transfer_in_seconds + stall,
                        launch.kernel_seconds,
                        launch.transfer_out_seconds,
                    )
                    seq = device_seq.get(device_id, 0)
                    device_seq[device_id] = seq + 1
                    gpu_events.append(CostEvent(
                        op="GPU-SORT", rows=rows_s,
                        cpu_seconds=_DISPATCH_SECONDS, max_degree=1,
                        gpu_seconds=exposed,
                        gpu_memory_bytes=lease.reservation.nbytes,
                        device_id=device_id,
                        parallel_group=group_base + seq,
                    ))
                    placed = True
                except PinnedMemoryError as exc:
                    if self.monitor is not None:
                        self.monitor.record_fault_fallback("sort", exc)
                    stats.fallbacks += 1
                    break
                except GpuError as exc:
                    self.scheduler.record_failure(lease)
                    if not lease.device.alive:
                        lost_devices.add(lease.device.device_id)
                    if self.monitor is not None:
                        self.monitor.record_fault_fallback(
                            "sort", exc, lease.device.device_id)
                    stats.fallbacks += 1
                    continue
                else:
                    self.scheduler.record_success(lease)
                    break
                finally:
                    self.scheduler.release(lease)
            if not placed:
                # This shard's segments sort on the host workers.
                comparisons = rows_s * math.log2(
                    max(2, rows_s // max(1, segments // shards)))
                ctx.ledger.cpu("SORT", rows_s,
                               comparisons / (cost.cpu_sort_rate * 16),
                               min(ctx.degree, 48))
        gpu_events.sort(key=lambda e: e.parallel_group)
        ctx.ledger.extend(gpu_events)
        if lost_devices and self.rebalance is not None:
            self.rebalance(sorted(lost_devices))
        stats.jobs_gpu += 1
        stats.sharded_jobs += 1

    @property
    def _tracer(self):
        return self.monitor.tracer if self.monitor is not None else None

    def _record(self, path: str, reason: str) -> None:
        if self.monitor is None:
            return
        self.monitor.tracer.instant(
            "offload.decision", operator="sort", path=path, reason=reason,
            query_id=self.query_id,
        )
        self.monitor.record_decision(OffloadDecision(
            query_id=self.query_id, operator="sort", path=path,
            reason=reason,
        ))


def _cpu_sort_job(partial: np.ndarray, stats: SortRunStats):
    """Sort a small job on the host (stable, like the radix kernel).

    No ledger event here: the job queue pools these jobs into one
    parallel-degree SORT charge once it drains.
    """
    sub_order = np.argsort(partial, kind="stable")
    stats.jobs_cpu += 1
    return sub_order, find_duplicate_ranges(partial[sub_order])
