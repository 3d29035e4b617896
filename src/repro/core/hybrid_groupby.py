"""The hybrid group-by/aggregation executor — Figures 2 and 3.

This is the paper's centrepiece.  For each group-by the executor:

1. applies the Figure-3 path selection on the optimizer's row/group
   estimates (small -> stock CPU chain; oversized -> CPU; else GPU);
2. on the GPU path, runs the rewired host chain of Figure 2
   (LCOG/LCOV -> CCAT -> HASH -> KMV -> MEMCPY): LGHT and the aggregation
   evaluators are gone because the device does that work;
3. reserves device memory up front through the multi-GPU scheduler (falling
   back to the CPU when no device has room — section 2.1.1's option 2);
4. asks the moderator for a kernel (or races all candidates), sizing the
   hash table from the KMV estimate, growing it on the overflow error path;
5. accounts the launch (pinned transfers in/out + kernel time) on the
   owning device and emits a single-threaded GPU cost event — the
   dispatching thread blocks while every other core is freed for other
   work, which is where the multi-user throughput gains come from.
"""

from __future__ import annotations

import itertools as _itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.blu.catalog import Catalog
from repro.blu.compression import packed_transfer_bytes
from repro.blu.datatypes import int64 as int64_type
from repro.blu.engine import OperatorContext, cpu_groupby_executor
from repro.blu.expressions import ColumnRef
from repro.blu.evaluators import build_cpu_groupby_chain, build_gpu_host_chain
from repro.blu.operators.aggregate import (
    appearance_rank,
    build_group_output,
    first_rows,
    group_encode,
    grouping_key_arrays,
)
from repro.blu.plan import GroupByNode
from repro.blu.statistics import estimate_distinct, murmur3_fmix64
from repro.blu.table import Table
from repro.config import Thresholds
from repro.core.metadata import RuntimeMetadata
from repro.core.moderator import GpuModerator
from repro.core.monitoring import OffloadDecision, PerformanceMonitor
from repro.core.pathselect import (
    ExecutionPath,
    select_groupby_path,
    select_partitioned_path,
    select_sharded_path,
)
from repro.core.scheduler import MultiGpuScheduler
from repro.errors import GpuError, PinnedMemoryError
from repro.gpu.cache import SegmentKey, StagedSegment, content_digest
from repro.gpu.interconnect import Interconnect
from repro.gpu.kernels.hashtable import combine_keys
from repro.gpu.partition import (
    PartitionPlan,
    PartitionStreamState,
    _chain_wall_seconds,
    groupby_working_set_bytes,
    plan_groupby_partitions,
)
from repro.gpu.shard import (ShardPlan, hash_shard_assignment,
                             home_devices, plan_sharded, split_rows)
from repro.gpu.kernels.request import GroupByRequest, PayloadSpec
from repro.gpu.pinned import PinnedMemoryPool
from repro.gpu.streams import PipelineSpec, streamed_launch
from repro.gpu.transfer import effective_transfer_bytes
from repro.timing import CostEvent

_DISPATCH_SECONDS = 50e-6     # the single dispatching thread's CPU work

# Deterministic, widely spaced parallel-group ids: each partitioned run
# claims a base id and numbers its device waves from there.
_PARALLEL_GROUP_IDS = _itertools.count(0, 1024)


@dataclass
class HybridGroupByExecutor:
    """Pluggable group-by executor implementing the hybrid design.

    ``partition_large`` enables the out-of-core extension the paper
    describes but does not implement ("If the number of input rows is
    very large ... we will need to partition the data and use both the
    CPU and the GPU ... In our current implementation, all of the large
    queries are processed in the CPU"): over-memory inputs — over T3 by
    rows or with a working set estimated above device capacity — are
    hash-partitioned on the grouping key into device-sized chunks that
    stream through the cards on the three-engine pipeline
    (:mod:`repro.gpu.partition`), whenever the partition planner's cost
    model beats the stock CPU chain.  The partitions' group sets are
    disjoint, so the merge renumbers and concatenates — no
    re-aggregation — and the final output is bit-identical to the CPU
    chain's.  ``max_partitions`` caps how finely one group-by may split.
    """

    scheduler: MultiGpuScheduler
    moderator: GpuModerator
    pinned: PinnedMemoryPool
    thresholds: Thresholds
    monitor: Optional[PerformanceMonitor] = None
    race_kernels: bool = False
    partition_large: bool = False
    max_partitions: int = 64
    catalog: Optional[Catalog] = None
    pipeline: Optional[PipelineSpec] = None
    query_id: str = ""
    #: Scale-out (docs/scale_out.md): when set with an interconnect,
    #: GPU-verdict group-bys may split across every healthy device.
    shard_enabled: bool = False
    interconnect: Optional[Interconnect] = None
    #: Engine callback invoked with the lost device ids after a sharded
    #: run saw device loss — rewrites the catalog's shard maps.
    rebalance: Optional[Callable[[list], None]] = None

    def __call__(self, table: Table, node: GroupByNode,
                 ctx: OperatorContext) -> Table:
        rows = table.num_rows
        optimizer_groups = node.estimates.groups or 0.0

        if not node.keys:
            return cpu_groupby_executor(table, node, ctx)

        groups_estimate = (int(optimizer_groups) if optimizer_groups > 0
                           else rows)
        working_set = groupby_working_set_bytes(rows, groups_estimate,
                                                len(node.aggs))
        capacity = max(
            (d.memory.capacity for d in self.scheduler.devices), default=0)
        decision = select_groupby_path(rows, optimizer_groups,
                                       self.thresholds,
                                       tracer=self._tracer,
                                       working_set_bytes=working_set,
                                       device_capacity_bytes=capacity)
        if decision.path is ExecutionPath.CPU_LARGE and self.partition_large:
            plan = plan_groupby_partitions(
                rows=rows, estimated_groups=groups_estimate,
                num_keys=len(node.keys), num_aggs=len(node.aggs),
                thresholds=self.thresholds, cost=ctx.config.cost,
                spec=self.scheduler.devices[0].spec,
                host=ctx.config.host, degree=ctx.degree,
                capacity_bytes=capacity,
                max_partitions=self.max_partitions,
                devices=self.scheduler.device_count,
            )
            partitioned = select_partitioned_path(
                operator="groupby", plan=plan, tracer=self._tracer)
            if partitioned.partition:
                return self._run_partitioned(table, node, ctx,
                                             optimizer_groups, plan)
            self._record(decision.path.value, partitioned.reason)
            return cpu_groupby_executor(table, node, ctx)
        if not decision.use_gpu:
            self._record(decision.path.value, decision.reason)
            return cpu_groupby_executor(table, node, ctx)

        return self._run_on_gpu(table, node, ctx, optimizer_groups)

    # ------------------------------------------------------------------
    # GPU path
    # ------------------------------------------------------------------

    def _run_on_gpu(self, table: Table, node: GroupByNode,
                    ctx: OperatorContext, optimizer_groups: float) -> Table:
        rows = table.num_rows
        cost = ctx.config.cost

        # Host half of the Figure-2 chain: load, concat, hash, KMV, memcpy.
        key_arrays = grouping_key_arrays(table, node.keys)
        combined, exact = combine_keys(key_arrays)
        key_bits = sum(table.schema.field(k).dtype.bits for k in node.keys)
        hashes = murmur3_fmix64(combined)
        kmv = estimate_distinct(hashes, k=1024)

        payloads = self._payload_specs(table, node)
        metadata = RuntimeMetadata(
            rows=rows,
            optimizer_groups=optimizer_groups,
            kmv_groups=kmv.groups,
            key_bits=key_bits,
            num_keys=len(node.keys),
            payloads=payloads,
            exact_keys=exact,
            key_transfer_bytes=_staged_key_bytes(table, node.keys),
        )
        staged_bytes = metadata.staged_input_bytes()
        segments = self._staged_segments(table, node)

        # Scale-out: a GPU-verdict group-by may split across every
        # healthy device when the shard planner beats both the
        # single-device estimate and the CPU chain (docs/scale_out.md).
        if self.shard_enabled and self.interconnect is not None:
            plan = self._plan_shards(table, node, ctx, metadata)
            sharded = select_sharded_path(
                operator="groupby", plan=plan, tracer=self._tracer)
            if sharded.shard:
                return self._run_sharded(table, node, ctx, combined,
                                         exact, hashes, metadata,
                                         payloads, plan)

        # Up-front device memory reservation, sized from optimizer metadata
        # (the KMV refinement may grow it below).  The reservation stays
        # full-sized even when cached segments will elide transfers: the
        # staged input lives on the device either way, the cache merely
        # holds part of it already.
        request = GroupByRequest(
            keys=combined, key_bits=key_bits, payloads=payloads,
            estimated_groups=metadata.estimated_groups, exact_keys=exact,
        )
        kernel, _reason = self.moderator.choose(metadata)
        memory_needed = (staged_bytes + metadata.result_bytes()
                         + kernel.table_bytes(request))
        if self.race_kernels:
            memory_needed += sum(
                k.table_bytes(request)
                for k in self.moderator.candidates(metadata)
                if k is not kernel
            )
        lease = self.scheduler.try_acquire(
            memory_needed, tag="groupby",
            affinity=[s.key for s in segments])
        if lease is None:
            # No device has room right now: fall back to the CPU chain
            # (section 2.1.1 option 2).  Nothing was staged yet, so only
            # the decision is recorded.
            self._record("cpu-fallback",
                         f"no GPU could reserve {memory_needed} bytes")
            out = cpu_groupby_executor(table, node, ctx)
            self._note_kmv(kmv.groups, out.num_rows)
            return out

        self._record("gpu", f"offloading {rows} rows, "
                            f"kmv groups~{metadata.estimated_groups}",
                     kernel=kernel.name, device_id=lease.device.device_id)

        # Column-cache probe on the leased device: resident segments skip
        # both the MEMCPY into pinned staging and the PCIe copy.
        cache = lease.device.cache
        hit_bytes = 0
        missed: list[StagedSegment] = []
        if cache is not None and cache.enabled:
            for segment in segments:
                if cache.lookup(segment.key):
                    hit_bytes += segment.nbytes
                else:
                    missed.append(segment)
        transfer_bytes = effective_transfer_bytes(staged_bytes, hit_bytes)
        host_chain = build_gpu_host_chain(
            rows=rows, num_keys=len(node.keys),
            num_aggs=max(1, len(payloads)),
            staged_bytes=transfer_bytes, cost=cost,
        )

        # The host chain (including MEMCPY into pinned staging) runs now.
        for event in host_chain.cost_events(ctx.degree):
            ctx.ledger.add(event)
        try:
            outcome = self.moderator.run(request, metadata,
                                         race=self.race_kernels)
            winner = outcome.winner
            if self.monitor is not None:
                self.monitor.record_overflow_retries(outcome.overflow_retries)
                if outcome.raced:
                    self.monitor.record_race(outcome.cancelled)

            launch = streamed_launch(
                lease.device, self.pinned,
                kernel=winner.kernel,
                kernel_seconds=(winner.kernel_seconds
                                + outcome.wasted_device_seconds),
                reservation=lease.reservation,
                rows=rows,
                bytes_in=transfer_bytes,
                bytes_out=metadata.result_bytes(),
                pinned=True,
                pipeline=self.pipeline,
            )
            ctx.ledger.add(CostEvent(
                op="GPU-GROUPBY",
                rows=rows,
                cpu_seconds=_DISPATCH_SECONDS,
                max_degree=1,
                gpu_seconds=launch.total_seconds,
                gpu_memory_bytes=lease.reservation.nbytes,
                device_id=lease.device.device_id,
            ))
        except PinnedMemoryError as exc:
            # Host-side staging exhaustion: no device misbehaved, so the
            # circuit breaker stays out of it.
            if self.monitor is not None:
                self.monitor.record_fault_fallback("groupby", exc)
            self._record("cpu-fallback", "pinned staging pool exhausted")
            out = cpu_groupby_executor(table, node, ctx)
            self._note_kmv(kmv.groups, out.num_rows)
            return out
        except GpuError as exc:
            # Launch failure / device loss / allocation fault: feed the
            # circuit breaker and redo the whole operator on the CPU chain
            # (guaranteed degradation — results must not change).
            self.scheduler.record_failure(lease)
            if self.monitor is not None:
                self.monitor.record_fault_fallback(
                    "groupby", exc, lease.device.device_id)
            self._record("cpu-fallback", f"gpu failure: {exc}",
                         device_id=lease.device.device_id)
            out = cpu_groupby_executor(table, node, ctx)
            self._note_kmv(kmv.groups, out.num_rows)
            return out
        else:
            self.scheduler.record_success(lease)
        finally:
            self.scheduler.release(lease)

        # Admit the freshly staged segments now that the query's own
        # reservation has been returned (insert failures are harmless —
        # the cache simply stays cold for those segments).
        if cache is not None and cache.enabled:
            for segment in missed:
                cache.insert(segment.key, segment.nbytes)

        self._note_kmv(kmv.groups, winner.n_groups)
        first_row = first_rows(winner.group_index, winner.n_groups)
        return build_group_output(
            table, node.keys, node.aggs, winner.group_index, first_row,
            winner.n_groups, name=f"{table.name}_grouped",
        )

    # ------------------------------------------------------------------
    # Extension: partitioned processing of over-T3 inputs
    # ------------------------------------------------------------------

    def _run_partitioned(self, table: Table, node: GroupByNode,
                         ctx: OperatorContext,
                         optimizer_groups: float,
                         plan: PartitionPlan) -> Table:
        """Hash-partition an over-memory group-by into device-sized chunks.

        Partitioning on the grouping-key hash makes the partitions'
        group sets disjoint, so the merge is a renumber-and-concatenate
        pass — no re-aggregation.  The final group numbering follows
        global first appearance, which makes the output *bit-identical*
        to the stock CPU chain's for any partition count and any mix of
        per-partition GPU faults (a faulted partition redoes its slice
        on the CPU chain and changes nothing downstream).
        """
        rows = table.num_rows
        cost = ctx.config.cost
        key_arrays = grouping_key_arrays(table, node.keys)
        combined, exact = combine_keys(key_arrays)
        key_bits = sum(table.schema.field(k).dtype.bits for k in node.keys)
        payloads = self._payload_specs(table, node)

        partitions = plan.partitions
        hashes = murmur3_fmix64(combined)
        part_rows = split_rows(hash_shard_assignment(hashes, partitions),
                               partitions)
        # One pass over the data to split it (host side, parallel).
        ctx.ledger.cpu("PARTITION", rows, rows / cost.cpu_scan_rate,
                       max_degree=ctx.degree)
        self._record("gpu-partitioned", plan.reason, kernel=None)

        # Partitions run data-parallel across the devices (section 2.2)
        # and stream back-to-back within each device on the three-engine
        # pipeline: the per-device PartitionStreamState charges each
        # launch only its exposed makespan growth, and parallel groups
        # pair same-rank partitions on different devices so both the
        # serial timing and the DES overlap them the way the hardware
        # would.
        gpu_events: list[CostEvent] = []
        group_base = next(_PARALLEL_GROUP_IDS)
        stream = PartitionStreamState()
        device_seq: dict[int, int] = {}
        tracer = self._tracer
        gpu_parts = cpu_parts = 0

        group_index = np.empty(rows, dtype=np.int64)
        offset = 0

        def cpu_partition(p, rows_p, keys_p, kmv_groups):
            """One partition on the CPU chain — the no-lease / fault
            fallback target."""
            nonlocal offset
            note_part(p, len(rows_p), "cpu")
            sub_index, n_sub = self._piece_on_cpu(keys_p, node, payloads,
                                                  ctx)
            self._note_kmv(kmv_groups, n_sub, stamp_span=False)
            group_index[rows_p] = sub_index + offset
            offset += n_sub

        def note_part(index, n_rows, target, device_id=-1):
            nonlocal gpu_parts, cpu_parts
            if target == "gpu":
                gpu_parts += 1
            else:
                cpu_parts += 1
            if tracer is not None:
                tracer.instant(
                    "partition.part", operator="groupby", index=index,
                    rows=int(n_rows), target=target, device_id=device_id,
                    query_id=self.query_id,
                )

        for p, rows_p in enumerate(part_rows):
            if not len(rows_p):
                continue
            keys_p = combined[rows_p]
            kmv = estimate_distinct(hashes[rows_p], k=1024)
            metadata = RuntimeMetadata(
                rows=len(rows_p),
                optimizer_groups=optimizer_groups / partitions,
                kmv_groups=kmv.groups,
                key_bits=key_bits, num_keys=len(node.keys),
                payloads=payloads, exact_keys=exact,
            )
            request = GroupByRequest(
                keys=keys_p, key_bits=key_bits, payloads=payloads,
                estimated_groups=metadata.estimated_groups,
                exact_keys=exact,
            )
            staged = metadata.staged_input_bytes()
            host_chain = build_gpu_host_chain(
                rows=len(rows_p), num_keys=len(node.keys),
                num_aggs=max(1, len(payloads)),
                staged_bytes=staged, cost=cost,
            )
            kernel, _reason = self.moderator.choose(metadata)
            memory_needed = (staged + metadata.result_bytes()
                             + kernel.table_bytes(request))
            lease = self.scheduler.try_acquire(memory_needed,
                                               tag="groupby-part")
            if lease is None:
                # Partition runs on the CPU chain instead (truly hybrid).
                cpu_partition(p, rows_p, keys_p, kmv.groups)
                continue
            for event in host_chain.cost_events(ctx.degree):
                ctx.ledger.add(event)
            try:
                outcome = self.moderator.run(request, metadata, race=False)
                winner = outcome.winner
                if self.monitor is not None:
                    self.monitor.record_overflow_retries(
                        outcome.overflow_retries)
                launch = streamed_launch(
                    lease.device, self.pinned,
                    kernel=winner.kernel,
                    kernel_seconds=(winner.kernel_seconds
                                    + outcome.wasted_device_seconds),
                    reservation=lease.reservation,
                    rows=len(rows_p),
                    bytes_in=staged,
                    bytes_out=metadata.result_bytes(),
                    pinned=True,
                    pipeline=self.pipeline,
                )
                # Feed this launch through its device's partition-level
                # pipeline: only the makespan growth is charged, so H2D
                # of partition k+1 hides under the kernel of partition k
                # and the summed events equal the streamed makespan.
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
                    op="GPU-GROUPBY",
                    rows=len(rows_p),
                    cpu_seconds=_DISPATCH_SECONDS,
                    max_degree=1,
                    gpu_seconds=exposed,
                    gpu_memory_bytes=lease.reservation.nbytes,
                    device_id=device_id,
                    parallel_group=group_base + seq,
                ))
            except PinnedMemoryError as exc:
                # Staging exhaustion degrades just this partition to the
                # CPU chain; the breaker is not fed.
                if self.monitor is not None:
                    self.monitor.record_fault_fallback("groupby", exc)
                cpu_partition(p, rows_p, keys_p, kmv.groups)
                continue
            except GpuError as exc:
                self.scheduler.record_failure(lease)
                if self.monitor is not None:
                    self.monitor.record_fault_fallback(
                        "groupby", exc, lease.device.device_id)
                cpu_partition(p, rows_p, keys_p, kmv.groups)
                continue
            else:
                self.scheduler.record_success(lease)
            finally:
                self.scheduler.release(lease)
            note_part(p, len(rows_p), "gpu", lease.device.device_id)
            self._note_kmv(kmv.groups, winner.n_groups, stamp_span=False)
            group_index[rows_p] = winner.group_index + offset
            offset += winner.n_groups

        # Emit the device work grouped so same-rank partitions on
        # *different* devices sit adjacent and overlap (section 2.2);
        # same-device events keep distinct groups — their overlap is
        # already folded into the exposed makespan contributions above.
        gpu_events.sort(key=lambda e: e.parallel_group)
        ctx.ledger.extend(gpu_events)

        # The merge: renumber the disjoint per-partition group ids into
        # global first-appearance order (one remap pass over the group
        # index), which makes the concatenated output bit-identical to
        # the stock CPU chain's hash-insertion order.
        remap, first_row = appearance_rank(first_rows(group_index, offset),
                                           rows)
        group_index = remap[group_index]
        merge_core_seconds = (offset / cost.cpu_merge_rate
                              + rows / cost.cpu_scan_rate)
        ctx.ledger.cpu("PARTITION-MERGE", rows, merge_core_seconds,
                       max_degree=ctx.degree)
        merge_wall = merge_core_seconds / max(
            1.0, ctx.config.host.effective_capacity(ctx.degree))
        if tracer is not None:
            tracer.instant(
                "partition.exec", operator="groupby",
                partitions=partitions, gpu_partitions=gpu_parts,
                cpu_partitions=cpu_parts, rows=rows, groups=int(offset),
                merge_seconds=merge_wall,
                working_set=plan.working_set_bytes,
                capacity=plan.capacity_bytes, query_id=self.query_id,
            )
        return build_group_output(
            table, node.keys, node.aggs, group_index, first_row, offset,
            name=f"{table.name}_grouped",
        )

    # ------------------------------------------------------------------
    # Extension: sharded N-device execution (docs/scale_out.md)
    # ------------------------------------------------------------------

    def _plan_shards(self, table: Table, node: GroupByNode,
                     ctx: OperatorContext,
                     metadata: RuntimeMetadata) -> Optional[ShardPlan]:
        """Price sharding this group-by across the healthy devices.

        The sharded kernel estimate includes the on-device decode and
        hash of the encoded columns — the work the sharded data path
        moves off the host (see the module docstring of
        :mod:`repro.gpu.shard`) — and the exchange prices the hash
        repartition of the whole staged input.
        """
        devices = home_devices(self.scheduler, self.catalog, table.name)
        if len(devices) < 2:
            return None
        cost = ctx.config.cost
        rows = metadata.rows
        num_aggs = max(1, len(node.aggs))
        num_cols = len(node.keys) + num_aggs
        staged = metadata.staged_input_bytes()
        groups = max(1, int(metadata.estimated_groups))
        kernel_seconds = (
            rows / cost.gpu_ht_insert_rate
            + rows * num_aggs / cost.gpu_atomic_agg_rate
            + rows * (num_cols + 1) / cost.gpu_decode_rate
        )
        cpu_chain = build_cpu_groupby_chain(
            rows=rows, num_keys=len(node.keys), num_aggs=len(node.aggs),
            groups=groups, cost=cost,
        )
        return plan_sharded(
            operator="groupby",
            rows=rows,
            staged_bytes=staged,
            result_bytes=metadata.result_bytes(),
            kernel_seconds=kernel_seconds,
            exchange_bytes=staged,
            merge_core_seconds=groups / cost.cpu_merge_rate,
            devices=devices,
            cost=cost,
            spec=self.scheduler.devices[0].spec,
            host=ctx.config.host,
            degree=ctx.degree,
            interconnect=self.interconnect,
            cpu_seconds=_chain_wall_seconds(cpu_chain, ctx.config.host,
                                            ctx.degree),
            host_core_seconds=(staged / cost.cpu_memcpy_rate
                               + rows * 8 / cost.cpu_memcpy_rate),
        )

    def _run_sharded(self, table: Table, node: GroupByNode,
                     ctx: OperatorContext, combined: np.ndarray,
                     exact: bool, hashes: np.ndarray,
                     metadata: RuntimeMetadata, payloads: list,
                     plan: ShardPlan) -> Table:
        """Split one GPU-verdict group-by across N devices.

        Hash sharding on the grouping-key hash makes the shards' group
        sets disjoint, so the merge is PR 9's renumber-and-concatenate
        pass and the output is bit-identical to the CPU chain for any
        shard count and fault mix.  The host's only per-row work is the
        slicing split and the MEMCPY into pinned staging: decode and
        hash are priced on the shards (the numpy arrays here compute
        the real results the simulation needs, as everywhere else), and
        the hash repartition crosses the modelled interconnect as the
        exchange.  A shard whose home device dies reroutes — first to
        any other admissible device, then to the CPU closure — and the
        loss triggers the engine's shard-map rebalance afterwards.
        """
        rows = table.num_rows
        cost = ctx.config.cost
        key_bits = metadata.key_bits
        shards = plan.shards
        num_cols = len(node.keys) + max(1, len(payloads))
        shard_rows = split_rows(hash_shard_assignment(hashes, shards),
                                shards)
        # The host only builds the shard index vectors (bandwidth-bound);
        # computing the per-row hash is on-device work, priced in each
        # shard's decode+hash prep slice below.
        ctx.ledger.cpu("SHARD-SPLIT", rows, rows * 8 / cost.cpu_memcpy_rate,
                       max_degree=ctx.degree)
        self._record("gpu-sharded", plan.reason, kernel=None)
        tracer = self._tracer

        # First pass sizes every shard so the H2D wave can be priced
        # with the real switch contention before anything launches.
        shard_meta = []
        for rows_s in shard_rows:
            if not len(rows_s):
                shard_meta.append(None)
                continue
            kmv = estimate_distinct(hashes[rows_s], k=1024)
            shard_meta.append(RuntimeMetadata(
                rows=len(rows_s),
                optimizer_groups=metadata.optimizer_groups / shards,
                kmv_groups=kmv.groups,
                key_bits=key_bits, num_keys=len(node.keys),
                payloads=payloads, exact_keys=exact,
            ))
        legs = self.interconnect.wave_legs([
            (plan.devices[s % len(plan.devices)],
             shard_meta[s].staged_input_bytes() if shard_meta[s] else 0)
            for s in range(shards)
        ])

        gpu_events: list[CostEvent] = []
        group_base = next(_PARALLEL_GROUP_IDS)
        stream = PartitionStreamState()
        device_seq: dict[int, int] = {}
        gpu_shards = cpu_shards = rerouted = 0
        lost_devices: set[int] = set()
        group_index = np.empty(rows, dtype=np.int64)
        offset = 0

        def note_shard(index, n_rows, target, device_id=-1):
            nonlocal gpu_shards, cpu_shards
            if target == "cpu":
                cpu_shards += 1
            else:
                gpu_shards += 1
            if tracer is not None:
                tracer.instant(
                    "shard.part", operator="groupby", index=index,
                    rows=int(n_rows), target=target, device_id=device_id,
                    query_id=self.query_id,
                )

        for s in range(shards):
            rows_s = shard_rows[s]
            meta_s = shard_meta[s]
            if meta_s is None:
                continue
            keys_s = combined[rows_s]
            request = GroupByRequest(
                keys=keys_s, key_bits=key_bits, payloads=payloads,
                estimated_groups=meta_s.estimated_groups,
                exact_keys=exact,
            )
            staged_s = meta_s.staged_input_bytes()
            kernel, _reason = self.moderator.choose(meta_s)
            memory_needed = (staged_s + meta_s.result_bytes()
                            + kernel.table_bytes(request))
            home = plan.devices[s % len(plan.devices)]
            ctx.ledger.cpu("MEMCPY", len(rows_s),
                           staged_s / cost.cpu_memcpy_rate, ctx.degree)
            winner = None
            for attempt in range(2):
                prefer = home if attempt == 0 else None
                lease = self.scheduler.try_acquire(
                    memory_needed, tag="groupby-shard",
                    prefer_device=prefer)
                if lease is None:
                    break
                try:
                    outcome = self.moderator.run(request, meta_s,
                                                 race=False)
                    candidate = outcome.winner
                    if self.monitor is not None:
                        self.monitor.record_overflow_retries(
                            outcome.overflow_retries)
                    # The shard decodes and hashes its encoded columns
                    # on-device before aggregating (the scale-out data
                    # path); both ride the kernel slice of the launch.
                    prep_seconds = (len(rows_s) * (num_cols + 1)
                                    / cost.gpu_decode_rate)
                    launch = streamed_launch(
                        lease.device, self.pinned,
                        kernel=candidate.kernel,
                        kernel_seconds=(candidate.kernel_seconds
                                        + outcome.wasted_device_seconds
                                        + prep_seconds),
                        reservation=lease.reservation,
                        rows=len(rows_s),
                        bytes_in=staged_s,
                        bytes_out=meta_s.result_bytes(),
                        pinned=True,
                        pipeline=self.pipeline,
                    )
                    device_id = lease.device.device_id
                    stall = legs[s].stall_seconds
                    self.interconnect.record_transfer(
                        device_id, staged_s,
                        launch.transfer_in_seconds + stall, stall)
                    self.interconnect.record_transfer(
                        device_id, meta_s.result_bytes(),
                        launch.transfer_out_seconds)
                    exposed = stream.advance(
                        device_id,
                        launch.transfer_in_seconds + stall,
                        launch.kernel_seconds,
                        launch.transfer_out_seconds,
                    )
                    seq = device_seq.get(device_id, 0)
                    device_seq[device_id] = seq + 1
                    gpu_events.append(CostEvent(
                        op="GPU-GROUPBY",
                        rows=len(rows_s),
                        cpu_seconds=_DISPATCH_SECONDS,
                        max_degree=1,
                        gpu_seconds=exposed,
                        gpu_memory_bytes=lease.reservation.nbytes,
                        device_id=device_id,
                        parallel_group=group_base + seq,
                    ))
                    winner = candidate
                except PinnedMemoryError as exc:
                    if self.monitor is not None:
                        self.monitor.record_fault_fallback("groupby", exc)
                    break
                except GpuError as exc:
                    # Only this shard reroutes: feed the breaker, then
                    # retry on any other admissible device before the
                    # CPU closure.
                    self.scheduler.record_failure(lease)
                    if not lease.device.alive:
                        lost_devices.add(lease.device.device_id)
                    if self.monitor is not None:
                        self.monitor.record_fault_fallback(
                            "groupby", exc, lease.device.device_id)
                    rerouted += 1
                    continue
                else:
                    self.scheduler.record_success(lease)
                    break
                finally:
                    self.scheduler.release(lease)
            if winner is None:
                note_shard(s, len(rows_s), "cpu")
                # The CPU chain is the reroute of last resort.
                sub_index, n_sub = self._piece_on_cpu(keys_s, node,
                                                      payloads, ctx)
                self._note_kmv(meta_s.kmv_groups, n_sub, stamp_span=False)
                group_index[rows_s] = sub_index + offset
                offset += n_sub
                continue
            note_shard(s, len(rows_s), "gpu", lease.device.device_id)
            self._note_kmv(meta_s.kmv_groups, winner.n_groups,
                           stamp_span=False)
            group_index[rows_s] = winner.group_index + offset
            offset += winner.n_groups

        gpu_events.sort(key=lambda e: e.parallel_group)
        ctx.ledger.extend(gpu_events)

        # The exchange: the hash repartition of the encoded input
        # crosses the interconnect (peer-to-peer over NVLink when
        # enabled, bounced through host staging otherwise).
        staged_total = sum(m.staged_input_bytes()
                           for m in shard_meta if m is not None)
        exchange_seconds = self.interconnect.exchange_seconds(
            staged_total, shards)
        cross_bytes = self.interconnect.cross_shard_bytes(
            staged_total, shards)
        self.interconnect.record_exchange(cross_bytes, exchange_seconds)
        ctx.ledger.add(CostEvent(
            op="SHARD-EXCHANGE", rows=rows,
            cpu_seconds=_DISPATCH_SECONDS, max_degree=1,
            gpu_seconds=exchange_seconds,
        ))

        # PR 9's renumber-merge: disjoint per-shard group ids renumber
        # into global first-appearance order.
        remap, first_row = appearance_rank(first_rows(group_index, offset),
                                           rows)
        group_index = remap[group_index]
        # Per-shard aggregation is complete (disjoint group sets), so
        # only the group tables merge on the host — O(groups), unlike
        # the partitioned path whose slices share groups and rebuild a
        # per-row index.
        merge_core_seconds = offset / cost.cpu_merge_rate
        ctx.ledger.cpu("SHARD-MERGE", rows, merge_core_seconds,
                       max_degree=ctx.degree)
        merge_wall = merge_core_seconds / max(
            1.0, ctx.config.host.effective_capacity(ctx.degree))
        if lost_devices and self.rebalance is not None:
            self.rebalance(sorted(lost_devices))
        if tracer is not None:
            tracer.instant(
                "shard.exec", operator="groupby",
                shards=shards, gpu_shards=gpu_shards,
                cpu_shards=cpu_shards, rerouted=rerouted,
                devices=list(plan.devices), rows=rows,
                groups=int(offset), merge_seconds=merge_wall,
                exchange_seconds=exchange_seconds,
                exchange_bytes=int(cross_bytes),
                stall_seconds=sum(leg.stall_seconds for leg in legs),
                nvlink=self.interconnect.nvlink_enabled,
                query_id=self.query_id,
            )
        return build_group_output(
            table, node.keys, node.aggs, group_index, first_row, offset,
            name=f"{table.name}_grouped",
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _piece_on_cpu(self, keys: np.ndarray, node: GroupByNode,
                      payloads: list, ctx: OperatorContext):
        """One partition or shard on the CPU chain; returns its (dense
        group index, group count)."""
        cost = ctx.config.cost
        sub_index, _, n_sub = group_encode([keys])
        ctx.ledger.extend(build_gpu_host_chain(
            rows=len(keys), num_keys=len(node.keys),
            num_aggs=max(1, len(payloads)), staged_bytes=0, cost=cost,
        ).cost_events(ctx.degree))
        ctx.ledger.cpu("LGHT", len(keys), len(keys) / cost.cpu_groupby_rate,
                       ctx.degree)
        return sub_index, n_sub

    def _staged_segments(self, table: Table,
                         node: GroupByNode) -> list[StagedSegment]:
        """The cacheable slices of this group-by's staged input.

        Key columns stage at their packed transfer widths, plain-column
        aggregation payloads at 4 bytes/row.  ``COUNT(*)`` and computed
        expressions have no stable column identity, so those payload
        slots always re-stage (they are simply absent from the list).
        The segment token is a content digest of the encoded column, so
        a fact column gathered unchanged through an order-preserving N:1
        join shares entries with its base table.
        """
        version = self.catalog.version if self.catalog is not None else 0
        rows = table.num_rows
        segments = []
        for name in node.keys:
            col = table.column(name)
            segments.append(StagedSegment(
                key=SegmentKey(
                    table=table.name, column=name,
                    segment="key:" + content_digest(col.data,
                                                    col.null_mask),
                    catalog_version=version,
                ),
                nbytes=_packed_key_bytes(col),
            ))
        for agg in node.aggs:
            if not isinstance(agg.expr, ColumnRef):
                continue
            col = table.column(agg.expr.name)
            segments.append(StagedSegment(
                key=SegmentKey(
                    table=table.name, column=agg.expr.name,
                    segment="agg:" + content_digest(col.data,
                                                    col.null_mask),
                    catalog_version=version,
                ),
                nbytes=rows * 4,
            ))
        return segments

    def _payload_specs(self, table: Table,
                       node: GroupByNode) -> list[PayloadSpec]:
        specs = []
        for agg in node.aggs:
            dtype = (int64_type() if agg.expr is None
                     else agg.expr.result_type(table))
            specs.append(PayloadSpec(dtype=dtype, func=agg.func))
        return specs

    @property
    def _tracer(self):
        return self.monitor.tracer if self.monitor is not None else None

    def _note_kmv(self, estimated: int, actual: int,
                  stamp_span: bool = True) -> None:
        """Judge one KMV estimate against the actual group count.

        Feeds the ``repro_kmv_relative_error`` histogram and, for the
        whole-input path, stamps the KMV refinement onto the enclosing
        ``op.groupby`` span (the engine stamps the optimizer estimate and
        the actual count; partitions skip the stamp — their per-partition
        estimates have no single span to live on).
        """
        if self.monitor is None:
            return
        error = self.monitor.record_kmv_estimate(estimated, actual)
        if not stamp_span:
            return
        span = self.monitor.tracer.current
        if span is not None and span.name == "op.groupby":
            span.attributes["kmv_groups"] = int(estimated)
            span.attributes["kmv_relative_error"] = error

    def _record(self, path: str, reason: str, kernel: Optional[str] = None,
                device_id: int = -1) -> None:
        if self.monitor is None:
            return
        self.monitor.tracer.instant(
            "offload.decision", operator="groupby", path=path,
            reason=reason, kernel=kernel or "", query_id=self.query_id,
        )
        self.monitor.record_decision(OffloadDecision(
            query_id=self.query_id, operator="groupby", path=path,
            reason=reason, kernel=kernel, device_id=device_id,
        ))


def _packed_key_bytes(col) -> int:
    """Staged bytes of one grouping-key column at its packed width.

    Dictionary columns pack to their cardinality's width; plain integer
    columns pack to their value span (BLU's load-time frame-of-reference
    encoding).
    """
    if col.dictionary is not None:
        cardinality = col.dictionary.cardinality
    elif len(col.data):
        cardinality = int(col.data.max()) - int(col.data.min()) + 1
    else:
        cardinality = 1
    return packed_transfer_bytes(len(col), cardinality)


def _staged_key_bytes(table: Table, keys) -> int:
    """Bytes MEMCPY stages for the key columns, at their packed widths."""
    return sum(_packed_key_bytes(table.column(name)) for name in keys)

