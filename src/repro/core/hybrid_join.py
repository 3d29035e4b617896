"""Hybrid join executor — the paper's future-work item, implemented.

Disabled by default (the paper's prototype keeps joins on the host); pass
``enable_join_offload=True`` to :class:`~repro.core.accelerator.
GpuAcceleratedEngine` to turn it on.  The routing mirrors the group-by
path selection: the probe side must clear the offload row threshold, the
build side must have unique keys (the star-schema FK case the kernel
handles), the working set must fit a device, and any failure falls back to
the stock CPU join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.blu.catalog import Catalog
from repro.blu.engine import OperatorContext, cpu_join_executor
from repro.blu.operators.aggregate import group_encode
from repro.blu.operators.join import _aligned_keys, _assemble, match_rows
from repro.blu.plan import JoinNode
from repro.blu.table import Table
from repro.config import Thresholds
from repro.core.hybrid_groupby import _PARALLEL_GROUP_IDS
from repro.core.monitoring import OffloadDecision, PerformanceMonitor
from repro.core.pathselect import select_sharded_path
from repro.core.scheduler import MultiGpuScheduler
from repro.errors import GpuError, PinnedMemoryError
from repro.gpu.cache import SegmentKey, StagedSegment, content_digest
from repro.gpu.interconnect import Interconnect
from repro.gpu.kernels.join import HashJoinKernel
from repro.gpu.partition import PartitionStreamState
from repro.gpu.pinned import PinnedMemoryPool
from repro.gpu.shard import (ShardPlan, home_devices, plan_sharded,
                             range_shard_bounds)
from repro.gpu.streams import PipelineSpec, streamed_launch
from repro.gpu.transfer import effective_transfer_bytes
from repro.timing import CostEvent

_DISPATCH_SECONDS = 50e-6


@dataclass
class HybridJoinExecutor:
    """Pluggable join executor that may offload FK joins to a GPU."""

    scheduler: MultiGpuScheduler
    pinned: PinnedMemoryPool
    thresholds: Thresholds
    monitor: Optional[PerformanceMonitor] = None
    catalog: Optional[Catalog] = None
    pipeline: Optional[PipelineSpec] = None
    #: Scale-out (docs/scale_out.md): when set with an interconnect, the
    #: probe side range-shards across devices with the build broadcast.
    shard_enabled: bool = False
    interconnect: Optional[Interconnect] = None
    #: Engine callback invoked with the lost device ids after a shard
    #: reroute, so shard maps rebalance (and the catalog version bumps).
    rebalance: Optional[Callable[[list], None]] = None
    query_id: str = ""

    def __call__(self, left: Table, right: Table, node: JoinNode,
                 ctx: OperatorContext) -> Table:
        probe_rows = left.num_rows
        build_rows = right.num_rows
        if probe_rows < self.thresholds.t1_min_rows or build_rows == 0:
            self._record("cpu-small",
                         f"probe side {probe_rows} rows below T1")
            return cpu_join_executor(left, right, node, ctx)

        build_col = right.column(node.right_key)
        probe_col = left.column(node.left_key)
        build_keys, probe_keys = _aligned_keys(build_col, probe_col)
        if group_encode([build_keys])[2] != len(build_keys):
            self._record("cpu-small",
                         "build keys not unique: many-to-many stays on CPU")
            return cpu_join_executor(left, right, node, ctx)

        kernel = HashJoinKernel(ctx.config.cost)
        if self.shard_enabled and self.interconnect is not None:
            num_cols = left.num_columns + right.num_columns
            plan = self._plan_shard_join(probe_rows, build_rows, kernel,
                                         ctx, left.name, num_cols=num_cols)
            sharded = select_sharded_path(operator="join", plan=plan,
                                          tracer=self._tracer)
            if sharded.shard:
                left_idx, right_idx = self._run_sharded_probe(
                    build_keys, probe_keys, kernel, ctx, plan,
                    num_cols=num_cols)
                # Each shard gathers its joined columns on-device (the
                # scale-out data path, priced in the shard kernels); the
                # host only assembles the match index vectors.
                ctx.ledger.cpu(
                    "JOIN-MAT", len(left_idx),
                    len(left_idx) * 8 / ctx.config.cost.cpu_memcpy_rate,
                    max_degree=ctx.degree)
                return _assemble(left, right, node.left_key, node.right_key,
                                 left_idx, right_idx)

        # BLU-encoded transfers: build keys as 8-byte words, probe keys as
        # packed 4-byte codes; the kernel returns a compact 4-byte match
        # row id per probe hit.
        staged = build_rows * 8 + probe_rows * 4
        result_bytes = probe_rows * 4
        memory_needed = (staged + result_bytes
                         + kernel.table_bytes(build_rows))
        version = self.catalog.version if self.catalog is not None else 0
        segments = [
            StagedSegment(
                key=SegmentKey(
                    table=right.name, column=node.right_key,
                    segment="join-build:" + content_digest(build_keys),
                    catalog_version=version,
                ),
                nbytes=build_rows * 8,
            ),
            StagedSegment(
                key=SegmentKey(
                    table=left.name, column=node.left_key,
                    segment="join-probe:" + content_digest(probe_keys),
                    catalog_version=version,
                ),
                nbytes=probe_rows * 4,
            ),
        ]
        lease = self.scheduler.try_acquire(
            memory_needed, tag="join",
            affinity=[s.key for s in segments])
        if lease is None:
            self._record("cpu-fallback",
                         f"no GPU could reserve {memory_needed} bytes")
            return cpu_join_executor(left, right, node, ctx)

        cache = lease.device.cache
        hit_bytes = 0
        missed: list[StagedSegment] = []
        if cache is not None and cache.enabled:
            for segment in segments:
                if cache.lookup(segment.key):
                    hit_bytes += segment.nbytes
                else:
                    missed.append(segment)
        transfer = effective_transfer_bytes(staged, hit_bytes)
        try:
            try:
                result = kernel.run(build_keys, probe_keys)
            except GpuError:
                self._record("cpu-fallback", "kernel rejected the join")
                return cpu_join_executor(left, right, node, ctx)
            launch = streamed_launch(
                lease.device, self.pinned,
                kernel=result.kernel,
                kernel_seconds=result.kernel_seconds,
                reservation=lease.reservation,
                rows=probe_rows,
                bytes_in=transfer,
                bytes_out=len(result.left_idx) * 4,
                pinned=True,
                pipeline=self.pipeline,
            )
            ctx.ledger.add(CostEvent(
                op="GPU-JOIN",
                rows=probe_rows,
                cpu_seconds=_DISPATCH_SECONDS,
                max_degree=1,
                gpu_seconds=launch.total_seconds,
                gpu_memory_bytes=lease.reservation.nbytes,
                device_id=lease.device.device_id,
            ))
            # Host-side materialisation of the joined columns.
            materialise = (len(result.left_idx)
                           * (left.num_columns + right.num_columns)
                           / ctx.config.cost.cpu_decode_rate)
            ctx.ledger.cpu("JOIN-MAT", len(result.left_idx), materialise,
                           max_degree=ctx.degree)
        except PinnedMemoryError as exc:
            # Host-side staging exhaustion: no device misbehaved, so the
            # circuit breaker stays out of it.
            if self.monitor is not None:
                self.monitor.record_fault_fallback("join", exc)
            self._record("cpu-fallback", "pinned staging pool exhausted")
            return cpu_join_executor(left, right, node, ctx)
        except GpuError as exc:
            # Launch failure or device loss on the leased device: feed the
            # breaker and redo the join on the stock CPU operator.
            self.scheduler.record_failure(lease)
            if self.monitor is not None:
                self.monitor.record_fault_fallback(
                    "join", exc, lease.device.device_id)
            self._record("cpu-fallback", f"gpu failure: {exc}")
            return cpu_join_executor(left, right, node, ctx)
        else:
            self.scheduler.record_success(lease)
        finally:
            self.scheduler.release(lease)

        if cache is not None and cache.enabled:
            for segment in missed:
                cache.insert(segment.key, segment.nbytes)

        self._record("gpu", f"offloaded FK join: {probe_rows} probe rows, "
                            f"{build_rows} build rows")
        return _assemble(left, right, node.left_key, node.right_key,
                         result.left_idx, result.right_idx)

    # ------------------------------------------------------------------
    # Extension: sharded N-device execution (docs/scale_out.md)
    # ------------------------------------------------------------------

    def _plan_shard_join(self, probe_rows: int, build_rows: int,
                         kernel: HashJoinKernel, ctx: OperatorContext,
                         table_name: str,
                         num_cols: int = 0) -> Optional[ShardPlan]:
        """Price range-sharding the probe side across healthy devices.

        The build side broadcasts whole to every shard (each device
        builds the full hash table), so its staging and build-insert
        time ride the replicated terms of :func:`plan_sharded`; only
        the probe stream divides — including the on-device gather of
        the joined columns (``num_cols``), the work the classic path
        leaves to the host materialiser.  No exchange crosses the
        interconnect: matches are emitted in probe order, so the merge
        is an order-preserving concatenation priced as a host memcpy.
        """
        devices = home_devices(self.scheduler, self.catalog, table_name)
        if len(devices) < 2:
            return None
        cost = ctx.config.cost
        probe_kernel = (probe_rows / cost.gpu_ht_probe_rate
                        + probe_rows * 4 / cost.gpu_init_rate
                        + probe_rows * num_cols / cost.gpu_gather_rate)
        table_bytes = kernel.table_bytes(build_rows)
        replicated = (build_rows / cost.gpu_ht_insert_rate
                      + table_bytes / cost.gpu_init_rate)
        cpu_core = (build_rows / cost.cpu_join_build_rate
                    + probe_rows / cost.cpu_join_probe_rate
                    + probe_rows * num_cols / cost.cpu_decode_rate)
        capacity = max(1.0, ctx.config.host.effective_capacity(ctx.degree))
        return plan_sharded(
            operator="join",
            rows=probe_rows,
            staged_bytes=probe_rows * 4,
            result_bytes=probe_rows * 4,
            kernel_seconds=probe_kernel,
            exchange_bytes=0,
            merge_core_seconds=probe_rows * 8 / cost.cpu_memcpy_rate,
            devices=devices,
            cost=cost,
            spec=self.scheduler.devices[0].spec,
            host=ctx.config.host,
            degree=ctx.degree,
            interconnect=self.interconnect,
            cpu_seconds=cpu_core / capacity,
            broadcast_bytes=build_rows * 8,
            replicated_kernel_seconds=replicated,
        )

    def _run_sharded_probe(self, build_keys: np.ndarray,
                           probe_keys: np.ndarray, kernel: HashJoinKernel,
                           ctx: OperatorContext, plan: ShardPlan,
                           num_cols: int = 0,
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Probe as contiguous range shards, build broadcast to each.

        The kernel emits matches in ascending probe order, so the
        ordered concatenation of per-shard matches is bit-identical to
        probing whole, for any shard count and fault mix.  Each shard
        also gathers its ``num_cols`` joined columns on-device (the
        scale-out data path — the classic path's host materialiser is
        the single biggest non-scaling residue, so the work moves onto
        the devices it divides across).  A shard whose home device dies
        reroutes to any admissible device, then to a host-side probe of
        the same build table; the loss triggers the engine's shard-map
        rebalance afterwards.
        """
        cost = ctx.config.cost
        probe_rows = len(probe_keys)
        build_rows = len(build_keys)
        build_bytes = build_rows * 8
        shards = plan.shards
        self._record("gpu-sharded", plan.reason)
        bounds = range_shard_bounds(probe_rows, shards)
        legs = self.interconnect.wave_legs([
            (plan.devices[s % len(plan.devices)],
             build_bytes + int(bounds[s + 1] - bounds[s]) * 4)
            for s in range(shards)
        ])

        stream = PartitionStreamState()
        device_seq: dict[int, int] = {}
        group_base = next(_PARALLEL_GROUP_IDS)
        gpu_events: list[CostEvent] = []
        tracer = self._tracer
        gpu_shards = cpu_shards = rerouted = 0
        lost_devices: set[int] = set()
        left_parts: list[np.ndarray] = []
        right_parts: list[np.ndarray] = []
        for s in range(shards):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            if hi <= lo:
                continue
            sub = probe_keys[lo:hi]
            staged_s = build_bytes + len(sub) * 4
            memory_needed = (staged_s + len(sub) * 4
                             + kernel.table_bytes(build_rows))
            home = plan.devices[s % len(plan.devices)]
            matched = None
            device_id = -1
            for attempt in range(2):
                prefer = home if attempt == 0 else None
                lease = self.scheduler.try_acquire(
                    memory_needed, tag="join-shard", prefer_device=prefer)
                if lease is None:
                    break
                try:
                    result = kernel.run(build_keys, sub)
                    # On-device gather of the joined columns for this
                    # shard's matches rides the kernel slice.
                    gather_seconds = (len(result.left_idx) * num_cols
                                      / cost.gpu_gather_rate)
                    launch = streamed_launch(
                        lease.device, self.pinned,
                        kernel=result.kernel,
                        kernel_seconds=(result.kernel_seconds
                                        + gather_seconds),
                        reservation=lease.reservation,
                        rows=len(sub),
                        bytes_in=staged_s,
                        bytes_out=len(result.left_idx) * 4,
                        pinned=True,
                        pipeline=self.pipeline,
                    )
                    device_id = lease.device.device_id
                    stall = legs[s].stall_seconds
                    self.interconnect.record_transfer(
                        device_id, staged_s,
                        launch.transfer_in_seconds + stall, stall)
                    self.interconnect.record_transfer(
                        device_id, len(result.left_idx) * 4,
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
                        op="GPU-JOIN", rows=len(sub),
                        cpu_seconds=_DISPATCH_SECONDS, max_degree=1,
                        gpu_seconds=exposed,
                        gpu_memory_bytes=lease.reservation.nbytes,
                        device_id=device_id,
                        parallel_group=group_base + seq,
                    ))
                    matched = (lo + result.left_idx, result.right_idx)
                except PinnedMemoryError as exc:
                    if self.monitor is not None:
                        self.monitor.record_fault_fallback("join", exc)
                    break
                except GpuError as exc:
                    # Only this shard reroutes: feed the breaker, then
                    # retry on any other admissible device before the
                    # host probe.
                    self.scheduler.record_failure(lease)
                    if not lease.device.alive:
                        lost_devices.add(lease.device.device_id)
                    if self.monitor is not None:
                        self.monitor.record_fault_fallback(
                            "join", exc, lease.device.device_id)
                    rerouted += 1
                    continue
                else:
                    self.scheduler.record_success(lease)
                    break
                finally:
                    self.scheduler.release(lease)
            if matched is None:
                cpu_shards += 1
                target, device_id = "cpu", -1
                # The reroute of last resort: the kernel's contract (ascending
                # probe rows, each hit's unique build row) on the host.
                left_local, right_local = match_rows(build_keys, sub)
                matched = (lo + left_local, right_local)
                ctx.ledger.cpu(
                    "JOIN-PROBE", len(sub),
                    build_rows / cost.cpu_join_build_rate
                    + len(sub) / cost.cpu_join_probe_rate
                    + len(matched[0]) * num_cols / cost.cpu_decode_rate,
                    max_degree=ctx.degree)
            else:
                gpu_shards += 1
                target = "gpu"
            if tracer is not None:
                tracer.instant(
                    "shard.part", operator="join", index=s,
                    rows=hi - lo, target=target, device_id=device_id,
                    query_id=self.query_id,
                )
            left_parts.append(matched[0])
            right_parts.append(matched[1])

        gpu_events.sort(key=lambda e: e.parallel_group)
        ctx.ledger.extend(gpu_events)

        # The merge: matches arrive in ascending probe order per shard
        # and shards are contiguous slices, so concatenation preserves
        # the whole-probe order exactly — one host memcpy.
        left_idx = (np.concatenate(left_parts) if left_parts
                    else np.empty(0, dtype=np.int64))
        right_idx = (np.concatenate(right_parts) if right_parts
                     else np.empty(0, dtype=np.int64))
        merge_core = probe_rows * 8 / cost.cpu_memcpy_rate
        ctx.ledger.cpu("SHARD-MERGE", probe_rows, merge_core,
                       max_degree=ctx.degree)
        if lost_devices and self.rebalance is not None:
            self.rebalance(sorted(lost_devices))
        if tracer is not None:
            tracer.instant(
                "shard.exec", operator="join", shards=shards,
                gpu_shards=gpu_shards, cpu_shards=cpu_shards,
                rerouted=rerouted, devices=list(plan.devices),
                rows=probe_rows, groups=0,
                merge_seconds=merge_core / max(
                    1.0, ctx.config.host.effective_capacity(ctx.degree)),
                exchange_seconds=0.0, exchange_bytes=0,
                stall_seconds=sum(leg.stall_seconds for leg in legs),
                nvlink=self.interconnect.nvlink_enabled,
                query_id=self.query_id,
            )
        return left_idx, right_idx

    @property
    def _tracer(self):
        return self.monitor.tracer if self.monitor is not None else None

    def _record(self, path: str, reason: str) -> None:
        if self.monitor is None:
            return
        self.monitor.tracer.instant(
            "offload.decision", operator="join", path=path, reason=reason,
            query_id=self.query_id,
        )
        self.monitor.record_decision(OffloadDecision(
            query_id=self.query_id, operator="join", path=path,
            reason=reason,
        ))
