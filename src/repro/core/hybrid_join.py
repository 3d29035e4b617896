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

import functools
from dataclasses import dataclass

import numpy as np

from repro.blu.engine import OperatorContext, cpu_join_executor
from repro.blu.operators.aggregate import group_encode
from repro.blu.operators.join import _aligned_keys, _assemble, match_rows
from repro.blu.plan import JoinNode
from repro.blu.table import Table
from repro.config import Thresholds
from repro.core.dispatch import Declined, Dispatcher, Kernel, Piece
from repro.errors import GpuError
from repro.gpu.cache import SegmentKey, StagedSegment, content_digest
from repro.gpu.kernels.join import HashJoinKernel, JoinKernelResult
from repro.gpu.partition import PieceTerms, SplitPlan, SplitTerms
from repro.gpu.shard import range_shard_bounds


@dataclass
class HybridJoinExecutor:
    """Pluggable join executor that may offload FK joins to a GPU.

    When the dispatcher says a split in space pays (docs/scale_out.md)
    the probe side range-shards across the healthy devices with the
    build side broadcast.
    """

    dispatch: Dispatcher
    thresholds: Thresholds

    def __call__(self, left: Table, right: Table, node: JoinNode,
                 ctx: OperatorContext) -> Table:
        dispatch = self.dispatch
        probe_rows = left.num_rows
        build_rows = right.num_rows
        if probe_rows < self.thresholds.t1_min_rows or build_rows == 0:
            dispatch.record("join", "cpu-small",
                            f"probe side {probe_rows} rows below T1"
                            if build_rows else "build side is empty")
            return cpu_join_executor(left, right, node, ctx)

        build_col = right.column(node.right_key)
        probe_col = left.column(node.left_key)
        build_keys, probe_keys = _aligned_keys(build_col, probe_col)
        if group_encode([build_keys])[2] != len(build_keys):
            dispatch.record(
                "join", "cpu-small",
                "build keys not unique: many-to-many stays on CPU")
            return cpu_join_executor(left, right, node, ctx)

        kernel = HashJoinKernel(ctx.config.cost)
        num_cols = left.num_columns + right.num_columns
        plan, _ = dispatch.split(
            "join", ctx, lambda: shard_terms(
                probe_rows, build_rows, kernel.table_bytes(build_rows),
                num_cols, ctx),
            across=left.name)
        if plan is not None:
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
        version = dispatch.catalog_version

        def segments() -> list[StagedSegment]:
            return [
                build_segment(right, node.right_key, build_keys, version),
                StagedSegment(
                    key=SegmentKey(table=left.name, column=node.left_key,
                                   segment="join-probe:"
                                   + content_digest(probe_keys),
                                   catalog_version=version),
                    nbytes=probe_rows * 4),
            ]

        def run(_bytes_in: int) -> Kernel:
            try:
                return _probe_kernel(kernel.run(build_keys, probe_keys))
            except GpuError:
                raise Declined("kernel rejected the join") from None

        piece = Piece(
            rows=probe_rows,
            memory=(staged + probe_rows * 4
                    + kernel.table_bytes(build_rows)),
            tag="join", staged=staged, segments=segments, run=run,
        )
        result = dispatch.launch("join", ctx, piece)
        if result is None:
            # No room, a rejected input or a failed launch: redo the
            # join on the stock CPU operator.
            dispatch.record("join", "cpu-fallback", piece.fallback)
            return cpu_join_executor(left, right, node, ctx)

        # Host-side materialisation of the joined columns.
        materialise = (len(result.left_idx)
                       * (left.num_columns + right.num_columns)
                       / ctx.config.cost.cpu_decode_rate)
        ctx.ledger.cpu("JOIN-MAT", len(result.left_idx), materialise,
                       max_degree=ctx.degree)
        dispatch.record("join", "gpu",
                        f"offloaded FK join: {probe_rows} probe rows, "
                        f"{build_rows} build rows")
        return _assemble(left, right, node.left_key, node.right_key,
                         result.left_idx, result.right_idx)

    # ------------------------------------------------------------------
    # Extension: sharded N-device execution (docs/scale_out.md)
    # ------------------------------------------------------------------

    def _run_sharded_probe(self, build_keys: np.ndarray,
                           probe_keys: np.ndarray, kernel: HashJoinKernel,
                           ctx: OperatorContext, plan: SplitPlan,
                           num_cols: int = 0,
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Probe as contiguous range shards, build broadcast to each.

        The host builds and probes once, when the first shard reaches a
        device; each shard takes its row range of that one result, priced
        as its own build and probe (:meth:`JoinKernelResult.shard`).  The
        kernel emits matches in ascending probe order, so the ordered
        concatenation of per-shard matches is bit-identical to probing
        whole, for any shard count and fault mix.  Each shard also
        gathers its ``num_cols`` joined columns on-device (the
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
        shards = plan.pieces
        self.dispatch.record("join", plan.path, plan.reason)
        bounds = range_shard_bounds(probe_rows, shards)
        whole = functools.cache(lambda: kernel.run(build_keys, probe_keys))

        left_parts: list[np.ndarray] = []
        right_parts: list[np.ndarray] = []
        with self.dispatch.wave(
                "join", ctx, plan,
                [build_bytes + int(n) * 4 for n in np.diff(bounds)]) as wave:
            for s in range(shards):
                lo, hi = int(bounds[s]), int(bounds[s + 1])
                if hi <= lo:
                    continue
                sub = probe_keys[lo:hi]
                staged = build_bytes + len(sub) * 4
                result = wave.launch(Piece(
                    rows=len(sub),
                    memory=(staged + len(sub) * 4
                            + kernel.table_bytes(build_rows)),
                    tag="join-shard", staged=staged, index=s,
                    run=lambda _bytes_in: _probe_kernel(
                        whole().shard(lo, hi), gather_cols=num_cols),
                ))
                if result is not None:
                    left_parts.append(lo + result.left_idx)
                    right_parts.append(result.right_idx)
                    continue
                # The reroute of last resort: the kernel's contract
                # (ascending probe rows, each hit's unique build row) on
                # the host.
                left_local, right_local = match_rows(build_keys, sub)
                left_parts.append(lo + left_local)
                right_parts.append(right_local)
                ctx.ledger.cpu(
                    "JOIN-PROBE", len(sub),
                    build_rows / cost.cpu_join_build_rate
                    + len(sub) / cost.cpu_join_probe_rate
                    + len(left_local) * num_cols / cost.cpu_decode_rate,
                    max_degree=ctx.degree)

        # The merge: matches arrive in ascending probe order per shard
        # and shards are contiguous slices, so concatenation preserves
        # the whole-probe order exactly — one host memcpy.
        left_idx = (np.concatenate(left_parts) if left_parts
                    else np.empty(0, dtype=np.int64))
        right_idx = (np.concatenate(right_parts) if right_parts
                     else np.empty(0, dtype=np.int64))
        merge_core = _merge_core_seconds(probe_rows, cost)
        ctx.ledger.cpu("SHARD-MERGE", probe_rows, merge_core,
                       max_degree=ctx.degree)
        wave.report(
            rows=probe_rows,
            merge_seconds=ctx.wall_seconds(merge_core))
        return left_idx, right_idx


def build_segment(table: Table, column: str, keys: np.ndarray,
                  version: int) -> StagedSegment:
    """The cacheable build side of a join: its aligned keys as 8-byte
    words.  The fused chain stages its build keys under the same key, so
    the two paths share cache entries."""
    return StagedSegment(
        key=SegmentKey(table=table.name, column=column,
                       segment="join-build:" + content_digest(keys),
                       catalog_version=version),
        nbytes=table.num_rows * 8,
    )


def _merge_core_seconds(probe_rows: int, cost) -> float:
    """Core seconds of concatenating the shards' match vectors (one host
    memcpy), predicted and charged alike."""
    return probe_rows * 8 / cost.cpu_memcpy_rate


def shard_terms(probe_rows: int, build_rows: int, table_bytes: int,
                num_cols: int, ctx: OperatorContext) -> SplitTerms:
    """An FK join as probe-side range shards in space.

    The build side broadcasts whole to every shard (each device builds
    the full hash table), so its staging and build-insert time ride
    every piece undivided; only the probe stream divides — including the
    on-device gather of the joined columns (``num_cols``), the work the
    classic path leaves to the host materialiser.  No exchange crosses
    the interconnect: matches are emitted in probe order, so the merge
    is an order-preserving concatenation priced as a host memcpy.
    """
    cost = ctx.config.cost
    probe_kernel = (probe_rows / cost.gpu_ht_probe_rate
                    + probe_rows * 4 / cost.gpu_init_rate
                    + probe_rows * num_cols / cost.gpu_gather_rate)
    replicated = (build_rows / cost.gpu_ht_insert_rate
                  + table_bytes / cost.gpu_init_rate)
    cpu_core = (build_rows / cost.cpu_join_build_rate
                + probe_rows / cost.cpu_join_probe_rate
                + probe_rows * num_cols / cost.cpu_decode_rate)

    def piece(pieces: int) -> PieceTerms:
        return PieceTerms(
            staged_bytes=-(-probe_rows * 4 // pieces) + build_rows * 8,
            result_bytes=-(-probe_rows * 4 // pieces),
            kernel=(probe_kernel / pieces, replicated),
            merge_seconds=ctx.wall_seconds(
                _merge_core_seconds(probe_rows, cost)),
        )

    return SplitTerms(rows=probe_rows, piece=piece,
                      cpu_seconds=ctx.wall_seconds(cpu_core))


def _probe_kernel(result: JoinKernelResult, gather_cols: int = 0) -> Kernel:
    """A join result as a launch; one compact 4-byte match row id per hit.

    A shard also gathers its ``gather_cols`` joined columns on-device,
    which rides the kernel slice; the classic path gathers none (its
    host materialiser does that work).
    """
    gather_seconds = (len(result.left_idx) * gather_cols
                      / result.build.cost.gpu_gather_rate)
    return Kernel(result.kernel, result.kernel_seconds + gather_seconds,
                  len(result.left_idx) * 4, outcome=result)
