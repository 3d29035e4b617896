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
from typing import Optional, Sequence

import numpy as np

from repro.blu.engine import OperatorContext, cpu_sort_executor
from repro.blu.plan import SortKey, SortNode
from repro.blu.table import Table
from repro.config import Thresholds
from repro.core.dispatch import Dispatcher, Kernel, Piece
from repro.core.pathselect import select_sort_offload
from repro.gpu.cache import SegmentKey, StagedSegment, content_digest
from repro.gpu.kernels.radix_sort import (RadixSortKernel,
                                          find_duplicate_ranges)
from repro.gpu.partition import PieceTerms, SplitPlan, SplitTerms
from repro.gpu.shard import range_shard_bounds
from repro.timing import CostEvent


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
    """The 4-byte partial key of each row at ``offset`` (zero past the end):
    every encoded key is 4 or 8 bytes wide and every offset a multiple of 4,
    so it is one big-endian word of the row — one gather."""
    if offset >= encoded.shape[1]:
        return np.zeros(len(rows), dtype=np.uint32)
    return encoded.view(">u4")[rows, offset // 4].astype(np.uint32)


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
    """What the hybrid sort did (for tests and monitoring).

    ``fallbacks`` counts GPU-sized work that *ended on the host* — a
    job, slice, shard or segmented generation — not the faults met on
    the way (``repro_fault_fallbacks_total``, ``shard.exec rerouted``).
    """

    jobs_total: int = 0
    jobs_gpu: int = 0
    jobs_cpu: int = 0
    duplicate_jobs: int = 0
    fallbacks: int = 0
    partitioned_jobs: int = 0
    sharded_jobs: int = 0


@dataclass
class HybridSortExecutor:
    """Pluggable sort executor implementing the section-3 design.

    Past the paper's job queue it asks the dispatcher whether a large
    job should range-shard across every healthy device
    (docs/scale_out.md) and whether a job no card can hold whole should
    stream through the devices as slices (docs/out_of_core.md).
    """

    dispatch: Dispatcher
    thresholds: Thresholds
    last_stats: SortRunStats = field(default_factory=SortRunStats)

    def __call__(self, table: Table, node: SortNode,
                 ctx: OperatorContext) -> Table:
        rows = table.num_rows
        if not self._offloads(rows):
            return cpu_sort_executor(table, node, ctx)
        order = self._hybrid_sort(table, node.keys, ctx, "hybrid sort")
        return table.take(order, name=f"{table.name}_sorted")

    def rank_order(self, table: Table, keys: Sequence[SortKey],
                   ctx: OperatorContext) -> Optional[np.ndarray]:
        """The row order a RANK() window needs, via the hybrid sort.

        Same gate and job queue as ``__call__`` but returns the bare
        permutation instead of a materialised table — the window
        operator scatters ranks through it.  Below the offload
        threshold it returns ``None``, and the window runs its stock
        CPU sort and charge.
        """
        if not self._offloads(table.num_rows):
            return None
        return self._hybrid_sort(table, keys, ctx, "hybrid rank sort")

    def _offloads(self, rows: int) -> bool:
        """The sort offload gate; records the verdict when it says no."""
        dispatch = self.dispatch
        if (select_sort_offload(rows, self.thresholds,
                                tracer=dispatch.tracer)
                and dispatch.scheduler.device_count):
            return True
        dispatch.record("sort", "cpu-small",
                        f"{rows} rows below sort offload threshold")
        return False

    # ------------------------------------------------------------------

    def _hybrid_sort(self, table: Table, keys: Sequence[SortKey],
                     ctx: OperatorContext, label: str) -> np.ndarray:
        cost = ctx.config.cost
        radix = RadixSortKernel(cost)
        encoded = encode_sort_keys(table, keys)
        total_bytes = encoded.shape[1]
        n = table.num_rows
        order = np.arange(n, dtype=np.int64)
        stats = SortRunStats()

        dispatch = self.dispatch
        tracer = dispatch.tracer
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
                    result = self._gpu_sort_job(
                        partial, rows_idx, radix, ctx, stats, table.name,
                        keys_label)
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
        self.last_stats = stats
        dispatch.record("sort", "gpu", f"{label}: {stats.jobs_gpu} GPU / "
                                       f"{stats.jobs_cpu} CPU jobs")
        dispatch.monitor.record_sort_stats(stats)
        return order

    def _gpu_sort_job(self, partial: np.ndarray, rows_idx: np.ndarray,
                      radix: RadixSortKernel, ctx: OperatorContext,
                      stats: SortRunStats, table_name: str, keys_label: str):
        """Dispatch one job to the GPUs; None means fall back to the CPU.

        In order of preference: range shards across the healthy devices,
        whole on one device, or — when no card could ever hold it whole,
        the sort-side T3 cliff — sliced through the devices.
        """
        dispatch = self.dispatch
        length = len(partial)
        plan, _ = dispatch.split(
            "sort", ctx, lambda: shard_terms(length, ctx),
            across=table_name)
        if plan is not None:
            return self._split_sort_job(partial, radix, ctx, stats, plan)
        memory_needed = radix.device_bytes(length)
        if not dispatch.scheduler.fits_any_device(memory_needed):
            plan, _ = dispatch.split(
                "sort", ctx, lambda: slice_terms(
                    length, radix, dispatch.device_capacity, ctx))
            if plan is not None:
                return self._split_sort_job(partial, radix, ctx, stats, plan)
            # Slicing is off, impossible or would not win: CPU sort.
            stats.fallbacks += 1
            return None
        result = dispatch.launch("sort", ctx, Piece(
            rows=length, memory=memory_needed, tag="sort",
            staged=length * 8,         # key + payload pairs
            # A job is identified by its exact key/payload pairs: the
            # same slice of the same data sorted again (a repeated ORDER
            # BY across the query stream) hits.  Only this whole-job
            # branch looks the key up, so only it digests.
            segments=lambda: [StagedSegment(
                key=SegmentKey(
                    table=table_name, column=keys_label,
                    segment="sort:" + content_digest(partial, rows_idx),
                    catalog_version=dispatch.catalog_version,
                ),
                nbytes=length * 8,
            )],
            run=lambda _bytes_in: _radix_kernel(radix, partial),
        ))
        if result is None:
            stats.fallbacks += 1
            return None
        stats.jobs_gpu += 1
        return result.order, (result.duplicate_starts,
                              result.duplicate_lengths)

    # ------------------------------------------------------------------
    # Extensions: over-memory jobs as slices in time (docs/out_of_core.md)
    # and large jobs as range shards in space (docs/scale_out.md)
    # ------------------------------------------------------------------

    def _split_sort_job(self, partial: np.ndarray, radix: RadixSortKernel,
                        ctx: OperatorContext, stats: SortRunStats,
                        plan: SplitPlan):
        """One job as contiguous slices that radix-sort independently.

        Each slice sorts on a device when one has room, on the host when
        not or when a launch faults; then one stable argsort over the
        concatenated slice-sorted keys merges the runs.  Slices are
        contiguous ascending index ranges, so for equal keys the merge
        keeps lower-slice (= lower-index) rows first: the merged order
        equals a single global stable sort bit-for-bit, for any slice
        count and any mix of per-slice faults.

        A plan in time streams device-sized slices of an over-memory
        job back-to-back; a plan in space — one that names home devices
        — gives every healthy device one range shard, its H2D leg priced
        at the switch-contended bandwidth.
        """
        cost = ctx.config.cost
        rows = len(partial)
        sharded = bool(plan.devices)
        pieces = plan.pieces
        self.dispatch.record("sort", plan.path, plan.reason)
        bounds = range_shard_bounds(rows, pieces)
        piece_bytes = [int(n) * 8 for n in np.diff(bounds)]
        runs: list[np.ndarray] = []
        with self.dispatch.wave("sort", ctx, plan, piece_bytes) as wave:
            for p in range(pieces):
                lo, hi = int(bounds[p]), int(bounds[p + 1])
                if hi <= lo:
                    continue
                sub = partial[lo:hi]
                result = wave.launch(Piece(
                    rows=len(sub), memory=radix.device_bytes(len(sub)),
                    tag="sort-shard" if sharded else "sort-part",
                    staged=len(sub) * 8, index=p,
                    run=lambda _bytes_in: _radix_kernel(radix, sub),
                ))
                if result is not None:
                    runs.append(lo + result.order)
                    continue
                # The slice (not the whole job) degrades to the host.
                stats.fallbacks += 1
                runs.append(lo + np.argsort(sub, kind="stable"))
                if len(sub) > 1:
                    ctx.ledger.add(CostEvent(
                        op="SORT", rows=len(sub),
                        cpu_seconds=_merge_core_seconds(len(sub), len(sub),
                                                        cost),
                        max_degree=min(ctx.degree, 8),
                    ))

        # The k-way merge: one stable argsort over the concatenated
        # slice-sorted keys (runs are already sorted, priced at
        # rows * log2(k) comparisons like the CPU sort model).
        run_order = np.concatenate(runs)
        merge_perm = np.argsort(partial[run_order], kind="stable")
        sub_order = run_order[merge_perm]
        merge_core_seconds = _merge_core_seconds(rows, pieces, cost)
        if merge_core_seconds:
            # Merge-path partitioning splits a shard merge into
            # independent output ranges, so it runs at full degree
            # (unlike the single-queue partitioned merge).
            ctx.ledger.add(CostEvent(
                op="SORT-MERGE", rows=rows, cpu_seconds=merge_core_seconds,
                max_degree=min(ctx.degree, 48 if sharded else 8),
            ))
        wave.report(rows=rows, merge_seconds=plan.merge_seconds)
        stats.jobs_gpu += 1
        if sharded:
            stats.sharded_jobs += 1
        else:
            stats.partitioned_jobs += 1
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
        boundaries, so the plan carries zero exchange and zero merge —
        the shard wave is merge-free per-device legs.
        """
        cost = ctx.config.cost
        dispatch = self.dispatch
        scheduler = dispatch.scheduler

        def piece(n: int, tag: str, index: int = 0) -> Piece:
            return Piece(
                rows=n, memory=radix.device_bytes(n), tag=tag,
                staged=n * 8, index=index,
                run=lambda _bytes_in: Kernel(
                    radix.name, _radix_seconds(n, cost), n * 8,
                    outcome=True),
            )

        def host_sort(n: int, rows_per_segment: int) -> None:
            ctx.ledger.cpu(
                "SORT", n, _segment_sort_seconds(n, rows_per_segment, cost),
                min(ctx.degree, 48))
            stats.fallbacks += 1

        plan, _ = dispatch.split(
            "sort", ctx, lambda: shard_terms(rows, ctx, segments),
            across=table_name)
        if plan is not None:
            shards = plan.pieces
            sizes = np.diff(range_shard_bounds(rows, shards)).tolist()
            with dispatch.wave("sort", ctx, plan,
                               [n * 8 for n in sizes]) as wave:
                for s, rows_s in enumerate(sizes):
                    if rows_s <= 0:
                        continue
                    if wave.launch(piece(rows_s, "sort-shard", s)) is None:
                        # This shard's segments sort on the host workers.
                        host_sort(rows_s,
                                  rows_s // max(1, segments // shards))
            # Segment boundaries split it: no exchange and no merge.
            wave.report(rows=rows, merge_seconds=0.0)
            stats.jobs_gpu += 1
            stats.sharded_jobs += 1
            return

        placed = None
        if (scheduler.device_count and scheduler.fits_any_device(
                radix.device_bytes(rows))):
            placed = dispatch.launch("sort", ctx, piece(rows, "sort"))
        if placed is None:
            host_sort(rows, rows // segments)
            stats.jobs_cpu += 1
        else:
            stats.jobs_gpu += 1


def _comparison_seconds(rows: int, fanout: int, cost) -> float:
    """Core seconds of ``rows * log2(fanout)`` host comparisons."""
    return rows * math.log2(fanout) / (cost.cpu_sort_rate * 16)


def _merge_core_seconds(rows: int, runs: int, cost) -> float:
    """Core seconds of the k-way merge of ``runs`` sorted runs holding
    ``rows`` rows between them, predicted and charged alike — a full
    host sort when every row is its own run."""
    return _comparison_seconds(rows, runs, cost) if rows > 1 else 0.0


def _segment_sort_seconds(rows: int, rows_per_segment: int, cost) -> float:
    """Core seconds of sorting a generation's segments on the host
    workers, pooled — the segmented wave's CPU rival and what a piece
    that ends on the host is charged."""
    return _comparison_seconds(rows, max(2, rows_per_segment), cost)


def slice_terms(rows: int, radix: RadixSortKernel, capacity_bytes: int,
                ctx: OperatorContext) -> SplitTerms:
    """An over-memory sort job as contiguous slices in time.

    Each slice radix-sorts on a device independently and the slices
    k-way merge on the host (stable, so the merged order equals one
    global stable sort); the merge is priced like the CPU sort's
    comparison model over ``rows * log2(slices)``, on the same single
    queue as the CPU rival.
    """
    cost = ctx.config.cost
    per_row = radix.device_bytes(1)
    working_set = rows * per_row

    def piece(pieces: int) -> PieceTerms:
        rows_p = -(-rows // pieces)
        return PieceTerms(
            staged_bytes=rows_p * 8, result_bytes=rows_p * 8,
            kernel=(rows_p / cost.gpu_radix_sort_rate,
                    rows_p / cost.gpu_scan_rate),
            merge_seconds=ctx.wall_seconds(
                _merge_core_seconds(rows, pieces, cost), 8),
            reason=(f"sort job ~{working_set} device bytes > "
                    f"{capacity_bytes}: {pieces} slices of ~{rows_p} "
                    "rows, k-way merged"),
        )

    return SplitTerms(
        rows=rows, piece=piece,
        cpu_seconds=ctx.wall_seconds(
            _merge_core_seconds(rows, rows, cost), 8),
        working_set_bytes=working_set,
        fits=lambda pieces: -(-rows // pieces) * per_row <= capacity_bytes,
        floor=-(-working_set // max(1, capacity_bytes)),
    )


def shard_terms(rows: int, ctx: OperatorContext,
                segments: Optional[int] = None) -> SplitTerms:
    """A sort job — or, with ``segments``, one segmented generation — as
    range shards in space.

    Range shards are contiguous slices, so no exchange crosses the
    interconnect.  A job's runs meet again in the host-side k-way stable
    merge, which is what its merge term prices, and its CPU rival is the
    single-queue sort.  A generation splits on segment boundaries:
    segments never interact, so it carries zero merge, and its CPU rival
    pools every segment across the worker threads.
    """
    cost = ctx.config.cost
    kernel_seconds = _radix_seconds(rows, cost)
    if segments is None:
        cpu_seconds = ctx.wall_seconds(
            _merge_core_seconds(rows, rows, cost), 8)
    else:
        cpu_seconds = ctx.wall_seconds(
            _segment_sort_seconds(rows, rows // segments, cost), 48)

    def piece(pieces: int) -> PieceTerms:
        merge_core_seconds = 0.0
        if segments is None:
            merge_core_seconds = _merge_core_seconds(rows, pieces, cost)
        return PieceTerms(
            staged_bytes=-(-rows * 8 // pieces),
            result_bytes=-(-rows * 8 // pieces),
            kernel=(kernel_seconds / pieces,),
            merge_seconds=ctx.wall_seconds(merge_core_seconds),
        )

    return SplitTerms(rows=rows, piece=piece, cpu_seconds=cpu_seconds)


def _radix_seconds(rows: int, cost) -> float:
    """Planner estimate of one radix sort (segment offsets ride in the
    scan term); also what a segmented sort is charged."""
    return rows / cost.gpu_radix_sort_rate + rows / cost.gpu_scan_rate


def _radix_kernel(radix: RadixSortKernel, keys: np.ndarray) -> Kernel:
    """Radix-sort ``keys`` (key + payload pairs, 8 bytes a row each way)."""
    result = radix.run(keys)
    return Kernel(radix.name, result.kernel_seconds, len(keys) * 8,
                  outcome=result)


def _cpu_sort_job(partial: np.ndarray, stats: SortRunStats):
    """Sort a small job on the host (stable, like the radix kernel).

    No ledger event here: the job queue pools these jobs into one
    parallel-degree SORT charge once it drains.
    """
    sub_order = np.argsort(partial, kind="stable")
    stats.jobs_cpu += 1
    return sub_order, find_duplicate_ranges(partial[sub_order])
