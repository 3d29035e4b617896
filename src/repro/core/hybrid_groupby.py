"""The hybrid group-by/aggregation executor — Figures 2 and 3.

This is the paper's centrepiece.  For each group-by the executor:

1. applies the Figure-3 path selection on the optimizer's row/group
   estimates (small -> stock CPU chain; oversized -> CPU; else GPU);
2. on the GPU path, runs the rewired host chain of Figure 2
   (LCOG/LCOV -> CCAT -> HASH -> KMV -> MEMCPY): LGHT and the aggregation
   evaluators are gone because the device does that work;
3. asks the moderator for a kernel (or races all candidates), sizing the
   hash table from the KMV estimate, growing it on the overflow error path;
4. hands the piece to the dispatcher (:mod:`repro.core.dispatch`), which
   reserves device memory up front through the multi-GPU scheduler
   (falling back to the CPU when no device has room — section 2.1.1's
   option 2), accounts the launch (pinned transfers in/out + kernel time)
   on the owning device and emits a single-threaded GPU cost event — the
   dispatching thread blocks while every other core is freed for other
   work, which is where the multi-user throughput gains come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.blu.compression import packed_transfer_bytes
from repro.blu.datatypes import int64 as int64_type
from repro.blu.engine import OperatorContext, cpu_groupby_executor
from repro.blu.expressions import ColumnRef
from repro.blu.evaluators import build_cpu_groupby_chain, build_gpu_host_chain
from repro.blu.operators.aggregate import (
    Factorisation,
    build_group_output,
    factorise,
    grouping_key_arrays,
)
from repro.blu.plan import GroupByNode
from repro.blu.statistics import estimate_distinct, murmur3_fmix64
from repro.blu.table import Table
from repro.config import Thresholds
from repro.core.dispatch import Dispatcher, Kernel, Piece
from repro.core.metadata import RuntimeMetadata
from repro.core.moderator import GpuModerator
from repro.core.pathselect import ExecutionPath, select_groupby_path
from repro.gpu.cache import SegmentKey, StagedSegment
from repro.gpu.kernels.hashtable import combine_keys
from repro.gpu.partition import (
    PieceTerms,
    SplitPlan,
    SplitTerms,
    groupby_working_set_bytes,
)
from repro.gpu.shard import hash_shard_assignment, split_rows
from repro.gpu.kernels.request import GroupByRequest, PayloadSpec
from repro.gpu.streams import DISPATCH_SECONDS
from repro.timing import CostEvent


@dataclass
class HybridGroupByExecutor:
    """Pluggable group-by executor implementing the hybrid design.

    Past Figure 3 it asks the dispatcher two questions.  Should an
    over-memory input — over T3 by rows or with a working set estimated
    above device capacity — split *in time*?  That is the extension the
    paper describes but does not implement ("If the number of input rows
    is very large ... we will need to partition the data and use both
    the CPU and the GPU ... In our current implementation, all of the
    large queries are processed in the CPU"): hash partitions stream
    through the cards whenever the priced plan beats the stock CPU chain
    (``docs/out_of_core.md``).  And should a GPU-verdict input split *in
    space*, across every healthy device (``docs/scale_out.md``)?  Either
    way the pieces' group sets are disjoint, so the merge renumbers and
    concatenates and the output is bit-identical to the CPU chain's.
    """

    dispatch: Dispatcher
    moderator: GpuModerator
    thresholds: Thresholds
    race_kernels: bool = False

    def __call__(self, table: Table, node: GroupByNode,
                 ctx: OperatorContext) -> Table:
        rows = table.num_rows
        optimizer_groups = node.estimates.groups or 0.0

        if not node.keys:
            return cpu_groupby_executor(table, node, ctx)

        dispatch = self.dispatch
        groups_estimate = (int(optimizer_groups) if optimizer_groups > 0
                           else rows)
        working_set = groupby_working_set_bytes(rows, groups_estimate,
                                                len(node.aggs))
        capacity = dispatch.device_capacity
        decision = select_groupby_path(rows, optimizer_groups,
                                       self.thresholds,
                                       tracer=dispatch.tracer,
                                       working_set_bytes=working_set,
                                       device_capacity_bytes=capacity)
        reason = decision.reason
        if decision.path is ExecutionPath.CPU_LARGE:
            plan, refusal = dispatch.split(
                "groupby", ctx, lambda: partition_terms(
                    rows, groups_estimate, len(node.keys), len(node.aggs),
                    self.thresholds, capacity, ctx))
            if plan is not None:
                combined, exact = combine_keys(
                    grouping_key_arrays(table, node.keys))
                factors, first_row = factorise(combined)
                return self._run_pieces(
                    table, node, ctx, plan, factors, first_row, exact,
                    murmur3_fmix64(factors.keys), optimizer_groups)
            reason = refusal or reason
        if not decision.use_gpu:
            dispatch.record("groupby", decision.path.value, reason,
                            kernel="")
            return cpu_groupby_executor(table, node, ctx)

        return self._run_on_gpu(table, node, ctx, optimizer_groups)

    # ------------------------------------------------------------------
    # GPU path
    # ------------------------------------------------------------------

    def _run_on_gpu(self, table: Table, node: GroupByNode,
                    ctx: OperatorContext, optimizer_groups: float) -> Table:
        rows = table.num_rows
        dispatch = self.dispatch

        # Host half of the Figure-2 chain: load, concat, hash, KMV, memcpy.
        # The keys are factorised once, here, for everything downstream;
        # Murmur is a bijection and a KMV sketch keeps distinct values, so
        # hashing the distinct keys gives the sketch hashing every row does.
        key_arrays = grouping_key_arrays(table, node.keys)
        combined, exact = combine_keys(key_arrays)
        key_bits = sum(table.schema.field(k).dtype.bits for k in node.keys)
        factors, first_row = factorise(combined)
        hashes = murmur3_fmix64(factors.keys)
        kmv = estimate_distinct(hashes, k=1024)

        payloads = payload_specs(node, table)
        metadata = RuntimeMetadata(
            rows=rows,
            optimizer_groups=optimizer_groups,
            kmv_groups=kmv.groups,
            key_bits=key_bits,
            num_keys=len(node.keys),
            payloads=payloads,
            exact_keys=exact,
            key_transfer_bytes=staged_key_bytes(table, node.keys),
        )

        # Scale-out: a GPU-verdict group-by may split across every
        # healthy device when the priced plan beats both the
        # single-device estimate and the CPU chain (docs/scale_out.md).
        plan, _ = dispatch.split(
            "groupby", ctx, lambda: shard_terms(
                metadata, len(node.keys), len(node.aggs), ctx),
            across=table.name)
        if plan is not None:
            return self._run_pieces(table, node, ctx, plan, factors,
                                    first_row, exact, hashes,
                                    optimizer_groups)

        # Up-front device memory reservation, sized from optimizer metadata
        # (the KMV refinement may grow it below).  The reservation stays
        # full-sized even when cached segments will elide transfers: the
        # staged input lives on the device either way, the cache merely
        # holds part of it already.
        request = GroupByRequest(
            keys=combined, key_bits=key_bits, payloads=payloads,
            estimated_groups=metadata.estimated_groups, exact_keys=exact,
            factors=factors,
        )
        kernel, table_bytes = self._reserve(metadata, request)
        staged = metadata.staged_input_bytes()
        memory_needed = staged + metadata.result_bytes() + table_bytes

        def run(bytes_in: int) -> Kernel:
            # The host chain (including MEMCPY into pinned staging of
            # what the cache does not already hold) runs now.
            ctx.ledger.extend(build_gpu_host_chain(
                rows=rows, num_keys=len(node.keys),
                num_aggs=max(1, len(payloads)),
                staged_bytes=bytes_in, cost=ctx.config.cost,
            ).cost_events(ctx.degree))
            return self._moderate(request, metadata, race=self.race_kernels)

        piece = Piece(
            rows=rows, memory=memory_needed, tag="groupby", staged=staged,
            segments=lambda: groupby_segments(table, node,
                                              dispatch.catalog_version),
            run=run,
            on_lease=lambda device_id: dispatch.record(
                "groupby", "gpu",
                f"offloading {rows} rows, "
                f"kmv groups~{metadata.estimated_groups}",
                kernel=kernel.name, device_id=device_id),
        )
        winner = dispatch.launch("groupby", ctx, piece)
        if winner is None:
            # No device had room (section 2.1.1 option 2) or the launch
            # failed: redo the whole operator on the CPU chain.
            dispatch.record("groupby", "cpu-fallback", piece.fallback,
                            kernel="", device_id=piece.device_id)
            out = cpu_groupby_executor(table, node, ctx)
            self._note_kmv(kmv.groups, out.num_rows)
            return out

        self._note_kmv(kmv.groups, winner.n_groups)
        return build_group_output(
            table, node.keys, node.aggs, winner.group_index, first_row,
            winner.n_groups, name=f"{table.name}_grouped",
        )

    # ------------------------------------------------------------------
    # Extensions: partitioned processing of over-T3 inputs (pieces in
    # time) and sharded N-device execution (pieces in space)
    # ------------------------------------------------------------------

    def _run_pieces(self, table: Table, node: GroupByNode,
                    ctx: OperatorContext, plan: SplitPlan,
                    factors: Factorisation, first_row: np.ndarray,
                    exact: bool, hashes: np.ndarray,
                    optimizer_groups: float) -> Table:
        """Hash-split one group-by into pieces that run independently.

        Splitting on the grouping-key hash (``hashes``, of the distinct
        keys) makes the pieces' group sets disjoint, so the merge is a
        renumber-and-concatenate pass — no re-aggregation — and a piece
        is a slice of the operator's one factorisation: the keys hashed
        to it, already in piece-local appearance order, and their
        counts.  The final numbering is that factorisation's — global
        first appearance — which makes the output *bit-identical* to the
        stock CPU chain's for any piece count and any mix of per-piece
        GPU faults (a faulted piece is charged the CPU chain instead and
        changes nothing downstream).

        A plan in time streams device-sized partitions of an over-
        memory input back-to-back (the host chain runs per partition).
        A plan in space — one that names home devices — spreads a
        GPU-verdict input over them: the host's only per-row work is the
        slicing split and the MEMCPY into pinned staging — decode and
        hash are priced on the shards (the numpy arrays here compute the
        real results the simulation needs, as everywhere else) — and the
        hash repartition crosses the modelled interconnect as the
        exchange.
        """
        rows = table.num_rows
        cost = ctx.config.cost
        dispatch = self.dispatch
        sharded = bool(plan.devices)
        pieces = plan.pieces
        key_bits = sum(table.schema.field(k).dtype.bits for k in node.keys)
        payloads = payload_specs(node, table)
        num_cols = len(node.keys) + max(1, len(payloads))
        group_index, distinct, counts = factors
        piece_of_group = hash_shard_assignment(hashes, pieces)
        piece_groups = split_rows(piece_of_group, pieces)
        piece_rows = split_rows(piece_of_group[group_index], pieces)
        if sharded:
            # The host only builds the shard index vectors (bandwidth-
            # bound); computing the per-row hash is on-device work,
            # priced in each shard's decode+hash prep slice below.
            ctx.ledger.cpu("SHARD-SPLIT", rows,
                           rows * 8 / cost.cpu_memcpy_rate,
                           max_degree=ctx.degree)
        else:
            # One pass over the data to split it (host side, parallel).
            ctx.ledger.cpu("PARTITION", rows, rows / cost.cpu_scan_rate,
                           max_degree=ctx.degree)
        dispatch.record("groupby", plan.path, plan.reason, kernel="")

        # First pass sizes every piece, so a shard wave's H2D legs can be
        # priced with the real switch contention before anything launches.
        metas = [
            RuntimeMetadata(
                rows=len(rows_p),
                optimizer_groups=optimizer_groups / pieces,
                kmv_groups=estimate_distinct(hashes[groups_p],
                                             k=1024).groups,
                key_bits=key_bits, num_keys=len(node.keys),
                payloads=payloads, exact_keys=exact,
            ) if len(rows_p) else None
            for rows_p, groups_p in zip(piece_rows, piece_groups)
        ]
        piece_bytes = [m.staged_input_bytes() if m else 0 for m in metas]

        local = np.empty(len(distinct), dtype=np.int64)
        with dispatch.wave("groupby", ctx, plan, piece_bytes) as wave:
            for p, (rows_p, groups_p, meta) in enumerate(
                    zip(piece_rows, piece_groups, metas)):
                if meta is None:
                    continue
                local[groups_p] = np.arange(len(groups_p))
                request = GroupByRequest(
                    keys=None, key_bits=key_bits, payloads=payloads,
                    estimated_groups=meta.estimated_groups,
                    exact_keys=exact,
                    factors=Factorisation(local[group_index[rows_p]],
                                          distinct[groups_p],
                                          counts[groups_p]),
                )
                staged = meta.staged_input_bytes()
                kernel, _reason = self.moderator.choose(meta)
                if sharded:
                    ctx.ledger.cpu("MEMCPY", len(rows_p),
                                   staged / cost.cpu_memcpy_rate, ctx.degree)

                def run(bytes_in: int) -> Kernel:
                    prep_seconds = 0.0
                    if sharded:
                        # The shard decodes and hashes its encoded
                        # columns on-device before aggregating (the
                        # scale-out data path); both ride the kernel
                        # slice of the launch.
                        prep_seconds = (meta.rows * (num_cols + 1)
                                        / cost.gpu_decode_rate)
                    else:
                        ctx.ledger.extend(build_gpu_host_chain(
                            rows=meta.rows, num_keys=len(node.keys),
                            num_aggs=max(1, len(payloads)),
                            staged_bytes=bytes_in, cost=cost,
                        ).cost_events(ctx.degree))
                    return self._moderate(request, meta,
                                          prep_seconds=prep_seconds)

                winner = wave.launch(Piece(
                    rows=len(rows_p),
                    memory=(staged + meta.result_bytes()
                            + kernel.table_bytes(request)),
                    tag="groupby-shard" if sharded else "groupby-part",
                    staged=staged, run=run, index=p,
                ))
                if winner is None:
                    # The piece runs on the CPU chain instead (truly
                    # hybrid; the reroute of last resort for a shard).
                    _piece_on_cpu(len(rows_p), node, payloads, ctx)
                self._note_kmv(meta.kmv_groups, len(groups_p),
                               stamp_span=False)

        exchange_seconds, cross_bytes = 0.0, 0
        if sharded:
            # The exchange: the hash repartition of the encoded input
            # crosses the interconnect (peer-to-peer over NVLink when
            # enabled, bounced through host staging otherwise).
            interconnect = dispatch.interconnect
            staged_total = sum(piece_bytes)
            exchange_seconds = interconnect.exchange_seconds(
                staged_total, pieces)
            cross_bytes = interconnect.cross_shard_bytes(
                staged_total, pieces)
            interconnect.record_exchange(cross_bytes, exchange_seconds)
            ctx.ledger.add(CostEvent(
                op="SHARD-EXCHANGE", rows=rows,
                cpu_seconds=DISPATCH_SECONDS, max_degree=1,
                gpu_seconds=exchange_seconds,
            ))

        # The merge the modelled machine pays for: renumbering the
        # disjoint per-piece group ids into global first-appearance order
        # (the stock CPU chain's hash-insertion order).  The host already
        # holds that numbering: the pieces were cut from it.
        n_groups = len(distinct)
        merge_core_seconds = _merge_core_seconds(n_groups, rows, cost,
                                                 sharded)
        ctx.ledger.cpu("SHARD-MERGE" if sharded else "PARTITION-MERGE",
                       rows, merge_core_seconds, max_degree=ctx.degree)
        wave.report(
            rows=rows, groups=n_groups,
            merge_seconds=ctx.wall_seconds(merge_core_seconds),
            exchange_seconds=exchange_seconds,
            exchange_bytes=int(cross_bytes),
        )
        return build_group_output(
            table, node.keys, node.aggs, group_index, first_row, n_groups,
            name=f"{table.name}_grouped",
        )

    def _reserve(self, metadata: RuntimeMetadata,
                 request: GroupByRequest) -> tuple[object, int]:
        """The moderator's kernel for ``metadata`` and the hash-table
        bytes to reserve for it — plus every raced candidate's."""
        kernel, _reason = self.moderator.choose(metadata)
        table_bytes = kernel.table_bytes(request)
        if self.race_kernels:
            table_bytes += sum(
                k.table_bytes(request)
                for k in self.moderator.candidates(metadata)
                if k is not kernel
            )
        return kernel, table_bytes

    def _moderate(self, request: GroupByRequest, metadata: RuntimeMetadata,
                  race: bool = False, prep_seconds: float = 0.0) -> Kernel:
        """Run the moderator's kernel (or race) for one piece; the launch
        is charged the device time losers and regrow attempts wasted, and
        ``prep_seconds`` of on-device work ahead of the aggregation."""
        outcome = self.moderator.run(request, metadata, race=race)
        monitor = self.dispatch.monitor
        monitor.record_overflow_retries(outcome.overflow_retries)
        if outcome.raced:
            monitor.record_race(outcome.cancelled)
        winner = outcome.winner
        return Kernel(
            name=winner.kernel,
            seconds=(winner.kernel_seconds + outcome.wasted_device_seconds
                     + prep_seconds),
            bytes_out=metadata.result_bytes(),
            outcome=winner,
        )

    def _note_kmv(self, estimated: int, actual: int,
                  stamp_span: bool = True) -> None:
        """Judge one KMV estimate against the actual group count.

        Feeds the ``repro_kmv_relative_error`` histogram and, for the
        whole-input path, stamps the KMV refinement onto the enclosing
        ``op.groupby`` span (the engine stamps the optimizer estimate and
        the actual count; pieces skip the stamp — their per-piece
        estimates have no single span to live on).
        """
        monitor = self.dispatch.monitor
        error = monitor.record_kmv_estimate(estimated, actual)
        if not stamp_span:
            return
        span = monitor.tracer.current
        if span is not None and span.name == "op.groupby":
            span.attributes["kmv_groups"] = int(estimated)
            span.attributes["kmv_relative_error"] = error


def _chain_wall_seconds(chain, ctx: OperatorContext) -> float:
    """Wall clock of an evaluator chain under processor sharing."""
    total = 0.0
    for e in chain.evaluators:
        total += ctx.wall_seconds(e.cpu_seconds, e.max_degree)
    return total


def _cpu_chain_seconds(rows: int, groups: int, num_keys: int, num_aggs: int,
                       ctx: OperatorContext) -> float:
    """The CPU rival: the stock evaluator chain, repriced at the wall
    clock the processor-sharing simulator would grant it."""
    return _chain_wall_seconds(build_cpu_groupby_chain(
        rows=rows, num_keys=num_keys, num_aggs=num_aggs, groups=groups,
        cost=ctx.config.cost), ctx)


def _merge_core_seconds(groups: int, rows: int, cost,
                        sharded: bool) -> float:
    """Core seconds of the renumber-merge, predicted and charged alike.

    Partitions rebuild a per-row index on the host; a shard's
    aggregation is complete on its device, so only the group tables
    merge — O(groups).
    """
    core = groups / cost.cpu_merge_rate
    return core if sharded else core + rows / cost.cpu_scan_rate


def partition_terms(rows: int, groups: int, num_keys: int, num_aggs: int,
                    thresholds: Thresholds, capacity_bytes: int,
                    ctx: OperatorContext) -> SplitTerms:
    """An over-memory hash group-by as pieces in time.

    A piece count is admissible when it brings every partition's working
    set under ``capacity_bytes`` *and* keeps per-partition rows under T3
    (the threshold calibrated for one resident working set).  Hash
    partitioning on the grouping key makes the partitions' group sets
    disjoint, so the merge is a renumber-and-concatenate pass priced at
    the CPU merge rate — no re-aggregation.  The host pays one pass over
    the data to split it plus the Figure-2 host chain per partition.
    """
    cost = ctx.config.cost
    groups = max(1, int(groups))
    aggs = max(1, num_aggs)
    width = 8 + 8 * aggs
    t3 = thresholds.t3_max_rows
    working_set = groupby_working_set_bytes(rows, groups, num_aggs)

    def fits(pieces: int) -> bool:
        rows_p = -(-rows // pieces)
        groups_p = -(-groups // pieces)
        return (groupby_working_set_bytes(rows_p, groups_p, num_aggs)
                <= capacity_bytes and rows_p <= t3)

    def piece(pieces: int) -> PieceTerms:
        rows_p = -(-rows // pieces)
        staged = rows_p * width
        host_chain = build_gpu_host_chain(
            rows=rows_p, num_keys=num_keys, num_aggs=aggs,
            staged_bytes=staged, cost=cost)
        # Name the constraint that forced the split (Figure 3 sends an
        # input here over T3 by rows *or* over device memory by bytes).
        forced = (f"working set ~{working_set} bytes > device "
                  f"{capacity_bytes}" if working_set > capacity_bytes
                  else f"{rows} rows > T3 {t3}")
        return PieceTerms(
            staged_bytes=staged,
            result_bytes=-(-groups // pieces) * width,
            kernel=(rows_p / cost.gpu_ht_insert_rate,
                    rows_p * aggs / cost.gpu_atomic_agg_rate),
            host_seconds=(
                ctx.wall_seconds(rows / cost.cpu_scan_rate)
                + pieces * _chain_wall_seconds(host_chain, ctx)),
            merge_seconds=ctx.wall_seconds(
                _merge_core_seconds(groups, rows, cost, sharded=False)),
            reason=f"{forced}: {pieces} partitions of ~{rows_p} rows",
        )

    return SplitTerms(
        rows=rows, piece=piece,
        cpu_seconds=_cpu_chain_seconds(rows, groups, num_keys, num_aggs, ctx),
        working_set_bytes=working_set, fits=fits,
        floor=max(-(-working_set // max(1, capacity_bytes)),
                  -(-rows // max(1, t3))),
    )


def shard_terms(metadata: RuntimeMetadata, num_keys: int, num_aggs: int,
                ctx: OperatorContext) -> SplitTerms:
    """A GPU-verdict group-by as hash shards in space.

    The sharded kernel estimate includes the on-device decode and hash
    of the encoded columns — the work the sharded data path moves off
    the host (see the module docstring of :mod:`repro.gpu.shard`) — and
    the exchange is the hash repartition of the whole staged input.  The
    host stages the input and builds the shard index vectors.
    """
    cost = ctx.config.cost
    rows = metadata.rows
    aggs = max(1, num_aggs)
    staged = metadata.staged_input_bytes()
    result = metadata.result_bytes()
    groups = max(1, int(metadata.estimated_groups))
    kernel_seconds = (
        rows / cost.gpu_ht_insert_rate
        + rows * aggs / cost.gpu_atomic_agg_rate
        + rows * (num_keys + aggs + 1) / cost.gpu_decode_rate
    )

    def piece(pieces: int) -> PieceTerms:
        return PieceTerms(
            staged_bytes=-(-staged // pieces),
            result_bytes=-(-result // pieces),
            kernel=(kernel_seconds / pieces,),
            host_seconds=ctx.wall_seconds(
                staged / cost.cpu_memcpy_rate
                + rows * 8 / cost.cpu_memcpy_rate),
            merge_seconds=ctx.wall_seconds(
                _merge_core_seconds(groups, rows, cost, sharded=True)),
        )

    return SplitTerms(
        rows=rows, piece=piece,
        cpu_seconds=_cpu_chain_seconds(rows, groups, num_keys, num_aggs, ctx),
        exchange_bytes=staged,
    )


def _piece_on_cpu(rows: int, node: GroupByNode, payloads: list,
                  ctx: OperatorContext) -> None:
    """Charge one partition or shard to the CPU chain (its groups are
    already numbered: a slice of the operator's factorisation)."""
    cost = ctx.config.cost
    ctx.ledger.extend(build_gpu_host_chain(
        rows=rows, num_keys=len(node.keys),
        num_aggs=max(1, len(payloads)), staged_bytes=0, cost=cost,
    ).cost_events(ctx.degree))
    ctx.ledger.cpu("LGHT", rows, rows / cost.cpu_groupby_rate, ctx.degree)


def groupby_segments(table: Table, node: GroupByNode,
                     version: int) -> list[StagedSegment]:
    """The cacheable slices of a group-by's staged input.

    Key columns stage at their packed transfer widths, plain-column
    aggregation payloads at 4 bytes/row.  ``COUNT(*)`` and computed
    expressions have no stable column identity, so those payload
    slots always re-stage (they are simply absent from the list).
    The segment token is a content digest of the encoded column, so
    a fact column gathered unchanged through an order-preserving N:1
    join shares entries with its base table.  The fused chain admits
    its materialised group-by input under these same keys.
    """
    staged = [("key:", name, packed_key_bytes(table.column(name)))
              for name in node.keys]
    staged += [("agg:", agg.expr.name, table.num_rows * 4)
               for agg in node.aggs if isinstance(agg.expr, ColumnRef)]
    return [
        StagedSegment(
            key=SegmentKey(table=table.name, column=name,
                           segment=role + table.column(name).digest(),
                           catalog_version=version),
            nbytes=nbytes)
        for role, name, nbytes in staged
    ]


def payload_specs(node: GroupByNode, *tables: Table) -> list[PayloadSpec]:
    """The aggregation payloads' types.  An expression over one column
    types against the table owning it (the fused chain's external
    inputs); anything else against the first table."""
    specs = []
    for agg in node.aggs:
        dtype = int64_type()
        if agg.expr is not None:
            names = agg.expr.columns()
            owner = owner_of(names[0], tables) if len(names) == 1 else None
            dtype = agg.expr.result_type(owner if owner is not None
                                         else tables[0])
        specs.append(PayloadSpec(dtype=dtype, func=agg.func))
    return specs


def owner_of(column: str, tables: Sequence[Table]) -> Optional[Table]:
    """The first of ``tables`` with a column named ``column``."""
    for table in tables:
        for f in table.schema:
            if f.name.lower() == column.lower():
                return table
    return None


def packed_key_bytes(col) -> int:
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


def staged_key_bytes(table: Table, keys) -> int:
    """Bytes MEMCPY stages for the key columns, at their packed widths."""
    return sum(packed_key_bytes(table.column(name)) for name in keys)
