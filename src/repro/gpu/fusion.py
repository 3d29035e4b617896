"""Fused GPU data paths: one launch for a filter->join->group-by chain.

The per-operator GPU path pays a PCIe round-trip at every stage even when
the next consumer is also on-device: a GPU join ships its probe keys up,
copies its match vector back, and the group-by then re-stages its inputs
at joined granularity.  This module removes those interior edges.  A
*fusion planner* (:func:`find_fusable_chain`) walks the compiled plan
from each group-by down its probe spine, recognising the maximal
``filter -> join* -> group-by`` chain, and a *fused executor*
(:class:`FusedExecutor`) replaces the per-operator launch sequence with
a single device launch:

- one kernel-launch overhead for the whole chain;
- intermediate results (match vectors, gathered columns) stay resident
  in device memory — no H2D/D2H between fused stages;
- external inputs ship once, at *owner-table* granularity: a dimension
  column referenced by the group-by crosses the bus at dimension-table
  size instead of joined (fact) size — the late-materialisation win.

Whether a recognised chain actually fuses is a cost decision
(:meth:`FusedExecutor._decide`, on the shared gate
:func:`repro.core.pathselect.judge`), gated first by the
Figure-3 verdict for the terminal group-by so fusion never drags a query
onto the GPU that path selection would have kept on the CPU.  Results
are bit-identical to the unfused path by construction: every fused stage
computes through the same numpy kernels as its per-operator twin, and
every failure (non-unique build keys, reservation denial, injected
device faults, pinned-pool exhaustion) degrades to the per-operator
executors.  ``SystemConfig.fusion_enabled=False`` disables the planner
entirely.

The legality rules, the exact timing/byte equations, a worked BD
Insights example and the interaction matrix with the column cache, the
stream pipeline and fault injection live in ``docs/fusion.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.blu.catalog import Catalog
from repro.blu.engine import JoinExecutor, OperatorContext
from repro.blu.evaluators import build_fused_host_chain, build_gpu_host_chain
from repro.blu.expressions import ColumnRef
from repro.blu.operators.join import _aligned_keys, _assemble, cpu_probe_rate
from repro.blu.operators.scan import execute_scan
from repro.blu.operators.aggregate import (
    build_group_output,
    factorise,
    grouping_key_arrays,
)
from repro.blu.plan import (
    FilterNode,
    GroupByNode,
    JoinNode,
    PlanNode,
    ScanNode,
)
from repro.blu.statistics import estimate_distinct, murmur3_fmix64
from repro.blu.table import Table
from repro.config import SystemConfig
from repro.core.dispatch import Declined, Kernel, Piece
from repro.core.hybrid_groupby import (
    HybridGroupByExecutor,
    groupby_segments,
    owner_of,
    packed_key_bytes,
    payload_specs,
    staged_key_bytes,
)
from repro.core.hybrid_join import build_segment
from repro.core.metadata import RuntimeMetadata
from repro.core.pathselect import (
    Verdict,
    judge,
    select_groupby_path,
    trace_groupby_path,
)
from repro.errors import GpuError
from repro.gpu.cache import SegmentKey, StagedSegment
from repro.gpu.kernels.hashtable import combine_keys
from repro.gpu.kernels.join import HashJoinKernel
from repro.gpu.kernels.request import GroupByRequest
from repro.gpu.partition import Rival
from repro.gpu.transfer import transfer_seconds
from repro.timing import CostLedger

#: Bytes per packed (BLU-encoded) column word shipped over PCIe.
_PACKED = RuntimeMetadata.PACKED_COLUMN_BYTES

#: The engine's callback for executing a subtree (``BluEngine._execute``).
SubtreeExecutor = Callable[[PlanNode, OperatorContext], Table]


# ---------------------------------------------------------------------------
# Chain recognition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusableChain:
    """A maximal fusable ``filter -> join* -> group-by`` chain.

    ``spine`` holds the Filter/Join nodes between the group-by and the
    probe subtree, top-down; executing the chain walks it bottom-up.
    ``joins`` are the spine's JoinNodes bottom-up; ``builds`` their right
    (build-side) subtrees in the same order.  ``probe`` is the first
    non-chain node on the probe spine — the external input every stage's
    row ids ultimately index into.
    """

    groupby: GroupByNode
    spine: tuple[PlanNode, ...]
    joins: tuple[JoinNode, ...]
    builds: tuple[PlanNode, ...]
    probe: PlanNode

    @property
    def stages(self) -> int:
        """Fused device stages: every spine operator plus the group-by."""
        return len(self.spine) + 1


def find_fusable_chain(node: GroupByNode) -> Optional[FusableChain]:
    """Recognise the maximal fusable chain ending at ``node``.

    Legality (the full rules are documented in ``docs/fusion.md``):

    - the chain descends ``node.child`` through FilterNodes (child) and
      JoinNodes (probe/left side only); the first other node terminates
      it and becomes the external probe input;
    - build (right) subtrees are external inputs, never fused into;
    - at least one join must be on the spine (a bare group-by already is
      a single launch) and the group-by needs grouping keys (keyless
      aggregates stay on the scalar CPU path).
    """
    if not node.keys:
        return None
    spine: list[PlanNode] = []
    joins: list[JoinNode] = []
    cur = node.child
    while True:
        if isinstance(cur, FilterNode):
            spine.append(cur)
            cur = cur.child
        elif isinstance(cur, JoinNode):
            spine.append(cur)
            joins.append(cur)
            cur = cur.left
        else:
            break
    if not joins:
        return None
    joins_bottom_up = tuple(reversed(joins))
    return FusableChain(
        groupby=node,
        spine=tuple(spine),
        joins=joins_bottom_up,
        builds=tuple(j.right for j in joins_bottom_up),
        probe=cur,
    )


# ---------------------------------------------------------------------------
# Cost model (planner estimates, from optimizer metadata only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusedChainEstimate:
    """Planner-side costs of a chain, fused vs unfused (``docs/fusion.md``).

    All figures derive from optimizer estimates — the decision runs
    *before* any subtree executes, so a "no" has zero side effects.
    ``unfused_seconds`` prices the default per-operator plan (CPU joins,
    GPU group-by); ``per_op_gpu_bytes`` prices the all-GPU per-operator
    alternative's PCIe traffic, the reference for the elision accounting.
    """

    fused_seconds: float
    unfused_seconds: float
    fused_bytes: int
    per_op_gpu_bytes: int


def _subtree_columns(node: PlanNode, catalog: Catalog) -> int:
    """Best-effort output column count of a subtree (for join
    materialisation estimates — joins concatenate both sides)."""
    if isinstance(node, ScanNode):
        return catalog.table(node.table_name).num_columns
    if isinstance(node, JoinNode):
        return (_subtree_columns(node.left, catalog)
                + _subtree_columns(node.right, catalog))
    if node.children:
        return _subtree_columns(node.children[0], catalog)
    return 1


def _join_kernel_estimate(build_rows: float, probe_rows: float,
                          matches: float, cost) -> float:
    """Analytic device-join time: table init + inserts + probes + emit."""
    table_bytes = build_rows * 16 * 1.5
    return (table_bytes / cost.gpu_init_rate
            + build_rows / cost.gpu_ht_insert_rate
            + probe_rows / cost.gpu_ht_probe_rate
            + matches * 4 / cost.gpu_init_rate)


def _groupby_kernel_estimate(rows: float, num_aggs: int, cost) -> float:
    """Crude device group-by time — identical in both alternatives, so it
    cancels in the fuse/no-fuse inequality; kept for honest totals."""
    return rows * max(1, num_aggs) / cost.gpu_atomic_agg_rate


def estimate_chain(chain: FusableChain, config: SystemConfig,
                   catalog: Catalog, degree: int) -> FusedChainEstimate:
    """Price a recognised chain fused vs unfused, from optimizer estimates.

    Work common to both alternatives (executing the probe and build
    subtrees) is excluded.  The exact equations, with the same symbol
    names, are laid out in ``docs/fusion.md``.
    """
    cost = config.cost
    spec = config.gpus[0]
    capacity = config.host.effective_capacity(degree)
    node = chain.groupby
    num_keys = len(node.keys)
    num_aggs = max(1, len(node.aggs))
    joined_rows = max(1.0, node.child.estimates.rows)
    groups = max(1.0, node.estimates.groups)
    result_bytes = groups * (8 + 8 * num_aggs)

    # --- unfused: CPU joins/filters, then the per-op GPU group-by -------
    unfused_cpu = 0.0
    per_op_gpu_bytes = 0.0
    probe_rows = max(1.0, chain.probe.estimates.rows)
    probe_cols = _subtree_columns(chain.probe, catalog)
    rows, cols = probe_rows, probe_cols
    for element in reversed(chain.spine):
        if isinstance(element, JoinNode):
            build_rows = max(1.0, element.right.estimates.rows)
            build_cols = _subtree_columns(element.right, catalog)
            matches = max(1.0, element.estimates.rows)
            unfused_cpu += (
                build_rows / cost.cpu_join_build_rate
                + rows / cpu_probe_rate(int(build_rows), cost)
                + matches * (cols + build_cols) / cost.cpu_decode_rate
            )
            per_op_gpu_bytes += build_rows * 8 + rows * _PACKED \
                + matches * 4
            rows, cols = matches, cols + build_cols
        else:                                   # FilterNode
            unfused_cpu += rows / cost.cpu_scan_rate
            rows = max(1.0, element.estimates.rows)
    staged_joined = joined_rows * _PACKED * (num_keys + num_aggs)
    per_op_gpu_bytes += staged_joined + result_bytes
    groupby_kernel = _groupby_kernel_estimate(joined_rows, num_aggs, cost)
    unfused = (
        unfused_cpu / capacity
        + build_gpu_host_chain(
            rows=int(joined_rows), num_keys=num_keys, num_aggs=num_aggs,
            staged_bytes=int(staged_joined), cost=cost,
        ).total_cpu_seconds / capacity
        + transfer_seconds(int(staged_joined), spec)
        + groupby_kernel
        + transfer_seconds(int(result_bytes), spec)
    )

    # --- fused: one launch; external inputs at owner granularity --------
    # Planner upper bound: group-by columns priced at probe (fact)
    # granularity even though execution ships dimension-owned columns at
    # dimension size — a conservative over-estimate of fused_bytes.
    fused_bytes = probe_rows * _PACKED * (num_keys + num_aggs)
    fused_kernel = 0.0
    rows = probe_rows
    for element in reversed(chain.spine):
        if isinstance(element, JoinNode):
            build_rows = max(1.0, element.right.estimates.rows)
            matches = max(1.0, element.estimates.rows)
            fused_bytes += build_rows * 8 + rows * _PACKED
            fused_kernel += _join_kernel_estimate(build_rows, rows,
                                                  matches, cost)
            fused_kernel += matches / cost.gpu_scan_rate   # stage gather
            rows = matches
        else:
            fused_bytes += rows * _PACKED
            fused_kernel += rows / cost.gpu_scan_rate
            rows = max(1.0, element.estimates.rows)
    # Final gather of the group-by's key/payload columns on-device.
    fused_kernel += joined_rows * (num_keys + num_aggs) / cost.gpu_scan_rate
    fused_kernel += groupby_kernel
    fused = (
        build_fused_host_chain(
            rows=int(probe_rows), num_keys=num_keys, num_aggs=num_aggs,
            staged_bytes=int(fused_bytes), cost=cost,
        ).total_cpu_seconds / capacity
        + transfer_seconds(int(fused_bytes), spec)
        + fused_kernel
        + transfer_seconds(int(result_bytes), spec)
    )
    return FusedChainEstimate(
        fused_seconds=fused,
        unfused_seconds=unfused,
        fused_bytes=int(fused_bytes),
        per_op_gpu_bytes=int(per_op_gpu_bytes),
    )


# ---------------------------------------------------------------------------
# Fused execution
# ---------------------------------------------------------------------------


@dataclass
class FusedExecutor:
    """Executes recognised chains as one fused device launch.

    Installed by :class:`repro.core.accelerator.GpuAcceleratedEngine`
    when ``SystemConfig.fusion_enabled`` (the default); consulted by
    :class:`repro.blu.engine.BluEngine` before the per-operator group-by
    path.  Returning ``None`` means "not fused" and the engine proceeds
    exactly as before, so a declined chain has zero observable effect.

    ``groupby`` is the engine's hybrid group-by executor — the fused
    launch is its launch with a longer kernel, so dispatcher, thresholds,
    reservation, moderation and KMV note are its — and ``join`` the
    engine's effective join executor.  Every mid-flight failure re-runs
    the chain through those two from the already-executed subtree
    outputs, which keeps results bit-identical under any fault plan.
    """

    groupby: HybridGroupByExecutor
    join: JoinExecutor

    def __call__(self, node: GroupByNode, ctx: OperatorContext,
                 execute: SubtreeExecutor) -> Optional[Table]:
        chain = find_fusable_chain(node)
        if chain is None or self.groupby.dispatch.catalog is None:
            return None
        decision = self._decide(chain, ctx)
        if not decision.taken:
            return None
        return self._run(chain, ctx, execute, decision)

    # ------------------------------------------------------------------
    # Decision (no side effects beyond trace instants)
    # ------------------------------------------------------------------

    def _decide(self, chain: FusableChain,
                ctx: OperatorContext) -> Verdict:
        """Whether the chain runs fused, and why.

        The Figure-3 verdict for the terminal group-by gates first, so
        fusion never drags a query onto the GPU that path selection
        would have kept on the CPU — classes the paper leaves untouched
        (simple/intermediate) stay untouched.  Then the fused estimate
        must strictly beat the unfused plan's (the shared gate), and
        must ship no more bytes than the per-operator GPU alternative —
        a byte budget, not a price, so that one check stays beside the
        call instead of teaching the gate about its caller.
        """
        node = chain.groupby
        dispatch = self.groupby.dispatch
        thresholds = self.groupby.thresholds
        # Figure 3 from optimizer estimates, marked only when the chain
        # fuses: the per-operator path emits its own verdict otherwise.
        rows = max(1.0, node.child.estimates.rows)
        groups = max(1.0, node.estimates.groups)
        verdict = select_groupby_path(rows, groups, thresholds)
        estimate = estimate_chain(chain, ctx.config, dispatch.catalog,
                                  ctx.degree)
        fused, unfused = estimate.fused_seconds, estimate.unfused_seconds
        fused_bytes = estimate.fused_bytes
        per_op_gpu_bytes = estimate.per_op_gpu_bytes
        decision = judge(
            "fused", fused,
            (Rival("unfused", unfused, "fusion would not pay"),),
            f"{chain.stages}-stage chain: fused~{fused * 1e3:.3f}ms < "
            f"unfused~{unfused * 1e3:.3f}ms, "
            f"elides {per_op_gpu_bytes - fused_bytes} transfer bytes",
            refused=None if verdict.use_gpu else
            f"group-by verdict is {verdict.path.value}: "
            "chain stays on the per-operator path",
        )
        if decision.taken and fused_bytes > per_op_gpu_bytes:
            decision = Verdict(
                False,
                f"fused bytes {fused_bytes} > per-op GPU bytes "
                f"{per_op_gpu_bytes}: fusion would ship more over PCIe")
        dispatch.tracer.instant(
            "pathselect.fused",
            stages=chain.stages, fuse=decision.taken,
            reason=decision.reason,
            fused_seconds=fused, unfused_seconds=unfused,
            fused_bytes=int(fused_bytes),
            per_op_gpu_bytes=int(per_op_gpu_bytes),
        )
        if decision.taken:
            # The per-operator group-by will never run, so record its
            # Figure-3 verdict here — every executed group-by keeps a
            # ``pathselect.groupby`` instant either way.
            trace_groupby_path(dispatch.tracer, verdict, rows, groups,
                               thresholds)
        return decision

    # ------------------------------------------------------------------
    # Fused run
    # ------------------------------------------------------------------

    def _run(self, chain: FusableChain, ctx: OperatorContext,
             execute: SubtreeExecutor, decision: Verdict) -> Table:
        """The chain as one launch inside an ``op.fused`` span; the KMV
        note lands after it closes, on the engine's ``op.groupby`` span."""
        node = chain.groupby
        cost = ctx.config.cost
        groupby = self.groupby
        dispatch = groupby.dispatch
        with dispatch.tracer.span("op.fused", stages=chain.stages,
                                  joins=len(chain.joins),
                                  keys=",".join(node.keys)):
            # External edges execute normally (their own operator spans
            # and CPU cost events) — fusion changes nothing below the
            # chain.
            probe_out = execute(chain.probe, ctx)
            build_outs = [execute(b, ctx) for b in chain.builds]

            plan = _plan_external_inputs(chain, probe_out, build_outs,
                                         dispatch.catalog_version,
                                         dispatch.caching)

            # One up-front reservation for the whole chain (section 2.1.1
            # discipline): staged inputs + every stage's hash table +
            # device-resident intermediates + the result, sized from
            # optimizer estimates exactly like the per-op executors.
            payloads = payload_specs(node, probe_out, *build_outs)
            key_bits = plan.key_bits
            metadata = RuntimeMetadata(
                rows=max(1, int(node.child.estimates.rows)),
                optimizer_groups=node.estimates.groups or 0.0,
                key_bits=key_bits,
                num_keys=len(node.keys),
                payloads=payloads,
                exact_keys=True,
            )
            join_kernel = HashJoinKernel(cost)
            intermediates = sum(
                max(1, int(j.estimates.rows)) * 4 for j in chain.joins)
            _kernel, table_bytes = groupby._reserve(metadata, GroupByRequest(
                keys=np.empty(0, dtype=np.int64), key_bits=key_bits,
                payloads=payloads,
                estimated_groups=metadata.estimated_groups, exact_keys=True,
            ))
            memory_needed = (
                plan.staged_bytes
                + intermediates
                + metadata.result_bytes()
                + sum(join_kernel.table_bytes(b.num_rows) for b in build_outs)
                + table_bytes
            )

            def run(bytes_in: int) -> Kernel:
                """The fused stages: device-charged, host-real."""
                fused_seconds = 0.0
                per_op_bytes = 0.0
                matches_total = 0
                current = probe_out
                build_index = 0
                discard = CostLedger()
                stage_names: list[str] = []
                for element in reversed(chain.spine):
                    if isinstance(element, JoinNode):
                        build = build_outs[build_index]
                        build_keys, probe_keys = _aligned_keys(
                            build.column(element.right_key),
                            current.column(element.left_key))
                        per_op_bytes += (build.num_rows * 8
                                         + current.num_rows * _PACKED)
                        try:
                            result = join_kernel.run(build_keys, probe_keys)
                        except GpuError:
                            # Non-unique build keys: outside the kernel's
                            # documented scope, not a device failure — the
                            # whole chain degrades to the per-op executors.
                            raise Declined(
                                "build keys not unique: chain degrades to "
                                "the per-operator path") from None
                        fused_seconds += result.kernel_seconds
                        matches = len(result.left_idx)
                        per_op_bytes += matches * 4    # per-op D2H matches
                        matches_total += matches
                        # Gather the surviving probe rows' downstream
                        # inputs on-device instead of materialising on
                        # the host.
                        fused_seconds += matches / cost.gpu_scan_rate
                        current = _assemble(
                            current, build, element.left_key,
                            element.right_key, result.left_idx,
                            result.right_idx)
                        stage_names.append(result.kernel)
                        build_index += 1
                    else:                               # FilterNode
                        rows_before = current.num_rows
                        # Host-real evaluation through the stock scan
                        # operator (bit-identical), charged as a device
                        # scan — the discard ledger drops the CPU events.
                        current = execute_scan(
                            current, element.predicate, cost, discard,
                            max_degree=min(ctx.degree * 2, 96))
                        complexity = max(1, element.predicate.complexity())
                        fused_seconds += (rows_before * complexity
                                          / cost.gpu_scan_rate)
                        stage_names.append("scan")

                # Final on-device gather of the group-by inputs, then the
                # group-by executor's own moderation (regrow on overflow,
                # racing when enabled) with every stage above as on-device
                # prep — all inside this launch.
                gather_cols = len(node.keys) + len({
                    a.expr.name for a in node.aggs
                    if isinstance(a.expr, ColumnRef)})
                fused_seconds += (current.num_rows * gather_cols
                                  / cost.gpu_scan_rate)
                per_op_bytes += (staged_key_bytes(current, node.keys)
                                 + current.num_rows * _PACKED
                                 * max(1, len(node.aggs)))
                per_op_bytes += metadata.result_bytes()

                key_arrays = grouping_key_arrays(current, node.keys)
                combined, exact = combine_keys(key_arrays)
                # Device-side KMV sketch over the joined keys: one extra
                # scan pass inside the launch.  Sizing still comes from
                # the optimizer (the reservation predates the join, so a
                # refined estimate cannot grow it) — the sketch feeds the
                # paper's central estimate-vs-actual monitoring signal
                # instead (the host sketches the distinct keys, as
                # ``_run_on_gpu`` does).
                factors, first_row = factorise(combined)
                kmv = estimate_distinct(murmur3_fmix64(factors.keys), k=1024)
                fused_seconds += current.num_rows / cost.gpu_scan_rate
                request = GroupByRequest(
                    keys=combined, key_bits=key_bits, payloads=payloads,
                    estimated_groups=metadata.estimated_groups,
                    exact_keys=exact, factors=factors,
                )

                ctx.ledger.extend(build_fused_host_chain(
                    rows=probe_out.num_rows, num_keys=len(node.keys),
                    num_aggs=max(1, len(payloads)),
                    staged_bytes=bytes_in, cost=cost,
                ).cost_events(ctx.degree))

                kernel = groupby._moderate(request, metadata,
                                           race=groupby.race_kernels,
                                           prep_seconds=fused_seconds)
                winner = kernel.outcome
                stage_names.append(winner.kernel)
                return replace(
                    kernel,
                    name="fused:" + "+".join(stage_names),
                    outcome=(winner, current, kmv, matches_total,
                             max(0, int(per_op_bytes) - plan.staged_bytes),
                             first_row),
                    stages=chain.stages,
                    # The final gather left the group-by's own staged
                    # slices (packed keys, 4 B/row payloads) resident
                    # too, so admit them under the per-operator path's
                    # keys: a later unfused group-by over the same
                    # materialised input hits exactly as if that path had
                    # staged them itself.
                    resident=lambda: groupby_segments(
                        current, node, dispatch.catalog_version),
                )

            piece = Piece(
                rows=probe_out.num_rows, memory=memory_needed, tag="fused",
                staged=plan.staged_bytes, run=run,
                segments=lambda: plan.segments,
            )
            fused = dispatch.launch("fused", ctx, piece)
            if fused is None:
                return self._degrade(chain, ctx, probe_out, build_outs,
                                     piece.fallback, piece.device_id)
            winner, current, kmv, matches_total, elided, first_row = fused
            self._observe_chain(chain, piece.device_id, elided,
                                matches_total, winner.kernel)
            dispatch.record("fused", "gpu-fused", decision.reason,
                            kernel=winner.kernel, device_id=piece.device_id)

        groupby._note_kmv(kmv.groups, winner.n_groups)
        return build_group_output(
            current, node.keys, node.aggs, winner.group_index, first_row,
            winner.n_groups, name=f"{current.name}_grouped",
        )

    # ------------------------------------------------------------------
    # Degradation: re-run the chain per-operator, bit-identically
    # ------------------------------------------------------------------

    def _degrade(self, chain: FusableChain, ctx: OperatorContext,
                 probe_out: Table, build_outs: Sequence[Table],
                 reason: str, device_id: int = -1) -> Table:
        """Complete the chain through the per-operator executors.

        The external subtrees have already executed; everything above
        them re-runs through the engine's effective join/filter/group-by
        executors with normal cost accounting.  Any work the fused
        attempt had already done is discarded — the simulated cost story
        is "the fused launch failed, the chain re-ran per-operator",
        mirroring the CPU fallback of the hybrid executors.
        """
        self.groupby.dispatch.record("fused", "fused-degraded", reason,
                                     kernel="", device_id=device_id)
        current = probe_out
        build_index = 0
        for element in reversed(chain.spine):
            if isinstance(element, JoinNode):
                current = self.join(
                    current, build_outs[build_index], element, ctx)
                build_index += 1
            else:
                current = execute_scan(
                    current, element.predicate, ctx.config.cost,
                    ctx.ledger, max_degree=min(ctx.degree * 2, 96))
        return self.groupby(current, chain.groupby, ctx)

    def _observe_chain(self, chain: FusableChain, device_id: int,
                       elided_bytes: int, matches: int,
                       groupby_kernel: str) -> None:
        dispatch = self.groupby.dispatch
        registry = dispatch.monitor.registry
        registry.counter(
            "repro_fusion_chains_total",
            "Operator chains executed as a single fused GPU launch",
        ).inc()
        registry.counter(
            "repro_fusion_elided_bytes_total",
            "PCIe bytes elided by fusion vs the per-operator GPU path",
        ).inc(elided_bytes)
        dispatch.tracer.instant(
            "fusion.chain",
            stages=chain.stages, joins=len(chain.joins),
            elided_bytes=int(elided_bytes), matches=int(matches),
            groupby_kernel=groupby_kernel, device_id=device_id,
            query_id=dispatch.query_id,
        )


# ---------------------------------------------------------------------------
# External-input planning (bytes + cache segments)
# ---------------------------------------------------------------------------


@dataclass
class _ExternalInputs:
    """The fused launch's H2D plan: total staged bytes, the cacheable
    segments within them, and the combined group-by key width."""

    staged_bytes: int = 0
    key_bits: int = 64
    segments: list[StagedSegment] = field(default_factory=list)


def _plan_external_inputs(chain: FusableChain, probe_out: Table,
                          build_outs: Sequence[Table], version: int,
                          caching: bool) -> _ExternalInputs:
    """Plan what crosses the bus for a fused launch, at owner granularity.

    Every external column ships exactly once from the base table that
    owns it: join build keys at 8 bytes/row, probe-side and filter
    columns at the packed 4-byte width, group-by keys at their true
    packed width and payloads at 4 bytes/row — all at the *owner* table's
    row count, never at joined granularity.  Columns referenced by more
    than one stage (a probe key that is also a grouping key) are
    deduplicated.  Computed expressions and ``COUNT(*)`` have no stable
    column identity: they charge probe-granularity bytes but produce no
    cacheable segment.  Nor does anything when no device is ``caching``:
    a key nobody will look up is not digested.
    """
    tables = [probe_out, *build_outs]
    plan = _ExternalInputs()
    shipped: set[tuple[str, str]] = set()

    def ship(table: Table, column: str, nbytes: int, prefix: str) -> None:
        if (table.name, column) in shipped:
            return
        shipped.add((table.name, column))
        plan.staged_bytes += nbytes
        if caching:
            plan.segments.append(StagedSegment(
                key=SegmentKey(
                    table=table.name, column=column,
                    segment=prefix + table.column(column).digest(),
                    catalog_version=version,
                ),
                nbytes=nbytes,
            ))

    # Join keys: build side as the hybrid join's build segment (the two
    # paths share cache entries), probe side packed.
    for join, build in zip(chain.joins, build_outs):
        owner = owner_of(join.left_key, tables)
        if (build.name, join.right_key) not in shipped:
            shipped.add((build.name, join.right_key))
            plan.staged_bytes += build.num_rows * 8
            if caching:
                build_col = build.column(join.right_key)
                probe_col = owner.column(join.left_key) if owner else None
                build_keys, _ = _aligned_keys(build_col,
                                              probe_col or build_col)
                plan.segments.append(build_segment(
                    build, join.right_key, build_keys, version))
        if owner is not None:
            ship(owner, join.left_key, owner.num_rows * _PACKED,
                 "fused-col:")
        else:
            plan.staged_bytes += probe_out.num_rows * _PACKED

    # Residual filter predicate columns.
    for element in chain.spine:
        if not isinstance(element, FilterNode):
            continue
        for column in element.predicate.columns():
            owner = owner_of(column, tables)
            if owner is not None:
                ship(owner, column, owner.num_rows * _PACKED,
                     "fused-col:")
            else:
                plan.staged_bytes += probe_out.num_rows * _PACKED

    # Group-by keys at their true packed widths, payloads at 4 bytes/row
    # — both at owner granularity (the late-materialisation elision).
    node = chain.groupby
    key_bits = 0
    for key in node.keys:
        owner = owner_of(key, tables)
        if owner is not None:
            key_bits += owner.schema.field(key).dtype.bits
            ship(owner, key, packed_key_bytes(owner.column(key)),
                 "fused-key:")
        else:
            key_bits += 64
            plan.staged_bytes += probe_out.num_rows * _PACKED
    plan.key_bits = max(32, key_bits)
    for agg in node.aggs:
        if not isinstance(agg.expr, ColumnRef):
            if agg.expr is not None:
                plan.staged_bytes += probe_out.num_rows * _PACKED
            continue
        owner = owner_of(agg.expr.name, tables)
        if owner is not None:
            ship(owner, agg.expr.name, owner.num_rows * _PACKED,
                 "fused-agg:")
        else:
            plan.staged_bytes += probe_out.num_rows * _PACKED
    return plan
