"""The BLU execution engine.

:class:`BluEngine` binds a catalog to the cost model and executes annotated
logical plans.  Group-by and sort run through pluggable *executors* — the
exact seam the paper's prototype uses: the stock engine installs the CPU
chains of Figure 1.  Its subclass
:class:`repro.core.accelerator.GpuAcceleratedEngine` is the one engine
both arms of the paper's comparison run on: given GPUs it installs hybrid
executors that may dispatch to them (Figures 2 and 3); given the same
config with ``gpus=()`` it installs none and runs these chains.

Every execution returns a :class:`repro.timing.TimedResult`: the real result
table plus the simulated-time profile of how it was produced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.blu.catalog import Catalog
from repro.blu.operators import (
    execute_groupby_cpu,
    execute_join,
    execute_limit,
    execute_project,
    execute_rank,
    execute_scan,
    execute_sort_cpu,
)
from repro.blu.optimizer import Optimizer
from repro.blu.plan import (
    FilterNode,
    GroupByNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    RankNode,
    ScanNode,
    SortNode,
)
from repro.blu.table import Table
from repro.config import SystemConfig, cpu_only_testbed
from repro.errors import ExecutionError
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.timing import CostEvent, CostLedger, QueryProfile, TimedResult


@dataclass
class OperatorContext:
    """Everything an executor needs: config, ledger, and the plan node."""

    config: SystemConfig
    ledger: CostLedger
    degree: int

    def wall_seconds(self, core_seconds: float,
                     max_degree: Optional[int] = None) -> float:
        """Wall clock of ``core_seconds`` of host work under processor
        sharing, on the query's threads (at most ``max_degree``)."""
        threads = self.degree
        if max_degree is not None:
            threads = min(threads, max_degree)
        return core_seconds / max(
            1.0, self.config.host.effective_capacity(threads))


# Executor signatures: (input table(s), plan node, context) -> output table.
GroupByExecutor = Callable[[Table, GroupByNode, OperatorContext], Table]
SortExecutor = Callable[[Table, SortNode, OperatorContext], Table]
JoinExecutor = Callable[[Table, Table, JoinNode, OperatorContext], Table]
# Window-sort hook: (table, sort keys, context) -> row order.  RANK "drives
# SORT", so a GPU-backed engine installs the hybrid sort's order computation
# here and the window's internal sort rides the same offload/shard path as
# ORDER BY; ``None`` keeps the stock host sort inside ``execute_rank``.
RankOrderExecutor = Callable[..., "object"]
# Fused-chain hook, tried before the per-operator group-by path with the
# engine's subtree-execute callback.  ``None`` means "not fused"; a failed
# chain re-runs through the group-by and join executors installed beside it.
FusedExecutor = Callable[
    [GroupByNode, OperatorContext,
     Callable[[PlanNode, OperatorContext], Table]],
    Optional[Table],
]


def cpu_groupby_executor(table: Table, node: GroupByNode,
                         ctx: OperatorContext) -> Table:
    """The stock Figure-1 chain: everything on the host."""
    return execute_groupby_cpu(
        table, node.keys, node.aggs, ctx.config.cost, ctx.ledger,
        max_degree=ctx.degree,
    )


def cpu_join_executor(left: Table, right: Table, node: JoinNode,
                      ctx: OperatorContext) -> Table:
    """The stock host hash join (the paper's prototype never offloads it)."""
    return execute_join(left, right, node.left_key, node.right_key,
                        ctx.config.cost, ctx.ledger, max_degree=ctx.degree)


def cpu_sort_executor(table: Table, node: SortNode,
                      ctx: OperatorContext) -> Table:
    return execute_sort_cpu(
        table, node.keys, ctx.config.cost, ctx.ledger,
        max_degree=min(ctx.degree, 24),
    )


class BluEngine:
    """Executes logical plans against a catalog with cost accounting.

    Parameters
    ----------
    catalog:
        The database to query.
    config:
        Simulated system description; defaults to the CPU-only baseline
        (stock DB2 BLU — no GPUs installed).
    default_degree:
        DB2-style query parallelism degree (Table 3 sweeps 24/48/64).
    tracer:
        Span sink; defaults to the no-op tracer.

    The ``*_executor`` attributes are the strategy hooks.  They start as
    the CPU chains (no fused or window-sort hook); the accelerated
    subclass replaces them when its config has GPUs.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: Optional[SystemConfig] = None,
        default_degree: int = 48,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.catalog = catalog
        self.config = config or cpu_only_testbed()
        self.optimizer = Optimizer(catalog)
        self.groupby_executor: GroupByExecutor = cpu_groupby_executor
        self.sort_executor: SortExecutor = cpu_sort_executor
        self.join_executor: JoinExecutor = cpu_join_executor
        self.fused_executor: Optional[FusedExecutor] = None
        self.rank_order_executor: Optional[RankOrderExecutor] = None
        self.default_degree = default_degree
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._query_counter = itertools.count(1)

    @property
    def gpu_enabled(self) -> bool:
        return self.config.gpu_count > 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def execute_plan(
        self,
        plan: PlanNode,
        query_id: Optional[str] = None,
        degree: Optional[int] = None,
    ) -> TimedResult:
        """Annotate, execute, and time one plan."""
        qid = query_id or f"q{next(self._query_counter)}"
        degree_used = degree or self.default_degree
        ledger = CostLedger(
            on_add=self._make_trace_hook(degree_used)
            if self.tracer.enabled else None
        )
        ctx = OperatorContext(
            config=self.config,
            ledger=ledger,
            degree=degree_used,
        )
        with self.tracer.span("query", query_id=qid, degree=degree_used,
                              gpu_enabled=self.gpu_enabled):
            with self.tracer.span("plan", query_id=qid):
                self.optimizer.annotate(plan)
            table = self._execute(plan, ctx)
        profile = QueryProfile(
            query_id=qid, gpu_enabled=self.gpu_enabled, events=ledger.events
        )
        return TimedResult(table=table, profile=profile)

    def _make_trace_hook(self, degree: int):
        """Ledger callback that replays event costs onto the trace clock.

        GPU-resident time is advanced by the device's own launch spans
        (transfer in / kernel / transfer out), so only the CPU portion of
        a GPU event is added here — otherwise it would count twice.
        """
        def advance(event: CostEvent) -> None:
            elapsed = event.elapsed(degree)
            if event.uses_gpu:
                elapsed -= event.gpu_seconds
            self.tracer.advance(elapsed)
        return advance

    def execute_sql(
        self,
        sql: str,
        query_id: Optional[str] = None,
        degree: Optional[int] = None,
    ) -> TimedResult:
        """Parse a SQL-subset statement and execute it."""
        from repro.blu.sql import parse_query  # local: parser imports plan

        plan = parse_query(sql, catalog=self.catalog)
        return self.execute_plan(plan, query_id=query_id, degree=degree)

    def explain_sql(self, sql: str) -> str:
        from repro.blu.plan import explain
        from repro.blu.sql import parse_query

        plan = parse_query(sql, catalog=self.catalog)
        self.optimizer.annotate(plan)
        return explain(plan)

    # ------------------------------------------------------------------
    # Plan walk
    # ------------------------------------------------------------------

    def _execute(self, node: PlanNode, ctx: OperatorContext) -> Table:
        """Execute one node inside its operator span (children nest)."""
        with self.tracer.span(_span_name(node), **_span_attributes(node)) \
                as span:
            table = self._execute_node(node, ctx)
            if self.tracer.enabled and isinstance(node, GroupByNode):
                # Estimate vs. truth on every group-by span: the hybrid
                # executor adds its KMV refinement to the same span.
                span.attributes["estimated_groups"] = float(
                    node.estimates.groups or 0.0)
                span.attributes["actual_groups"] = table.num_rows
            return table

    def _execute_node(self, node: PlanNode, ctx: OperatorContext) -> Table:
        if isinstance(node, ScanNode):
            base = self.catalog.table(node.table_name)
            return execute_scan(base, node.predicate, ctx.config.cost,
                                ctx.ledger, max_degree=min(ctx.degree * 2, 96))
        if isinstance(node, JoinNode):
            left = self._execute(node.left, ctx)
            right = self._execute(node.right, ctx)
            return self.join_executor(left, right, node, ctx)
        if isinstance(node, FilterNode):
            child = self._execute(node.child, ctx)
            return execute_scan(child, node.predicate, ctx.config.cost,
                                ctx.ledger, max_degree=min(ctx.degree * 2, 96))
        if isinstance(node, GroupByNode):
            if self.fused_executor is not None:
                fused = self.fused_executor(node, ctx, self._execute)
                if fused is not None:
                    return fused
            child = self._execute(node.child, ctx)
            return self.groupby_executor(child, node, ctx)
        if isinstance(node, SortNode):
            child = self._execute(node.child, ctx)
            return self.sort_executor(child, node, ctx)
        if isinstance(node, ProjectNode):
            child = self._execute(node.child, ctx)
            return execute_project(child, node.items, ctx.config.cost,
                                   ctx.ledger, max_degree=ctx.degree)
        if isinstance(node, RankNode):
            child = self._execute(node.child, ctx)
            order_fn = None
            if self.rank_order_executor is not None:
                def order_fn(t, keys, _ctx=ctx):
                    return self.rank_order_executor(t, keys, _ctx)
            return execute_rank(child, node, ctx.config.cost, ctx.ledger,
                                max_degree=min(ctx.degree, 24),
                                order_fn=order_fn)
        if isinstance(node, LimitNode):
            child = self._execute(node.child, ctx)
            return execute_limit(child, node.limit, ctx.config.cost, ctx.ledger)
        raise ExecutionError(f"no executor for {type(node).__name__}")


_SPAN_NAMES = {
    ScanNode: "op.scan",
    JoinNode: "op.join",
    FilterNode: "op.filter",
    GroupByNode: "op.groupby",
    SortNode: "op.sort",
    ProjectNode: "op.project",
    RankNode: "op.rank",
    LimitNode: "op.limit",
}


def _span_name(node: PlanNode) -> str:
    return _SPAN_NAMES.get(type(node), f"op.{type(node).__name__.lower()}")


def _span_attributes(node: PlanNode) -> dict:
    if isinstance(node, ScanNode):
        return {"table": node.table_name}
    if isinstance(node, JoinNode):
        return {"left_key": node.left_key, "right_key": node.right_key}
    if isinstance(node, GroupByNode):
        return {"keys": ",".join(node.keys)}
    if isinstance(node, SortNode):
        return {"keys": ",".join(k.column for k in node.keys)}
    if isinstance(node, LimitNode):
        return {"limit": node.limit}
    return {}
