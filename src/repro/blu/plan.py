"""Logical query plans.

Plans are small immutable trees produced either directly (the programmatic
API) or by the SQL front end.  The optimizer annotates each node with
cardinality estimates (:class:`PlanEstimates`); the engine walks the tree
bottom-up and executes it.

Supported shape — enough for the paper's workloads (star-schema analytics):

    Scan -> [Join]* -> [GroupBy] -> [Project] -> [Rank] -> [Sort] -> [Limit]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.blu.expressions import AggSpec, Expr
from repro.errors import PlanError


@dataclass
class PlanEstimates:
    """Optimizer annotations (filled by :mod:`repro.blu.optimizer`).

    ``groups`` is the optimizer's group-count estimate for GroupBy nodes —
    the metadata the paper's GPU runtime uses to size its hash table before
    the exact KMV refinement happens at run time.
    """

    rows: float = 0.0
    groups: float = 0.0
    width_bytes: float = 0.0


class PlanNode:
    """Base class for plan nodes."""

    def __init__(self) -> None:
        self.estimates = PlanEstimates()

    @property
    def children(self) -> Sequence["PlanNode"]:
        return ()

    def walk(self):
        """Yield nodes bottom-up (children before parents)."""
        for child in self.children:
            yield from child.walk()
        yield self

    def describe(self) -> str:
        raise NotImplementedError


class ScanNode(PlanNode):
    """Table scan with an optional pushed-down predicate."""

    def __init__(self, table_name: str, predicate: Optional[Expr] = None) -> None:
        super().__init__()
        self.table_name = table_name
        self.predicate = predicate

    def describe(self) -> str:
        pred = " WHERE ..." if self.predicate is not None else ""
        return f"SCAN {self.table_name}{pred}"


class JoinNode(PlanNode):
    """Equi hash join of two inputs on single key columns.

    The build side is the right input (dimension tables in a star schema);
    the probe side is the left input (the fact table or a prior join
    result).  The paper leaves joins on the CPU ("we would like to study ...
    join ... as one of our next steps"), so the engine always runs these on
    the host.
    """

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_key: str, right_key: str) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key

    @property
    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)

    def describe(self) -> str:
        return f"HASHJOIN ({self.left_key} = {self.right_key})"


class FilterNode(PlanNode):
    """Residual predicate that could not be pushed into a scan
    (e.g. a cross-table comparison evaluated after a join)."""

    def __init__(self, child: PlanNode, predicate: Expr) -> None:
        super().__init__()
        self.child = child
        self.predicate = predicate

    @property
    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        return "FILTER"


class GroupByNode(PlanNode):
    """Hash group-by with aggregations — the paper's offload target."""

    def __init__(self, child: PlanNode, keys: Sequence[str],
                 aggs: Sequence[AggSpec]) -> None:
        super().__init__()
        if not keys and not aggs:
            raise PlanError("GroupBy requires keys or aggregations")
        self.child = child
        self.keys = list(keys)
        self.aggs = list(aggs)

    @property
    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        return (f"GROUPBY keys={self.keys} "
                f"aggs=[{', '.join(a.alias for a in self.aggs)}]")


@dataclass(frozen=True)
class SortKey:
    column: str
    ascending: bool = True


class SortNode(PlanNode):
    """Multi-key sort — the paper's second offload target."""

    def __init__(self, child: PlanNode, keys: Sequence[SortKey]) -> None:
        super().__init__()
        if not keys:
            raise PlanError("Sort requires at least one key")
        self.child = child
        self.keys = list(keys)

    @property
    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        keys = ", ".join(
            f"{k.column} {'ASC' if k.ascending else 'DESC'}" for k in self.keys
        )
        return f"SORT {keys}"


class ProjectNode(PlanNode):
    """Column projection / computed expressions."""

    def __init__(self, child: PlanNode,
                 items: Sequence[tuple[str, Expr]]) -> None:
        super().__init__()
        if not items:
            raise PlanError("Project requires at least one item")
        self.child = child
        self.items = list(items)

    @property
    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        return f"PROJECT [{', '.join(name for name, _ in self.items)}]"


class RankNode(PlanNode):
    """OLAP RANK() OVER (PARTITION BY ... ORDER BY ...) — drives SORT.

    Cognos ROLAP queries "include OLAP functions like RANK() that drive
    SORT" (section 5.1.2); the engine implements RANK as a sort plus a
    grouped running rank.
    """

    def __init__(self, child: PlanNode, partition_keys: Sequence[str],
                 order_key: str, ascending: bool, alias: str) -> None:
        super().__init__()
        self.child = child
        self.partition_keys = list(partition_keys)
        self.order_key = order_key
        self.ascending = ascending
        self.alias = alias

    @property
    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        return (f"RANK() OVER (PARTITION BY {self.partition_keys} "
                f"ORDER BY {self.order_key}) AS {self.alias}")


class LimitNode(PlanNode):
    def __init__(self, child: PlanNode, limit: int) -> None:
        super().__init__()
        if limit < 0:
            raise PlanError("LIMIT must be non-negative")
        self.child = child
        self.limit = limit

    @property
    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        return f"LIMIT {self.limit}"


def explain(plan: PlanNode, indent: int = 0) -> str:
    """Render a plan tree as an indented EXPLAIN string."""
    pad = "  " * indent
    est = plan.estimates
    line = f"{pad}{plan.describe()}"
    if est.rows:
        line += f"  [rows~{est.rows:.0f}"
        if est.groups:
            line += f" groups~{est.groups:.0f}"
        line += "]"
    parts = [line]
    for child in plan.children:
        parts.append(explain(child, indent + 1))
    return "\n".join(parts)
