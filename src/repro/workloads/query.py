"""Workload query descriptors."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence


class QueryCategory(enum.Enum):
    """BD Insights user classes (section 5.1.1)."""

    SIMPLE = "simple"              # Returns Dashboard Analysts
    INTERMEDIATE = "intermediate"  # Sales Report Analysts
    COMPLEX = "complex"            # Data Scientists
    ROLAP = "rolap"                # Cognos ROLAP analytical queries


@dataclass(frozen=True)
class WorkloadQuery:
    """One benchmark query: id, class, SQL text, and intent."""

    query_id: str
    category: QueryCategory
    sql: str
    description: str = ""


class SessionGroup(NamedTuple):
    """``sessions`` closed-loop users (a JMETER thread group), each
    running ``queries`` in order with ``think_seconds`` between them."""

    name: str
    sessions: int
    queries: Sequence[WorkloadQuery]
    think_seconds: float = 0.0
