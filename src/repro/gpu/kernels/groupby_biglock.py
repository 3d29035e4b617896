"""Kernel 3 — many aggregation functions / low contention (section 4.3.3).

Structurally kernel 1 (global device hash table, parallel inserts), but the
aggregation takes one *global row lock* per matched entry and then applies
every aggregation function under that single lock, instead of paying an
atomic (or lock) per payload.  This wins when the number of aggregation
functions is large (> 5) or when rows/groups is small so per-payload atomic
overhead is pure waste.
"""

from __future__ import annotations

from repro.gpu.kernels.groupby_regular import RegularGroupByKernel
from repro.gpu.kernels.request import GroupByKernelResult, GroupByRequest


class GlobalLockGroupByKernel(RegularGroupByKernel):
    """Row-lock aggregation variant of the hash group-by."""

    name = "groupby_biglock"
    row_lock = True

    def run(self, request: GroupByRequest,
            headroom: float = 1.5) -> GroupByKernelResult:
        """Kernel 1's insert, then one row lock per matched entry (its own
        method, so a tracer can tell the two kernels' launches apart)."""
        return super().run(request, headroom)
