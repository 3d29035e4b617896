"""Optimizer-driven execution-path selection — Figure 3 (section 4.1).

Three-way routing on the optimizer's row/group estimates:

- rows < T1 (or groups < T2): the CPU is already fast, and the PCIe
  round-trip would cost more than the kernel saves -> stock CPU chain;
- T1 <= rows <= T3 and groups >= T2: the common analytic case -> GPU;
- rows > T3 (or a working set estimated over device memory): the input
  does not fit the card.  The paper stops here ("in our current
  implementation, all of the large queries are processed in the CPU");
  this implementation then asks
  :meth:`repro.core.dispatch.Dispatcher.split` whether the operator
  should split in time, and upgrades the verdict to *pipelined GPU
  (partitioned)* whenever the priced plan beats the stock CPU chain.

Sort offload gets the analogous small-job cutoff from section 3.  Those
two are the paper's, and they are thresholds.  Everything past them —
splitting in time, splitting in space, fusing a chain — is a *price*
judged by the one cost gate, :func:`judge`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.config import Thresholds
from repro.obs.tracing import Tracer


class ExecutionPath(enum.Enum):
    CPU_SMALL = "cpu-small"      # below T1/T2: not worth the transfer
    GPU = "gpu"                  # the offload sweet spot
    CPU_LARGE = "cpu-large"      # above T3: exceeds device memory


@dataclass(frozen=True)
class PathDecision:
    """Where a group-by runs, and why (for monitoring/EXPLAIN output)."""

    path: ExecutionPath
    reason: str

    @property
    def use_gpu(self) -> bool:
        return self.path is ExecutionPath.GPU


def select_groupby_path(
    rows: float,
    estimated_groups: float,
    thresholds: Thresholds,
    tracer: Optional[Tracer] = None,
    working_set_bytes: int = 0,
    device_capacity_bytes: int = 0,
) -> PathDecision:
    """Apply the Figure 3 decision tree to one group-by.

    ``working_set_bytes``/``device_capacity_bytes``, when both supplied,
    extend the T3 row check with the real over-memory condition: a
    working set estimated above device capacity draws the CPU_LARGE
    verdict even when the row count sits under T3 (the row threshold is
    calibrated for typical group-by shapes; wide payload lists blow the
    budget earlier).

    A tracer, when supplied, receives a zero-duration ``pathselect.groupby``
    mark carrying the inputs and the outcome — the observability layer's
    view of every routing decision.
    """
    decision = _groupby_decision(rows, estimated_groups, thresholds,
                                 working_set_bytes, device_capacity_bytes)
    if tracer is not None:
        trace_groupby_path(tracer, decision, rows, estimated_groups,
                           thresholds, working_set_bytes,
                           device_capacity_bytes)
    return decision


def trace_groupby_path(tracer: Tracer, decision: PathDecision, rows: float,
                       estimated_groups: float, thresholds: Thresholds,
                       working_set_bytes: int = 0,
                       device_capacity_bytes: int = 0) -> None:
    """Leave the ``pathselect.groupby`` mark of a decision already made
    (the fused chain decides first and marks only when it fuses)."""
    tracer.instant(
        "pathselect.groupby",
        rows=int(rows), groups=int(estimated_groups),
        t1=thresholds.t1_min_rows, t2=thresholds.t2_min_groups,
        t3=thresholds.t3_max_rows,
        working_set=int(working_set_bytes),
        capacity=int(device_capacity_bytes),
        path=decision.path.value, reason=decision.reason,
    )


def _groupby_decision(
    rows: float,
    estimated_groups: float,
    thresholds: Thresholds,
    working_set_bytes: int = 0,
    device_capacity_bytes: int = 0,
) -> PathDecision:
    if rows > thresholds.t3_max_rows:
        return PathDecision(
            ExecutionPath.CPU_LARGE,
            f"rows~{rows:.0f} > T3={thresholds.t3_max_rows}: "
            "exceeds GPU memory, processed on CPU",
        )
    if 0 < device_capacity_bytes < working_set_bytes:
        return PathDecision(
            ExecutionPath.CPU_LARGE,
            f"working set ~{working_set_bytes} bytes > device memory "
            f"{device_capacity_bytes}: exceeds GPU memory, "
            "processed on CPU",
        )
    if rows < thresholds.t1_min_rows:
        return PathDecision(
            ExecutionPath.CPU_SMALL,
            f"rows~{rows:.0f} < T1={thresholds.t1_min_rows}: "
            "transfer cost would dominate",
        )
    if estimated_groups < thresholds.t2_min_groups:
        return PathDecision(
            ExecutionPath.CPU_SMALL,
            f"groups~{estimated_groups:.0f} < T2={thresholds.t2_min_groups}: "
            "CPU is already fast for tiny group counts",
        )
    return PathDecision(
        ExecutionPath.GPU,
        f"rows~{rows:.0f} in [T1, T3] and groups~{estimated_groups:.0f} >= T2",
    )


@dataclass(frozen=True)
class Verdict:
    """What a cost gate decided, and why (for the instant and EXPLAIN)."""

    taken: bool
    reason: str


def judge(challenger: str, seconds: float, rivals, wins: str,
          refused: Optional[str] = None) -> Verdict:
    """The one cost gate behind every "does this alternative pay?".

    A candidate that was filtered out or could not be priced is
    ``refused`` with its stated reason.  Otherwise the challenger's
    predicted ``seconds`` must *strictly* beat each rival
    (:class:`repro.gpu.partition.Rival`) in order, and the first it does
    not beat names the refusal; ``wins`` is the reason a taken verdict
    carries.  Deliberately not a minimum over every candidate — see
    ``docs/cost_model.md``, "How a split is priced and judged".
    """
    if refused is not None:
        return Verdict(False, refused)
    for rival in rivals:
        if not seconds < rival.seconds:
            return Verdict(
                False,
                f"{challenger}~{seconds * 1e3:.3f}ms >= {rival.label}"
                f"~{rival.seconds * 1e3:.3f}ms: {rival.refusal}")
    return Verdict(True, wins)


def select_sort_offload(rows: int, thresholds: Thresholds,
                        tracer: Optional[Tracer] = None) -> bool:
    """Is a sort large enough that GPU jobs pay for their transfers?"""
    offload = rows >= thresholds.sort_min_rows
    if tracer is not None:
        tracer.instant("pathselect.sort", rows=int(rows),
                       threshold=thresholds.sort_min_rows, offload=offload)
    return offload
