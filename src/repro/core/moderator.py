"""The GPU moderator: runtime kernel selection and racing (section 4.2).

Given one group-by's runtime metadata, the moderator picks the kernel that
"can finish the computation in the fastest time using the fewest
resources":

- very small group counts whose table fits an SMX's shared memory ->
  kernel 2 (:class:`SharedMemoryGroupByKernel`);
- many aggregation functions (> 5) or a low rows/groups ratio ->
  kernel 3 (:class:`GlobalLockGroupByKernel`);
- everything else -> kernel 1 (:class:`RegularGroupByKernel`).

When the device has spare resources the moderator can *race* several
kernels on the same query and keep the first finisher, cancelling the rest
(the cancelled work is accounted — it occupied the device).

The paper's feedback-learning moderator is "not yet implemented" there; we
ship it as :class:`LearningModerator`, a documented extension that records
observed kernel times per query-shape bucket and converges on the winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.config import CostModel, Thresholds
from repro.core.metadata import RuntimeMetadata
from repro.errors import HashTableOverflowError
from repro.obs.tracing import NULL_TRACER
from repro.gpu.kernels.groupby_biglock import GlobalLockGroupByKernel
from repro.gpu.kernels.groupby_regular import RegularGroupByKernel
from repro.gpu.kernels.groupby_shared import SharedMemoryGroupByKernel
from repro.gpu.kernels.request import GroupByKernelResult, GroupByRequest


@dataclass
class RaceOutcome:
    """Result of (possibly) racing kernels: winner + cancelled losers."""

    winner: GroupByKernelResult
    cancelled: list[str] = field(default_factory=list)
    wasted_device_seconds: float = 0.0
    overflow_retries: int = 0      # hash-table regrow attempts, all kernels

    @property
    def raced(self) -> bool:
        return bool(self.cancelled)


class GpuModerator:
    """Metadata-driven kernel selection."""

    def __init__(self, cost: CostModel, thresholds: Thresholds,
                 smx_count: int = 15, shared_bytes: int = 48 * 1024) -> None:
        self.cost = cost
        self.thresholds = thresholds
        self.kernel_regular = RegularGroupByKernel(cost)
        self.kernel_shared = SharedMemoryGroupByKernel(
            cost, smx_count=smx_count, shared_bytes=shared_bytes
        )
        self.kernel_biglock = GlobalLockGroupByKernel(cost)
        self.decisions: list[tuple[str, str]] = []   # (kernel, reason) log
        self.tracer = NULL_TRACER       # wired in by the accelerated engine

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def choose(self, metadata: RuntimeMetadata) -> tuple[object, str]:
        """Pick one kernel for this metadata; returns (kernel, reason)."""
        groups = metadata.estimated_groups
        request_shape = GroupByRequest(
            keys=_EMPTY_KEYS, key_bits=metadata.key_bits,
            payloads=metadata.payloads, estimated_groups=groups,
        )
        if (groups <= self.thresholds.small_groups_kernel_max_groups
                and self.kernel_shared.fits(request_shape)):
            cap = self.kernel_shared.shared_capacity_groups(request_shape)
            reason = (f"groups~{groups} fit in shared memory "
                      f"(cap {cap})")
            self.decisions.append((self.kernel_shared.name, reason))
            return self.kernel_shared, reason
        if metadata.num_aggs > self.thresholds.many_aggs_threshold:
            reason = (f"{metadata.num_aggs} aggregation functions "
                      f"> {self.thresholds.many_aggs_threshold}: "
                      "row lock wins")
            self.decisions.append((self.kernel_biglock.name, reason))
            return self.kernel_biglock, reason
        if (metadata.rows_per_group < self.thresholds.low_contention_ratio
                and metadata.num_aggs
                >= self.thresholds.many_aggs_threshold):
            reason = (f"rows/groups~{metadata.rows_per_group:.1f} "
                      "is low contention: per-payload atomics are waste")
            self.decisions.append((self.kernel_biglock.name, reason))
            return self.kernel_biglock, reason
        reason = "regular query"
        self.decisions.append((self.kernel_regular.name, reason))
        return self.kernel_regular, reason

    def candidates(self, metadata: RuntimeMetadata) -> list[object]:
        """All kernels applicable to this metadata (for racing)."""
        out: list[object] = [self.kernel_regular, self.kernel_biglock]
        shape = GroupByRequest(
            keys=_EMPTY_KEYS, key_bits=metadata.key_bits,
            payloads=metadata.payloads,
            estimated_groups=metadata.estimated_groups,
        )
        if self.kernel_shared.fits(shape):
            out.insert(0, self.kernel_shared)
        return out

    # ------------------------------------------------------------------
    # Execution (single or raced)
    # ------------------------------------------------------------------

    def run(self, request: GroupByRequest, metadata: RuntimeMetadata,
            race: bool = False) -> RaceOutcome:
        """Run the chosen kernel, or race all candidates when asked.

        Handles the hash-table overflow error path by growing the table and
        retrying; the failed attempt's device time is charged as waste.
        """
        if not race:
            kernel, reason = self.choose(metadata)
            result, wasted, retries = _run_with_regrow(kernel, request)
            self.tracer.instant("moderator.run", kernel=result.kernel,
                                reason=reason, raced=False,
                                overflow_retries=retries)
            return RaceOutcome(winner=result, wasted_device_seconds=wasted,
                               overflow_retries=retries)

        outcomes: list[GroupByKernelResult] = []
        wasted = 0.0
        retries = 0
        for kernel in self.candidates(metadata):
            result, retried, kernel_retries = _run_with_regrow(kernel, request)
            wasted += retried
            retries += kernel_retries
            outcomes.append(result)
        winner = min(outcomes, key=lambda r: r.kernel_seconds)
        cancelled = []
        for result in outcomes:
            if result is winner:
                continue
            cancelled.append(result.kernel)
            # A cancelled kernel occupied the device until the winner
            # finished (then it was stopped).
            wasted += min(result.kernel_seconds, winner.kernel_seconds)
        self.tracer.instant("moderator.run", kernel=winner.kernel,
                            raced=True, cancelled=",".join(cancelled),
                            overflow_retries=retries)
        return RaceOutcome(winner=winner, cancelled=cancelled,
                           wasted_device_seconds=wasted,
                           overflow_retries=retries)


def _run_with_regrow(
    kernel, request: GroupByRequest, max_attempts: int = 8,
) -> tuple[GroupByKernelResult, float, int]:
    """The error-detection code path: grow the table and retry on overflow.

    Returns (result, wasted device seconds, retry count) so callers can
    account both the occupied-device waste and the retry events.
    """
    wasted = 0.0
    headroom = 1.5
    grown = replace(request, factors=request.groups(),
                    estimated_groups=max(1, request.estimated_groups))
    for attempt in range(max_attempts):
        try:
            result = kernel.run(grown, headroom=headroom)
            return result, wasted, attempt
        except HashTableOverflowError:
            # Charge the aborted attempt: it initialised the undersized
            # table and streamed the keys at it before detecting overflow.
            wasted += (kernel.table_bytes(grown)
                       / kernel.cost.gpu_init_rate) + (
                request.rows / kernel.cost.gpu_ht_insert_rate
            )
            grown = replace(grown,
                            estimated_groups=grown.estimated_groups * 4)
    raise HashTableOverflowError(
        f"group-by did not fit after {max_attempts} regrow attempts"
    )


# A zero-length placeholder for shape-only requests (no data needed).
_EMPTY_KEYS = np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Extension: the feedback-learning moderator the paper describes as future
# work ("The moderator can then learn over time which of the kernels to use,
# given a specific type of query. This feature is not yet implemented.")
# ---------------------------------------------------------------------------


@dataclass
class _BucketStats:
    runs: dict[str, list[float]] = field(default_factory=dict)

    def record(self, kernel: str, seconds: float) -> None:
        self.runs.setdefault(kernel, []).append(seconds)

    def best(self) -> Optional[str]:
        means = {
            k: sum(v) / len(v) for k, v in self.runs.items() if v
        }
        if not means:
            return None
        return min(means, key=means.get)

    def tried(self, kernel: str) -> bool:
        return kernel in self.runs


class LearningModerator(GpuModerator):
    """Moderator that learns kernel preferences per query-shape bucket.

    Query shape is bucketed on (log10 rows, log10 groups, #aggs clipped).
    Until every candidate kernel has been tried in a bucket the moderator
    explores (round-robin over untried kernels); afterwards it exploits the
    kernel with the best observed mean.
    """

    def __init__(self, cost: CostModel, thresholds: Thresholds,
                 **kwargs) -> None:
        super().__init__(cost, thresholds, **kwargs)
        self._buckets: dict[tuple, _BucketStats] = {}

    def bucket_of(self, metadata: RuntimeMetadata) -> tuple:
        return (
            int(math.log10(max(metadata.rows, 1))),
            int(math.log10(max(metadata.estimated_groups, 1))),
            min(metadata.num_aggs, 8),
        )

    def choose(self, metadata: RuntimeMetadata) -> tuple[object, str]:
        bucket = self._buckets.setdefault(self.bucket_of(metadata),
                                          _BucketStats())
        candidates = self.candidates(metadata)
        for kernel in candidates:
            if not bucket.tried(kernel.name):
                reason = (f"exploring {kernel.name} for bucket "
                          f"{self.bucket_of(metadata)}")
                self.decisions.append((kernel.name, reason))
                return kernel, reason
        best_name = bucket.best()
        for kernel in candidates:
            if kernel.name == best_name:
                reason = ("learned winner for bucket "
                          f"{self.bucket_of(metadata)}")
                self.decisions.append((kernel.name, reason))
                return kernel, reason
        return super().choose(metadata)

    def record_observation(self, metadata: RuntimeMetadata,
                           kernel_name: str, seconds: float) -> None:
        bucket = self._buckets.setdefault(self.bucket_of(metadata),
                                          _BucketStats())
        bucket.record(kernel_name, seconds)

    def run(self, request: GroupByRequest, metadata: RuntimeMetadata,
            race: bool = False) -> RaceOutcome:
        outcome = super().run(request, metadata, race=race)
        self.record_observation(metadata, outcome.winner.kernel,
                                outcome.winner.kernel_seconds)
        return outcome
