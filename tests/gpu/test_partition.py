"""Unit tests for splits in time: the group-by and sort terms priced by
``repro.gpu.partition.price`` (the out-of-core planner)."""

import pytest

from repro.blu.engine import OperatorContext
from repro.config import GpuSpec, SystemConfig, Thresholds
from repro.core.hybrid_groupby import partition_terms
from repro.core.hybrid_sort import slice_terms
from repro.core.pathselect import judge
from repro.gpu.kernels.radix_sort import RadixSortKernel
from repro.gpu.partition import (
    PartitionStreamState,
    groupby_working_set_bytes,
    price,
)
from repro.gpu.streams import PipelineSpec, StreamChunk, StreamPlan
from repro.timing import CostLedger


SPEC = GpuSpec()
THRESHOLDS = Thresholds()
CTX = OperatorContext(SystemConfig(), CostLedger(), degree=48)


def groupby_plan(rows=200_000, groups=2_000, capacity=1_000_000,
                 thresholds=THRESHOLDS, max_partitions=64):
    terms = partition_terms(rows, groups, 1, 3, thresholds, capacity, CTX)
    return price("groupby", terms, SPEC, capacity_bytes=capacity,
                 max_pieces=max_partitions, device_count=2)


def sort_plan(rows=200_000, capacity=1_000_000):
    terms = slice_terms(rows, RadixSortKernel(CTX.config.cost), capacity,
                        CTX)
    return price("sort", terms, SPEC, capacity_bytes=capacity,
                 max_pieces=64, device_count=2)


class TestGroupbyPlanner:
    def test_over_memory_input_splits(self):
        plan = groupby_plan()
        assert plan is not None
        assert plan.pieces >= 2 and plan.devices == ()
        assert plan.working_set_bytes > plan.capacity_bytes
        # Every partition's own working set must fit the card.
        groups_p = -(-2_000 // plan.pieces)
        assert groupby_working_set_bytes(
            -(-plan.rows // plan.pieces), groups_p, 3) <= plan.capacity_bytes

    def test_partitions_respect_t3(self):
        thresholds = Thresholds(t3_max_rows=10_000)
        plan = groupby_plan(capacity=10**12, thresholds=thresholds)
        assert plan is not None
        assert -(-plan.rows // plan.pieces) <= 10_000

    def test_reason_names_the_constraint_that_forced_the_split(self):
        by_bytes = groupby_plan()
        assert by_bytes.reason.startswith(
            f"working set ~{by_bytes.working_set_bytes} bytes > device "
            f"{by_bytes.capacity_bytes}: ")
        by_rows = groupby_plan(capacity=10**12,
                               thresholds=Thresholds(t3_max_rows=10_000))
        assert by_rows.working_set_bytes < by_rows.capacity_bytes
        assert by_rows.reason.startswith("200000 rows > T3 10000: ")
        assert "working set" not in by_rows.reason

    def test_declines_when_nothing_fits(self):
        # Even max_partitions slices cannot squeeze under a 4 KB card.
        assert groupby_plan(capacity=4 * 1024) is None

    def test_declines_on_degenerate_inputs(self):
        assert groupby_plan(rows=0) is None
        assert groupby_plan(capacity=0) is None
        assert groupby_plan(max_partitions=0) is None

    def test_costs_both_sides(self):
        plan = groupby_plan()
        assert plan.seconds > 0.0
        assert [rival.label for rival in plan.rivals] == ["cpu"]
        assert plan.rival_seconds("cpu") > 0.0
        assert 0.0 < plan.merge_seconds < plan.seconds
        assert str(plan.pieces) in plan.reason

    def test_beats_cpu_reflects_estimates(self):
        plan = groupby_plan()
        verdict = judge("partitioned gpu", plan.seconds, plan.rivals, "pays")
        assert verdict.taken == (plan.seconds < plan.rival_seconds("cpu"))

    def test_more_devices_shrink_the_makespan(self):
        terms = partition_terms(200_000, 2_000, 1, 3, THRESHOLDS,
                                1_000_000, CTX)
        one, four = (price("groupby", terms, SPEC, capacity_bytes=1_000_000,
                           max_pieces=64, device_count=n) for n in (1, 4))
        assert four.pieces == one.pieces
        assert four.seconds < one.seconds


class TestSortPlanner:
    def test_over_memory_job_splits(self):
        plan = sort_plan()
        assert plan is not None
        assert plan.pieces >= 2
        assert -(-plan.rows // plan.pieces) * 16 <= plan.capacity_bytes

    def test_declines_when_no_slice_fits(self):
        # 64 slices of >3k rows each still need >48 KB of device memory.
        assert sort_plan(capacity=1024) is None

    def test_merge_priced_only_when_split(self):
        wide = sort_plan(rows=50_000, capacity=10**12)
        assert wide.pieces == 1 and wide.merge_seconds == 0.0
        split = sort_plan()
        assert split.merge_seconds > 0.0


class TestPartitionStreamState:
    CHUNKS = [
        StreamChunk(bytes_in=1000, bytes_out=500, kernel_seconds=3e-4,
                    h2d_seconds=1e-4, d2h_seconds=5e-5),
        StreamChunk(bytes_in=1000, bytes_out=500, kernel_seconds=2e-4,
                    h2d_seconds=2e-4, d2h_seconds=5e-5),
        StreamChunk(bytes_in=1000, bytes_out=500, kernel_seconds=4e-4,
                    h2d_seconds=1e-4, d2h_seconds=1e-4),
        StreamChunk(bytes_in=1000, bytes_out=500, kernel_seconds=1e-4,
                    h2d_seconds=3e-4, d2h_seconds=5e-5),
    ]

    def test_exposed_deltas_sum_to_streamed_makespan(self):
        """The incremental recurrence must agree with StreamPlan.schedule:
        per-partition exposed contributions on one device sum exactly to
        the overlapped makespan of the same chunks."""
        plan = StreamPlan(
            chunks=tuple(self.CHUNKS),
            pipeline=PipelineSpec(depth=len(self.CHUNKS)),
            serial_in=sum(c.h2d_seconds for c in self.CHUNKS),
            serial_kernel=sum(c.kernel_seconds for c in self.CHUNKS),
            serial_out=sum(c.d2h_seconds for c in self.CHUNKS),
        )
        want = plan.schedule().total_seconds
        state = PartitionStreamState()
        got = sum(
            state.advance(0, c.h2d_seconds, c.kernel_seconds, c.d2h_seconds)
            for c in self.CHUNKS
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_devices_tracked_independently(self):
        state = PartitionStreamState()
        a = state.advance(0, 1e-4, 3e-4, 5e-5)
        b = state.advance(1, 1e-4, 3e-4, 5e-5)
        assert a == pytest.approx(b)          # fresh pipelines, same cost

    def test_exposed_never_negative(self):
        state = PartitionStreamState()
        for _ in range(8):
            assert state.advance(0, 1e-4, 1e-6, 1e-4) >= 0.0

    def test_overlap_hides_copies(self):
        """With kernels dominating, steady-state exposure approaches the
        kernel time: copies hide under neighbouring kernels."""
        state = PartitionStreamState()
        state.advance(0, 1e-4, 1e-3, 1e-4)
        exposed = [state.advance(0, 1e-4, 1e-3, 1e-4) for _ in range(6)]
        for delta in exposed:
            assert delta == pytest.approx(1e-3, rel=1e-6)
