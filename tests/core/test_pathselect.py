"""Unit tests for Figure-3 path selection and the one cost gate."""

import pytest

from repro.config import Thresholds
from repro.core.pathselect import (
    ExecutionPath,
    judge,
    select_groupby_path,
    select_sort_offload,
)
from repro.gpu.partition import Rival


@pytest.fixture()
def thresholds():
    return Thresholds(t1_min_rows=1000, t2_min_groups=8,
                      t3_max_rows=1_000_000, sort_min_rows=1000)


class TestGroupByRouting:
    def test_small_rows_stay_on_cpu(self, thresholds):
        decision = select_groupby_path(500, 100, thresholds)
        assert decision.path is ExecutionPath.CPU_SMALL
        assert not decision.use_gpu
        assert "T1" in decision.reason

    def test_tiny_group_counts_stay_on_cpu(self, thresholds):
        decision = select_groupby_path(50_000, 3, thresholds)
        assert decision.path is ExecutionPath.CPU_SMALL
        assert "T2" in decision.reason

    def test_sweet_spot_goes_to_gpu(self, thresholds):
        decision = select_groupby_path(50_000, 500, thresholds)
        assert decision.path is ExecutionPath.GPU
        assert decision.use_gpu

    def test_oversized_goes_back_to_cpu(self, thresholds):
        decision = select_groupby_path(2_000_000, 10_000, thresholds)
        assert decision.path is ExecutionPath.CPU_LARGE
        assert "T3" in decision.reason

    def test_boundaries_inclusive(self, thresholds):
        at_t1 = select_groupby_path(1000, 100, thresholds)
        assert at_t1.path is ExecutionPath.GPU
        at_t2 = select_groupby_path(50_000, 8, thresholds)
        assert at_t2.path is ExecutionPath.GPU
        at_t3 = select_groupby_path(1_000_000, 100, thresholds)
        assert at_t3.path is ExecutionPath.GPU

    def test_t3_checked_before_t1(self, thresholds):
        """An enormous input routes to CPU_LARGE even with many groups."""
        decision = select_groupby_path(10**9, 10**6, thresholds)
        assert decision.path is ExecutionPath.CPU_LARGE


class TestSortRouting:
    def test_threshold(self, thresholds):
        assert not select_sort_offload(999, thresholds)
        assert select_sort_offload(1000, thresholds)
        assert select_sort_offload(10**6, thresholds)


class TestCostGate:
    """``judge``: refused candidates keep their reason; otherwise the
    challenger must strictly beat each rival, in order."""

    RIVALS = (Rival("single-device", 2e-3, "contention outweighs"),
              Rival("cpu", 3e-3, "would not pay"))

    def test_beating_every_rival_takes_the_path(self):
        verdict = judge("sharded", 1e-3, self.RIVALS, "4 shards: pays")
        assert verdict.taken and verdict.reason == "4 shards: pays"

    def test_first_unbeaten_rival_names_the_refusal(self):
        verdict = judge("sharded", 5e-3, self.RIVALS, "pays")
        assert not verdict.taken
        assert verdict.reason == ("sharded~5.000ms >= single-device"
                                  "~2.000ms: contention outweighs")

    def test_later_rivals_are_judged_in_order(self):
        verdict = judge("sharded", 2.5e-3, self.RIVALS[::-1], "pays")
        assert verdict.taken is False
        assert verdict.reason == ("sharded~2.500ms >= single-device"
                                  "~2.000ms: contention outweighs")
        verdict = judge("sharded", 2.5e-3, self.RIVALS[1:], "pays")
        assert verdict.taken

    def test_a_tie_is_a_refusal(self):
        assert not judge("partitioned gpu", 3e-3, self.RIVALS[1:],
                         "pays").taken

    def test_it_is_not_a_global_minimum(self):
        """Losing to the CPU refuses the *split*, not the GPU: the
        single device was never compared with the CPU, so the caller
        keeps whole-job dispatch (docs/cost_model.md)."""
        rivals = (Rival("single-device", 9e-3, "contention outweighs"),
                  Rival("cpu", 1e-3, "sharding would not pay"))
        verdict = judge("sharded", 2e-3, rivals, "pays")
        assert verdict.reason == ("sharded~2.000ms >= cpu~1.000ms: "
                                  "sharding would not pay")

    def test_refused_candidate_keeps_its_stated_reason(self):
        verdict = judge("sharded", 0.0, (), "pays",
                        refused="fewer than two healthy home devices")
        assert not verdict.taken
        assert verdict.reason == "fewer than two healthy home devices"
