"""Unit tests for shard maps and the sharded-execution planner."""

import numpy as np
import pytest

from repro.config import CostModel, GpuSpec, HostSpec
from repro.core.pathselect import select_sharded_path
from repro.gpu.interconnect import Interconnect
from repro.gpu.shard import (
    ShardError,
    ShardMap,
    build_shard_map,
    hash_shard_assignment,
    home_devices,
    plan_sharded,
    range_shard_bounds,
    split_rows,
)
from repro.obs.tracing import Tracer


class TestShardMap:
    def test_validation(self):
        with pytest.raises(ShardError):
            ShardMap("sales", "round-robin", (0, 1))
        with pytest.raises(ShardError):
            ShardMap("sales", "hash", ())

    def test_device_for_wraps(self):
        shard_map = build_shard_map("sales", [2, 5], kind="range")
        assert shard_map.shard_count == 2
        assert shard_map.device_for(0) == 2
        assert shard_map.device_for(1) == 5
        assert shard_map.device_for(2) == 2

    def test_without_device_redistributes(self):
        shard_map = build_shard_map("sales", [0, 1, 2])
        rebalanced = shard_map.without_device(1)
        assert rebalanced.devices == (0, 2)
        assert rebalanced.table == "sales" and rebalanced.kind == "hash"

    def test_without_last_device_routes_to_cpu(self):
        shard_map = build_shard_map("sales", [3])
        assert shard_map.without_device(3).devices == (-1,)


class TestRowSplitHelpers:
    def test_hash_assignment_is_disjoint_and_stable(self):
        hashes = np.arange(1000, dtype=np.uint64) * np.uint64(2654435761)
        assignment = hash_shard_assignment(hashes, 4)
        assert assignment.min() >= 0 and assignment.max() < 4
        # Same hashes, same shards: the split is a pure function.
        np.testing.assert_array_equal(
            assignment, hash_shard_assignment(hashes, 4))

    @pytest.mark.parametrize("parts", [1, 2, 7, 64, 300])
    def test_split_rows_equals_a_scan_per_part(self, parts):
        rng = np.random.default_rng(parts)
        # Leave the top part empty: empty pieces must still be listed.
        part_of_row = rng.integers(0, max(1, parts - 1), 5_000)
        pieces = split_rows(part_of_row, parts)
        assert len(pieces) == parts
        for p, rows in enumerate(pieces):
            np.testing.assert_array_equal(
                rows, np.nonzero(part_of_row == p)[0])

    def test_range_bounds_cover_all_rows(self):
        bounds = range_shard_bounds(1003, 4)
        assert bounds[0] == 0 and bounds[-1] == 1003
        assert len(bounds) == 5
        widths = np.diff(bounds)
        assert widths.min() >= 0 and widths.sum() == 1003


class _StubScheduler:
    def __init__(self, healthy):
        self._healthy = list(healthy)

    def healthy_device_ids(self):
        return list(self._healthy)


class _StubCatalog:
    def __init__(self, maps=()):
        self._maps = list(maps)

    def shard_maps(self):
        return list(self._maps)


class TestHomeDevices:
    def test_defaults_to_every_healthy_device(self):
        assert home_devices(_StubScheduler([0, 1, 2]), None, "sales") \
            == (0, 1, 2)

    def test_registered_map_pins_placement(self):
        catalog = _StubCatalog([build_shard_map("sales", [1, 3])])
        scheduler = _StubScheduler([0, 1, 2, 3])
        assert home_devices(scheduler, catalog, "sales") == (1, 3)

    def test_intermediates_inherit_base_table_map(self):
        catalog = _StubCatalog([build_shard_map("sales", [1, 3])])
        scheduler = _StubScheduler([0, 1, 2, 3])
        assert home_devices(scheduler, catalog, "sales__probe") == (1, 3)

    def test_unhealthy_pinned_devices_fall_back(self):
        catalog = _StubCatalog([build_shard_map("sales", [1, 3])])
        # Only one pinned device survives: the map no longer describes a
        # usable split, so every healthy device hosts a shard instead.
        scheduler = _StubScheduler([0, 1, 2])
        assert home_devices(scheduler, catalog, "sales") == (0, 1, 2)


def make_plan(devices=(0, 1, 2, 3), *, rows=1_000_000,
              nvlink=True, **overrides):
    spec = GpuSpec()
    interconnect = Interconnect(
        link_bandwidth=spec.pcie_pinned_bw,
        switch_bandwidth=96.0e9,
        setup_overhead=spec.transfer_setup_overhead,
        nvlink_enabled=nvlink,
    )
    kwargs = dict(
        operator="groupby",
        rows=rows,
        staged_bytes=rows * 16,
        result_bytes=rows,
        kernel_seconds=0.040,
        exchange_bytes=rows,
        merge_core_seconds=0.001,
        devices=tuple(devices),
        cost=CostModel(),
        spec=spec,
        host=HostSpec(),
        degree=32,
        interconnect=interconnect,
        cpu_seconds=0.100,
    )
    kwargs.update(overrides)
    return plan_sharded(**kwargs)


class TestPlanSharded:
    def test_declines_degenerate_splits(self):
        assert make_plan(devices=(0,)) is None          # one device
        assert make_plan(devices=()) is None            # no devices
        assert make_plan(rows=0) is None                # nothing to split
        assert make_plan(devices=(0, -1)) is None       # CPU-routed shard

    def test_kernel_heavy_job_beats_single_device(self):
        plan = make_plan()
        assert plan is not None and plan.shards == 4
        assert plan.beats_single and plan.beats_cpu
        assert plan.gpu_seconds < plan.single_seconds

    def test_more_devices_shrink_the_makespan(self):
        two = make_plan(devices=(0, 1))
        four = make_plan(devices=(0, 1, 2, 3))
        assert four.gpu_seconds < two.gpu_seconds

    def test_broadcast_and_replicated_work_ride_every_shard(self):
        base = make_plan()
        heavy = make_plan(broadcast_bytes=1 << 26,
                          replicated_kernel_seconds=0.010)
        # The replicated parts do not divide, so both rivals pay more —
        # but the sharded side pays them once *per shard wave*.
        assert heavy.gpu_seconds > base.gpu_seconds
        assert heavy.single_seconds > base.single_seconds

    def test_exchange_and_stall_are_reported(self):
        plan = make_plan(nvlink=False)
        assert plan.exchange_seconds > 0
        assert plan.stall_seconds >= 0
        assert plan.shard_rows == 250_000

    def test_nvlink_cheapens_the_exchange(self):
        meshed = make_plan(nvlink=True)
        bounced = make_plan(nvlink=False)
        assert meshed.exchange_seconds < bounced.exchange_seconds


class TestSelectShardedPath:
    def test_disabled_knob_keeps_whole_job(self):
        decision = select_sharded_path(
            operator="groupby", plan=make_plan(), enabled=False)
        assert not decision.shard
        assert "disabled" in decision.reason

    def test_no_plan_keeps_whole_job(self):
        decision = select_sharded_path(operator="groupby", plan=None)
        assert not decision.shard
        assert "healthy home devices" in decision.reason

    def test_winning_plan_shards(self):
        tracer = Tracer()
        decision = select_sharded_path(
            operator="groupby", plan=make_plan(), tracer=tracer)
        assert decision.shard
        assert decision.shards == 4 and decision.devices == (0, 1, 2, 3)
        (instant,) = [s for s in tracer.spans
                      if s.name == "pathselect.shard"]
        assert instant.attributes["shard"] is True
        assert instant.attributes["devices"] == [0, 1, 2, 3]

    def test_losing_plan_explains_itself(self):
        # A tiny kernel makes the split overhead-bound: the sharded
        # estimate loses to the single-device run and the verdict says
        # which rival won.
        plan = make_plan(rows=1000, staged_bytes=16_000, result_bytes=1000,
                         kernel_seconds=1e-6, exchange_bytes=1000,
                         cpu_seconds=10.0)
        tracer = Tracer()
        decision = select_sharded_path(
            operator="sort", plan=plan, tracer=tracer)
        assert not decision.shard
        assert "single-device" in decision.reason
        (instant,) = [s for s in tracer.spans
                      if s.name == "pathselect.shard"]
        assert instant.attributes["shard"] is False

    def test_plan_that_loses_to_cpu_keeps_whole_job(self):
        plan = make_plan(cpu_seconds=1e-9)
        decision = select_sharded_path(operator="join", plan=plan)
        assert not decision.shard
        assert "cpu" in decision.reason
