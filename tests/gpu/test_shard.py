"""Unit tests for shard maps, splits in space as ``repro.gpu.partition.
price`` prices them, and the shard gate behind ``Dispatcher.split``."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.blu.engine import OperatorContext
from repro.config import GpuSpec, paper_testbed
from repro.core.dispatch import Dispatcher
from repro.core.scheduler import MultiGpuScheduler
from repro.gpu.device import make_devices
from repro.gpu.interconnect import Interconnect
from repro.gpu.partition import PieceTerms, SplitTerms, price
from repro.gpu.shard import (
    ShardError,
    ShardMap,
    build_shard_map,
    hash_shard_assignment,
    home_devices,
    range_shard_bounds,
    split_rows,
)
from repro.obs.tracing import Tracer
from repro.timing import CostLedger


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


def make_terms(rows=1_000_000, *, staged_bytes=None, result_bytes=None,
               kernel_seconds=0.040, exchange_bytes=None, cpu_seconds=0.100,
               broadcast_bytes=0, replicated_kernel_seconds=0.0):
    """A hash-shard shaped operator: everything divides by the piece
    count except the broadcast bytes and the replicated kernel work."""
    staged = rows * 16 if staged_bytes is None else staged_bytes
    result = rows if result_bytes is None else result_bytes
    return SplitTerms(
        rows=rows, cpu_seconds=cpu_seconds,
        exchange_bytes=rows if exchange_bytes is None else exchange_bytes,
        piece=lambda pieces: PieceTerms(
            staged_bytes=-(-staged // pieces) + broadcast_bytes,
            result_bytes=-(-result // pieces),
            kernel=(kernel_seconds / pieces, replicated_kernel_seconds),
            merge_seconds=4e-5))


def make_plan(devices=(0, 1, 2, 3), *, nvlink=True, **terms):
    spec = GpuSpec()
    interconnect = Interconnect(
        link_bandwidth=spec.pcie_pinned_bw,
        switch_bandwidth=96.0e9,
        setup_overhead=spec.transfer_setup_overhead,
        nvlink_enabled=nvlink,
    )
    return price("groupby", make_terms(**terms), spec,
                 devices=tuple(devices), interconnect=interconnect)


class TestPlanSharded:
    """``price`` with home devices: a split in space."""

    def test_declines_degenerate_splits(self):
        assert make_plan(devices=(0,)) is None          # one device
        assert make_plan(devices=()) is None            # no devices
        assert make_plan(rows=0) is None                # nothing to split
        assert make_plan(devices=(0, -1)) is None       # CPU-routed shard

    def test_kernel_heavy_job_beats_single_device(self):
        plan = make_plan()
        assert plan is not None and plan.pieces == 4
        assert plan.devices == (0, 1, 2, 3)
        # The rivals, in the order the gate judges them.
        assert [r.label for r in plan.rivals] == ["single-device", "cpu"]
        assert plan.seconds < plan.rival_seconds("single-device")
        assert plan.seconds < plan.rival_seconds("cpu")

    def test_more_devices_shrink_the_makespan(self):
        two = make_plan(devices=(0, 1))
        four = make_plan(devices=(0, 1, 2, 3))
        assert four.seconds < two.seconds

    def test_broadcast_and_replicated_work_ride_every_shard(self):
        base = make_plan()
        heavy = make_plan(broadcast_bytes=1 << 26,
                          replicated_kernel_seconds=0.010)
        # The replicated parts do not divide, so both rivals pay more —
        # but the sharded side pays them once *per shard wave*.
        assert heavy.seconds > base.seconds
        assert heavy.rival_seconds("single-device") \
            > base.rival_seconds("single-device")

    def test_exchange_and_stall_are_reported(self):
        plan = make_plan(nvlink=False)
        assert plan.exchange_seconds > 0
        assert plan.stall_seconds >= 0
        assert -(-plan.rows // plan.pieces) == 250_000
        assert plan.reason == ("4 shards of ~250000 rows across devices "
                               "(0, 1, 2, 3)")

    def test_nvlink_cheapens_the_exchange(self):
        meshed = make_plan(nvlink=True)
        bounced = make_plan(nvlink=False)
        assert meshed.exchange_seconds < bounced.exchange_seconds


def make_dispatch(devices=4, shard=True):
    """A dispatcher over ``devices`` healthy cards, and a context."""
    config = dataclasses.replace(
        paper_testbed(), gpus=(GpuSpec(),) * devices, shard_enabled=shard,
        nvlink_enabled=True, switch_bandwidth=96.0e9)
    dispatch = Dispatcher(
        scheduler=MultiGpuScheduler(make_devices(config.gpus)),
        pinned=None, monitor=SimpleNamespace(tracer=Tracer()),
        interconnect=Interconnect.from_config(config))
    return dispatch, OperatorContext(config, CostLedger(), degree=32)


def shard_instants(dispatch):
    return [s for s in dispatch.tracer.spans if s.name == "pathselect.shard"]


class TestSelectShardedPath:
    """The shard gate, through ``Dispatcher.split``."""

    def test_disabled_knob_keeps_whole_job(self):
        """A filtered candidate is not enumerated: no terms, no price,
        no instant."""
        dispatch, ctx = make_dispatch(shard=False)

        def terms():
            raise AssertionError("a filtered candidate's terms were built")

        assert dispatch.split("groupby", ctx, terms, across="t") \
            == (None, "")
        assert dispatch.tracer.spans == []

    def test_no_plan_keeps_whole_job(self):
        dispatch, ctx = make_dispatch(devices=1)
        plan, reason = dispatch.split("groupby", ctx, make_terms, across="t")
        assert plan is None
        assert reason == ("fewer than two healthy home devices: "
                          "whole-job dispatch")
        (instant,) = shard_instants(dispatch)
        assert instant.attributes["shard"] is False
        assert instant.attributes["shards"] == 0
        assert instant.attributes["devices"] == []

    def test_winning_plan_shards(self):
        dispatch, ctx = make_dispatch()
        plan, reason = dispatch.split("groupby", ctx, make_terms, across="t")
        assert plan.pieces == 4 and plan.devices == (0, 1, 2, 3)
        assert reason.startswith("4 shards on devices (0, 1, 2, 3): gpu~")
        (instant,) = shard_instants(dispatch)
        assert instant.attributes["shard"] is True
        assert instant.attributes["devices"] == [0, 1, 2, 3]
        assert instant.attributes["gpu_seconds"] == plan.seconds
        assert instant.attributes["single_seconds"] \
            == plan.rival_seconds("single-device")
        assert instant.attributes["reason"] == reason

    def test_losing_plan_explains_itself(self):
        # A tiny kernel makes the split overhead-bound: the sharded
        # estimate loses to the single-device run and the verdict says
        # which rival won.
        dispatch, ctx = make_dispatch()
        plan, reason = dispatch.split(
            "sort", ctx, lambda: make_terms(
                rows=1000, staged_bytes=16_000, result_bytes=1000,
                kernel_seconds=1e-6, exchange_bytes=1000, cpu_seconds=10.0),
            across="t")
        assert plan is None
        assert "single-device" in reason
        assert reason.endswith("contention and merge outweigh the split")
        (instant,) = shard_instants(dispatch)
        assert instant.attributes["shard"] is False
        assert instant.attributes["shards"] == 4     # priced, then refused

    def test_plan_that_loses_to_cpu_keeps_whole_job(self):
        dispatch, ctx = make_dispatch()
        plan, reason = dispatch.split(
            "join", ctx, lambda: make_terms(cpu_seconds=1e-9), across="t")
        assert plan is None
        assert reason.startswith("sharded~")
        assert reason.endswith("cpu~0.000ms: sharding would not pay")
