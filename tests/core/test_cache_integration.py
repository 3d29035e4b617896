"""Integration tests for the column cache across executors + scheduler."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blu import BluEngine
from repro.config import GpuSpec, paper_testbed
from repro.core import GpuAcceleratedEngine
from repro.core.scheduler import MultiGpuScheduler
from repro.faults import FaultPlan
from repro.gpu.cache import DeviceColumnCache, SegmentKey
from repro.gpu.device import make_devices
from tests.conftest import tables_equal


GROUPBY_SQL = ("SELECT s_item, SUM(s_qty) AS q, SUM(s_paid) AS paid "
               "FROM sales GROUP BY s_item")
SORT_SQL = ("SELECT s_ticket, s_paid FROM sales "
            "ORDER BY s_paid DESC, s_ticket")


def _engine(small_catalog, cache_fraction, **kwargs):
    config = paper_testbed()
    thresholds = dataclasses.replace(config.thresholds, t1_min_rows=5_000,
                                     sort_min_rows=5_000)
    config = dataclasses.replace(config, thresholds=thresholds,
                                 cache_fraction=cache_fraction)
    if "faults" in kwargs:
        config = dataclasses.replace(config, faults=kwargs.pop("faults"))
    if "gpus" in kwargs:
        config = dataclasses.replace(config, gpus=kwargs.pop("gpus"))
    return GpuAcceleratedEngine(small_catalog, config=config, **kwargs)


class TestCrossQueryHits:
    def test_repeated_groupby_hits_the_cache(self, small_catalog):
        engine = _engine(small_catalog, 0.25)
        engine.execute_sql(GROUPBY_SQL, query_id="q1")
        engine.execute_sql(GROUPBY_SQL, query_id="q2")
        stats = engine.cache_stats()
        assert sum(s["hits"] for s in stats) > 0
        assert sum(s["hit_bytes"] for s in stats) > 0

    def test_hit_elides_transfer_bytes(self, small_catalog):
        engine = _engine(small_catalog, 0.25)
        _res, first = engine.profile_sql(GROUPBY_SQL, query_id="p1")
        _res, second = engine.profile_sql(GROUPBY_SQL, query_id="p2")
        assert second.summary("cache")["hits"] > 0
        assert second.bytes_in < first.bytes_in
        # The elided bytes account exactly for the difference.
        assert second.bytes_in + second.summary("cache")["hit_bytes"] \
            == first.bytes_in

    def test_profile_renders_cache_section(self, small_catalog):
        engine = _engine(small_catalog, 0.25)
        engine.execute_sql(GROUPBY_SQL, query_id="p1")
        _res, profile = engine.profile_sql(GROUPBY_SQL, query_id="p2")
        text = profile.to_text()
        assert "-- column cache --" in text
        assert "hit" in text
        assert profile.to_dict()["cache"]["summary"]["hits"] > 0

    def test_zero_fraction_never_caches(self, small_catalog):
        engine = _engine(small_catalog, 0.0)
        engine.execute_sql(GROUPBY_SQL, query_id="q1")
        engine.execute_sql(GROUPBY_SQL, query_id="q2")
        assert engine.cache_stats() == []
        for device in engine.devices:
            assert device.cache is None
            assert device.memory.reserved == 0

    def test_invalid_fraction_rejected(self, small_catalog):
        with pytest.raises(ValueError, match="cache_fraction"):
            _engine(small_catalog, 1.0)

    def test_sort_path_hits_the_cache(self, small_catalog):
        engine = _engine(small_catalog, 0.25)
        engine.execute_sql(SORT_SQL, query_id="s1")
        before = sum(s["hits"] for s in engine.cache_stats())
        engine.execute_sql(SORT_SQL, query_id="s2")
        after = sum(s["hits"] for s in engine.cache_stats())
        assert after > before


class TestSchedulerAffinity:
    def _scheduler(self):
        devices = make_devices((GpuSpec(), GpuSpec()))
        for device in devices:
            device.cache = DeviceColumnCache(
                device.memory,
                budget_bytes=device.memory.capacity // 4,
                device_id=device.device_id,
            )
        return devices, MultiGpuScheduler(devices)

    def test_affinity_steers_to_cached_device(self):
        devices, scheduler = self._scheduler()
        key = SegmentKey("t", "c", "key:abc", 0)
        devices[1].cache.insert(key, 1024)
        lease = scheduler.try_acquire(4096, affinity=[key])
        assert lease.device is devices[1]
        scheduler.release(lease)

    def test_without_affinity_least_loaded_wins(self):
        devices, scheduler = self._scheduler()
        devices[1].cache.insert(SegmentKey("t", "c", "key:abc", 0), 1024)
        devices[1].outstanding_jobs = 1
        lease = scheduler.try_acquire(4096)
        assert lease.device is devices[0]
        scheduler.release(lease)

    def test_pressure_shrinks_cache_before_rejecting(self):
        spec = GpuSpec()
        devices = make_devices((spec,))
        device = devices[0]
        capacity = device.memory.capacity
        device.cache = DeviceColumnCache(device.memory,
                                         budget_bytes=capacity // 2,
                                         device_id=0)
        device.cache.insert(SegmentKey("t", "a", "key:a", 0), capacity // 2)
        # Free memory alone cannot satisfy this, free + cache can.
        want = capacity - capacity // 4
        lease = scheduler = MultiGpuScheduler(devices)
        lease = scheduler.try_acquire(want)
        assert lease is not None
        assert device.cache.cached_bytes == 0
        evicted = device.cache.stats()
        assert evicted["evictions"] == 1
        scheduler.release(lease)

    def test_pressure_protects_affine_segments(self):
        spec = GpuSpec()
        devices = make_devices((spec,))
        device = devices[0]
        capacity = device.memory.capacity
        device.cache = DeviceColumnCache(device.memory,
                                         budget_bytes=capacity // 2,
                                         device_id=0)
        keep = SegmentKey("t", "keep", "key:keep", 0)
        device.cache.insert(keep, capacity // 4)
        device.cache.insert(SegmentKey("t", "drop", "key:drop", 0),
                            capacity // 4)
        scheduler = MultiGpuScheduler(devices)
        lease = scheduler.try_acquire(capacity // 2 + capacity // 8,
                                      affinity=[keep])
        assert lease is not None
        assert keep in device.cache
        scheduler.release(lease)

    def test_device_loss_invalidates_cache(self):
        devices, scheduler = self._scheduler()
        device = devices[0]
        key = SegmentKey("t", "c", "key:abc", 0)
        device.cache.insert(key, 1024)
        lease = scheduler.try_acquire(4096, affinity=[key])
        assert lease.device is device
        device.alive = False
        scheduler.record_failure(lease)
        assert len(device.cache) == 0
        assert device.cache.stats()["invalidations"] == 1
        scheduler.release(lease)

    def test_snapshot_reports_cached_bytes(self):
        devices, scheduler = self._scheduler()
        devices[0].cache.insert(SegmentKey("t", "c", "key:abc", 0), 1024)
        snap = scheduler.snapshot()
        assert snap[0]["cached_bytes"] == 1024
        assert snap[1]["cached_bytes"] == 0


class TestCatalogVersioning:
    def test_ddl_bumps_version_and_orphans_old_keys(self, small_catalog,
                                                    stores_table):
        engine = _engine(small_catalog, 0.25)
        engine.execute_sql(GROUPBY_SQL, query_id="q1")
        version = small_catalog.version
        small_catalog.drop(stores_table.name)
        try:
            assert small_catalog.version == version + 1
            # Old entries are unreachable (keys carry the old version);
            # a rerun misses, reinserts under the new version, no hits
            # against stale entries.
            hits_before = sum(s["hits"] for s in engine.cache_stats())
            engine.execute_sql(GROUPBY_SQL, query_id="q2")
            hits_after = sum(s["hits"] for s in engine.cache_stats())
            assert hits_after == hits_before
        finally:
            small_catalog.register(stores_table)


@pytest.mark.chaos
class TestChaos:
    def test_device_loss_mid_workload_invalidates_cleanly(self,
                                                          small_catalog):
        # One device: query 1 warms the cache, query 2's launch kills the
        # device — its entries must be dropped wholesale and the query
        # must still answer correctly from the CPU.
        plan = FaultPlan.parse("device_loss@0:nth=2")
        engine = _engine(small_catalog, 0.25, faults=plan,
                         gpus=(GpuSpec(),))
        cpu = BluEngine(small_catalog)
        r1 = engine.execute_sql(GROUPBY_SQL, query_id="c1")
        device = engine.devices[0]
        assert len(device.cache) > 0          # warmed
        r2 = engine.execute_sql(GROUPBY_SQL, query_id="c2")
        assert not device.alive
        assert len(device.cache) == 0
        assert device.cache.stats()["invalidations"] == 1
        assert device.memory.reserved == 0    # reservations returned
        expected = cpu.execute_sql(GROUPBY_SQL).table
        assert tables_equal(r1.table, expected)
        assert tables_equal(r2.table, expected)

    def test_alloc_faults_fail_inserts_cleanly(self, small_catalog):
        # The device-memory "alloc" seam is only crossed by cache
        # inserts: with it failing 100% of the time the cache must stay
        # empty (no half-materialised entries), queries keep offloading,
        # and results stay bit-identical.
        plan = FaultPlan.parse("alloc:p=1.0")
        engine = _engine(small_catalog, 0.25, faults=plan)
        cpu = BluEngine(small_catalog)
        result = engine.execute_sql(GROUPBY_SQL, query_id="a1")
        engine.execute_sql(GROUPBY_SQL, query_id="a2")
        stats = engine.cache_stats()
        assert sum(s["insert_failures"] for s in stats) > 0
        assert sum(s["entries"] for s in stats) == 0
        assert sum(s["cached_bytes"] for s in stats) == 0
        for device in engine.devices:
            assert device.memory.reserved == 0
        assert tables_equal(result.table,
                            cpu.execute_sql(GROUPBY_SQL).table)


class TestCacheStateParity:
    @settings(max_examples=6, deadline=None)
    @given(fraction=st.floats(min_value=0.01, max_value=0.99),
           repeats=st.integers(min_value=1, max_value=3))
    def test_any_cache_state_bit_identical_to_uncached(
            self, fraction, repeats, small_catalog):
        """Property: caching is invisible to results.

        Whatever cache fraction and whatever hit/evict state repeated
        execution builds up, every result must be bit-identical to the
        cache-disabled engine's.
        """
        cached = _engine(small_catalog, fraction)
        uncached = _engine(small_catalog, 0.0)
        for sql in (GROUPBY_SQL, SORT_SQL):
            for i in range(repeats):
                got = cached.execute_sql(sql, query_id=f"h{i}")
                want = uncached.execute_sql(sql, query_id=f"h{i}")
                assert tables_equal(got.table, want.table)
