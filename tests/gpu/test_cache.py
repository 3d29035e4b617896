"""Unit tests for the device-resident column-segment cache."""

import numpy as np
import pytest

from repro.gpu.cache import DeviceColumnCache, SegmentKey, content_digest
from repro.gpu.memory import DeviceMemoryManager


def key(n: int, version: int = 0) -> SegmentKey:
    return SegmentKey(table="t", column=f"c{n}", segment=f"key:{n}",
                      catalog_version=version)


@pytest.fixture()
def mm():
    return DeviceMemoryManager(capacity_bytes=1000, device_id=0)


@pytest.fixture()
def cache(mm):
    return DeviceColumnCache(mm, budget_bytes=100, device_id=0)


class _FailSite:
    """Minimal injector double: one site always fails."""

    def __init__(self, site: str) -> None:
        self.site = site

    def decide(self, site: str, device_id: int = -1):
        return self.site if site == self.site else None


class TestContentDigest:
    def test_equal_bytes_equal_digest(self):
        a = np.arange(100, dtype=np.int32)
        assert content_digest(a) == content_digest(a.copy())

    def test_different_bytes_different_digest(self):
        a = np.arange(100, dtype=np.int32)
        b = a.copy()
        b[50] += 1
        assert content_digest(a) != content_digest(b)

    def test_dtype_matters(self):
        a = np.arange(100, dtype=np.int32)
        assert content_digest(a) != content_digest(a.astype(np.int64))

    def test_none_mask_marker(self):
        a = np.arange(10, dtype=np.int32)
        assert content_digest(a, None) != content_digest(a)

    def test_strided_view_equals_contiguous(self):
        a = np.arange(100, dtype=np.int64)
        assert content_digest(a[::2]) == content_digest(a[::2].copy())


class TestSegmentKey:
    def test_provenance_labels_excluded_from_identity(self):
        # A derived table stages byte-identical columns under another
        # name; content-addressed identity must still match.
        a = SegmentKey("base", "x", "key:abc", 0)
        b = SegmentKey("base_join_dim", "x_out", "key:abc", 0)
        assert a == b
        assert hash(a) == hash(b)

    def test_catalog_version_is_identity(self):
        assert SegmentKey("t", "x", "key:abc", 0) != \
            SegmentKey("t", "x", "key:abc", 1)

    def test_digest_is_identity(self):
        assert SegmentKey("t", "x", "key:abc", 0) != \
            SegmentKey("t", "x", "key:abd", 0)


class TestLookupInsert:
    def test_miss_then_hit(self, cache):
        assert not cache.lookup(key(1))
        assert cache.insert(key(1), 40)
        assert cache.lookup(key(1))
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hit_bytes"] == 40

    def test_insert_reserves_device_memory(self, cache, mm):
        cache.insert(key(1), 40)
        assert mm.reserved == 40
        assert cache.cached_bytes == 40
        assert all(r.tag == "cache" for r in mm.live_reservations)

    def test_insert_is_idempotent(self, cache, mm):
        assert cache.insert(key(1), 40)
        assert cache.insert(key(1), 40)
        assert len(cache) == 1
        assert mm.reserved == 40

    def test_oversized_segment_rejected(self, cache):
        assert not cache.insert(key(1), 101)
        assert len(cache) == 0

    def test_zero_budget_disables(self, mm):
        cache = DeviceColumnCache(mm, budget_bytes=0)
        assert not cache.enabled
        assert not cache.insert(key(1), 10)
        assert not cache.lookup(key(1))

    def test_nonpositive_bytes_rejected(self, cache):
        assert not cache.insert(key(1), 0)
        assert not cache.insert(key(2), -5)


class TestCachedBytesFor:
    def test_any_iterable_counts_every_resident_match(self, cache):
        for n, nbytes in ((1, 10), (2, 20), (3, 30)):
            assert cache.insert(key(n), nbytes)
        wanted = (key(3), key(1), key(9), key(1))    # a miss, a duplicate
        assert cache.cached_bytes_for(wanted) == 40
        # An iterator is consumed once; it must still see every match.
        assert cache.cached_bytes_for(k for k in wanted) == 40

    def test_probe_leaves_lru_order_and_stats_alone(self, cache):
        cache.insert(key(1), 40)
        cache.insert(key(2), 40)
        assert cache.cached_bytes_for([key(1)]) == 40
        assert cache.stats()["hits"] == cache.stats()["misses"] == 0
        cache.insert(key(3), 40)                # evicts key 1: still LRU
        assert key(1) not in cache and key(2) in cache


class TestEviction:
    def test_lru_eviction_within_budget(self, cache):
        cache.insert(key(1), 60)
        cache.insert(key(2), 30)
        cache.insert(key(3), 50)          # evicts key(1), the LRU
        assert key(1) not in cache
        assert key(2) in cache and key(3) in cache
        assert cache.cached_bytes == 80
        assert cache.stats()["evictions"] == 1

    def test_lookup_refreshes_lru_order(self, cache):
        cache.insert(key(1), 60)
        cache.insert(key(2), 30)
        cache.lookup(key(1))              # key(2) is now the LRU
        cache.insert(key(3), 30)
        assert key(1) in cache
        assert key(2) not in cache

    def test_eviction_releases_device_memory(self, cache, mm):
        cache.insert(key(1), 60)
        cache.insert(key(2), 60)          # evicts key(1)
        assert mm.reserved == 60
        assert cache.cached_bytes == 60

    def test_shrink_frees_lru_first(self, cache):
        cache.insert(key(1), 40)
        cache.insert(key(2), 40)
        freed = cache.shrink(30)
        assert freed == 40
        assert key(1) not in cache and key(2) in cache

    def test_shrink_protects_affine_segments(self, cache):
        cache.insert(key(1), 40)
        cache.insert(key(2), 40)
        freed = cache.shrink(30, protect=[key(1)])
        assert freed == 40
        assert key(1) in cache and key(2) not in cache

    def test_shrink_sacrifices_protected_as_last_resort(self, cache):
        cache.insert(key(1), 40)
        freed = cache.shrink(40, protect=[key(1)])
        assert freed == 40
        assert len(cache) == 0

    def test_invalidate_all(self, cache, mm):
        cache.insert(key(1), 40)
        cache.insert(key(2), 40)
        assert cache.invalidate_all("device_lost") == 2
        assert len(cache) == 0
        assert mm.reserved == 0
        assert cache.stats()["invalidations"] == 1

    def test_invalidate_empty_is_noop(self, cache):
        assert cache.invalidate_all("device_lost") == 0
        assert cache.stats()["invalidations"] == 0


class TestFaultyInserts:
    def test_reserve_fault_skips_insert_cleanly(self, cache, mm):
        mm.injector = _FailSite("reserve")
        assert not cache.insert(key(1), 40)
        assert len(cache) == 0
        assert mm.reserved == 0
        assert cache.stats()["insert_failures"] == 1

    def test_alloc_fault_mid_insert_leaves_no_residue(self, cache, mm):
        # The reservation succeeds, the materialising allocation fails:
        # the half-built entry must be rolled back entirely.
        mm.injector = _FailSite("alloc")
        assert not cache.insert(key(1), 40)
        assert len(cache) == 0
        assert mm.reserved == 0
        assert mm.live_reservations == []
        assert cache.stats()["insert_failures"] == 1

    def test_recovers_after_fault_clears(self, cache, mm):
        mm.injector = _FailSite("alloc")
        cache.insert(key(1), 40)
        mm.injector = None
        assert cache.insert(key(1), 40)
        assert key(1) in cache


class TestStats:
    def test_hit_rate(self, cache):
        cache.insert(key(1), 10)
        cache.lookup(key(1))
        cache.lookup(key(2))
        stats = cache.stats()
        assert stats["hit_rate"] == 0.5
        assert stats["entries"] == 1
        assert stats["budget_bytes"] == 100

    def test_no_lookups_zero_rate(self, cache):
        assert cache.stats()["hit_rate"] == 0.0
