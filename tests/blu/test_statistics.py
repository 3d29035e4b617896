"""Unit tests for hashing and KMV sketches."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blu.statistics import (
    KmvSketch,
    estimate_distinct,
    mod_hash,
    murmur3_combine,
    murmur3_fmix64,
)


class TestMurmur:
    def test_deterministic(self):
        keys = np.arange(100, dtype=np.int64)
        assert np.array_equal(murmur3_fmix64(keys), murmur3_fmix64(keys))

    def test_distinct_inputs_distinct_outputs(self):
        keys = np.arange(100_000, dtype=np.int64)
        hashed = murmur3_fmix64(keys)
        assert len(np.unique(hashed)) == len(keys)   # fmix64 is a bijection

    def test_avalanche_spreads_consecutive_keys(self):
        keys = np.arange(1024, dtype=np.int64)
        hashed = murmur3_fmix64(keys)
        # Consecutive inputs land in different high-order buckets.
        buckets = hashed >> np.uint64(54)
        assert len(np.unique(buckets)) > 500

    def test_combine_differs_from_parts(self):
        a = np.arange(1000, dtype=np.int64)
        b = np.arange(1000, dtype=np.int64)
        combined = murmur3_combine([a, b])
        assert not np.array_equal(combined, murmur3_fmix64(a))

    def test_combine_order_sensitive(self):
        a = np.array([1, 2], dtype=np.int64)
        b = np.array([3, 4], dtype=np.int64)
        assert not np.array_equal(murmur3_combine([a, b]),
                                  murmur3_combine([b, a]))

    def test_combine_empty_rejected(self):
        with pytest.raises(ValueError):
            murmur3_combine([])


class TestModHash:
    def test_in_range(self):
        keys = np.array([-5, 0, 7, 10**12], dtype=np.int64)
        hashed = mod_hash(keys, 16)
        assert ((hashed >= 0) & (hashed < 16)).all()

    def test_bad_buckets(self):
        with pytest.raises(ValueError):
            mod_hash(np.array([1], dtype=np.int64), 0)


class TestKmv:
    def test_exact_below_k(self):
        hashes = murmur3_fmix64(np.arange(100, dtype=np.int64))
        est = estimate_distinct(hashes, k=1024)
        assert est.exact
        assert est.groups == 100

    def test_estimate_above_k_within_tolerance(self):
        true_distinct = 50_000
        keys = np.arange(true_distinct, dtype=np.int64)
        hashes = murmur3_fmix64(np.tile(keys, 4))
        est = estimate_distinct(hashes, k=1024)
        assert not est.exact
        assert abs(est.groups - true_distinct) / true_distinct < 0.15

    def test_incremental_updates_match_oneshot(self):
        keys = murmur3_fmix64(np.arange(10_000, dtype=np.int64))
        sketch = KmvSketch(k=256)
        for chunk in np.array_split(keys, 7):
            sketch.update(chunk)
        incremental = sketch.estimate().groups
        oneshot = estimate_distinct(keys, k=256).groups
        assert incremental == oneshot

    def test_empty_sketch(self):
        assert KmvSketch().estimate().estimate == 0.0

    def test_duplicates_dont_inflate(self):
        hashes = murmur3_fmix64(np.zeros(10_000, dtype=np.int64))
        assert estimate_distinct(hashes).groups == 1

    def test_k_validation(self):
        with pytest.raises(ValueError):
            KmvSketch(k=1)


def _update_by_full_unique(sketch: KmvSketch, hashes: np.ndarray) -> None:
    """The reference ``KmvSketch.update``: sort-and-dedupe the whole batch,
    then keep the k smallest (kept verbatim as the oracle)."""
    batch = np.unique(np.asarray(hashes, dtype=np.uint64))
    if sketch._values is None:
        merged = batch
    else:
        merged = np.union1d(sketch._values, batch)
    if len(merged) > sketch.k:
        merged = merged[: sketch.k]
        sketch._saturated = True
    sketch._values = merged


@st.composite
def _hash_batches(draw, k):
    """Batch sequences whose sizes and distinct counts straddle ``k``."""
    edge = st.sampled_from([0, 1, k - 1, k, k + 1, 2 * k + 1, 2 * k + 2,
                            2 * k + 3, 5 * k])
    sizes = draw(st.lists(edge | st.integers(0, 6 * k),
                          min_size=1, max_size=4))
    batches = []
    for size in sizes:
        cardinality = draw(edge | st.integers(1, 6 * k))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, max(1, cardinality), size)
        batches.append(murmur3_fmix64(ids.astype(np.int64) + seed))
    return batches


class TestKmvMatchesFullUniqueOracle:
    """The partition-based update is exact: same kept values, same
    saturation flag, so the same ``(estimate, exact)`` after every batch."""

    @pytest.mark.parametrize("k", [2, 16, 1024])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_estimate_after_every_batch(self, k, data):
        new, ref = KmvSketch(k=k), KmvSketch(k=k)
        for batch in data.draw(_hash_batches(k)):
            new.update(batch)
            _update_by_full_unique(ref, batch)
            assert np.array_equal(new._values, ref._values)
            got, want = new.estimate(), ref.estimate()
            assert (got.estimate, got.exact) == (want.estimate, want.exact)

    @pytest.mark.parametrize("k", [2, 16, 1024])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_distinct_count_at_the_k_boundary(self, k, delta):
        hashes = murmur3_fmix64(np.arange(k + delta, dtype=np.int64))
        new, ref = KmvSketch(k=k), KmvSketch(k=k)
        new.update(np.tile(hashes, 3))
        _update_by_full_unique(ref, np.tile(hashes, 3))
        assert new.estimate() == ref.estimate()
        assert new.estimate().exact == (delta < 0)
