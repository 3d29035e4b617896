"""Unit tests for hashing, KMV sketches and load-time column statistics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blu.column import Column, column_from_values
from repro.blu.datatypes import float64, int32, int64, varchar
from repro.blu.operators.aggregate import dense_span
from repro.blu.statistics import (
    KmvSketch,
    compute_column_stats,
    count_distinct,
    estimate_distinct,
    mod_hash,
    murmur3_combine,
    murmur3_fmix64,
)
from repro.workloads.datagen import generate_database
from tests.blu.oracles import oracle_column_stats


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


# ---------------------------------------------------------------------------
# Load-time statistics: counted distinct == the np.unique oracle
# ---------------------------------------------------------------------------

INT_DTYPES = [np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64,
                                    np.uint8, np.uint16, np.uint32, np.uint64)]


@st.composite
def int_arrays(draw, dtypes=INT_DTYPES, max_size=80):
    """Dense (inside the span rule), sparse, single-value, extreme and empty
    integer vectors of every width."""
    dtype = draw(st.sampled_from(dtypes))
    info = np.iinfo(dtype)
    shape = draw(st.sampled_from(["dense", "sparse", "single", "extremes"]))
    if shape == "dense":
        lo = draw(st.integers(info.min, info.max - 8))
        values = st.integers(lo, lo + 8)
    elif shape == "sparse":
        values = st.integers(info.min, info.max)
    elif shape == "single":
        values = st.just(draw(st.integers(info.min, info.max)))
    else:
        values = st.sampled_from([info.min, info.min + 1, 0,
                                  info.max - 1, info.max])
    return np.array(draw(st.lists(values, max_size=max_size)), dtype=dtype)


def null_masks(n):
    return st.none() | st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda flags: np.array(flags, dtype=bool))


def assert_same_stats(column: Column, got=None) -> None:
    """Every ``ColumnStats`` field equal, in value and in type."""
    got = dataclasses.asdict(got or compute_column_stats(column))
    want = dataclasses.asdict(oracle_column_stats(column))
    for name, value in want.items():
        assert type(got[name]) is type(value), name
        assert got[name] == value or (value != value and
                                      got[name] != got[name]), name


class TestCountedDistinctMatchesUniqueOracle:
    @given(int_arrays())
    @settings(max_examples=300, deadline=None)
    def test_every_integer_width(self, data):
        assert count_distinct(data) == len(np.unique(data))

    def test_offsets_that_wrap_the_signed_dtype(self):
        # Span 200 fits 4 x 80 rows, but 99 - (-100) wraps int8: read as
        # signed, 43 and -13 would land in one slot.
        data = np.array([-100, 99, 43, -13] * 20, dtype=np.int8)
        assert dense_span(data, len(data)) == (-100, 200)
        assert count_distinct(data) == 4

    def test_int64_extremes_together(self):
        info = np.iinfo(np.int64)
        column = Column(int64(), np.array([info.max, info.min, info.max]))
        assert compute_column_stats(column).distinct == 2
        assert_same_stats(column)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_integer_columns_with_null_masks(self, data):
        dtype = data.draw(st.sampled_from([int32(), int64()]))
        values = data.draw(int_arrays([dtype.numpy_dtype]))
        column = Column(dtype, values,
                        null_mask=data.draw(null_masks(len(values))))
        assert_same_stats(column)

    def test_null_placeholder_rows_stay_counted(self):
        column = Column(int32(), np.array([0, 5, 5], dtype=np.int32),
                        null_mask=np.array([True, False, False]))
        assert compute_column_stats(column).distinct == 2
        assert_same_stats(column)

    @given(st.lists(st.none() | st.sampled_from(["a", "bb", "", "zz", "m"]),
                    max_size=30), st.data())
    @settings(max_examples=100, deadline=None)
    def test_dictionary_codes_with_unused_entries(self, values, data):
        column = column_from_values(varchar(4), values)
        assert_same_stats(column)
        # A deferred take keeps the whole dictionary but few of its codes.
        rows = data.draw(st.lists(st.integers(0, max(0, len(values) - 1)),
                                  max_size=6)) if values else []
        taken = column.take(np.array(rows, dtype=np.int64))
        assert taken._data is None
        assert_same_stats(taken)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True)
                    | st.sampled_from([0.0, -0.0, float("nan")]),
                    max_size=30), st.data())
    @settings(max_examples=100, deadline=None)
    def test_floats_with_nan_and_signed_zero(self, values, data):
        column = Column(float64(), np.array(values, dtype=np.float64),
                        null_mask=data.draw(null_masks(len(values))))
        assert_same_stats(column)

    @pytest.mark.parametrize("seed", [7, 23])
    def test_every_generated_column(self, seed):
        catalog = generate_database(scale=0.01, seed=seed)
        for table in catalog:
            for field, column in zip(table.schema, table.columns):
                assert_same_stats(
                    column, catalog.column_stats(table.name, field.name))


class TestLoadPassesOverMemory:
    """LOAD counts distinct values; it does not sort-and-dedupe them."""

    def test_load_counts_integer_and_dictionary_columns(self, monkeypatch):
        uniques, sorts = [], []
        real_unique, real_sort = np.unique, np.sort

        def counted_unique(ar, *args, **kwargs):
            uniques.append(np.asarray(ar).dtype.kind)
            return real_unique(ar, *args, **kwargs)

        def counted_sort(a, *args, **kwargs):
            sorts.append(a)
            return real_sort(a, *args, **kwargs)
        monkeypatch.setattr(np, "unique", counted_unique)
        monkeypatch.setattr(np, "sort", counted_sort)
        catalog = generate_database(scale=0.01, seed=7)
        monkeypatch.undo()

        columns = [c for table in catalog for c in table.columns]
        floats = [c for c in columns if c.data.dtype.kind == "f"]
        # Vocabularies (object arrays) are still encoded with np.unique.
        assert not [kind for kind in uniques if kind in "iub"]
        assert uniques.count("f") == len(floats) == 1
        wide = [c for c in columns if c.data.dtype.kind in "iu"
                and dense_span(c.data, len(c)) is None]
        assert 0 < len(wide) < len(columns) // 4
        assert len(sorts) == len(wide)
        assert all(a is c.data for a, c in zip(sorts, wide))
