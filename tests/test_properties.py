"""Property-based tests (hypothesis) on the core data structures.

These cover the invariants the whole reproduction leans on: GPU kernels
agree with the CPU grouping primitives on arbitrary inputs, the hybrid
sort's byte encoding is order-preserving for every type, the KMV sketch is
merge-consistent, and the water-filling allocator conserves capacity.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blu.compression import build_dictionary
from repro.blu.datatypes import int64
from repro.blu.expressions import AggFunc
from repro.blu.operators.aggregate import factorise, group_encode
from repro.blu.statistics import KmvSketch, estimate_distinct, murmur3_fmix64
from repro.config import CostModel, HostSpec
from repro.gpu.kernels.groupby_biglock import GlobalLockGroupByKernel
from repro.gpu.kernels.groupby_regular import RegularGroupByKernel
from repro.gpu.kernels.groupby_shared import SharedMemoryGroupByKernel
from repro.gpu.kernels.hashtable import GpuHashTable, combine_keys
from repro.gpu.kernels.radix_sort import RadixSortKernel
from repro.gpu.kernels.request import GroupByRequest, PayloadSpec
from repro.sim.resources import CpuTask, ProcessorSharingPool

_COST = CostModel()

keys_arrays = st.lists(
    st.integers(min_value=-2**40, max_value=2**40), min_size=1, max_size=400,
).map(lambda xs: np.asarray(xs, dtype=np.int64))

small_keys_arrays = st.lists(
    st.integers(min_value=0, max_value=50), min_size=1, max_size=400,
).map(lambda xs: np.asarray(xs, dtype=np.int64))


class TestGroupEncodeProperties:
    @given(keys=keys_arrays)
    @settings(max_examples=60, deadline=None)
    def test_partition_invariants(self, keys):
        index, first, n = group_encode([keys])
        assert n == len(np.unique(keys))
        assert index.min() >= 0 and index.max() == n - 1
        # Same key <-> same group id.
        for g in range(n):
            members = keys[index == g]
            assert (members == members[0]).all()
        # Groups are numbered by first appearance.
        firsts = [np.nonzero(index == g)[0][0] for g in range(n)]
        assert firsts == sorted(firsts)

    @given(a=keys_arrays)
    @settings(max_examples=30, deadline=None)
    def test_multi_key_refines_single_key(self, a):
        b = (a % 3).astype(np.int64)
        _, _, n_single = group_encode([a])
        _, _, n_pair = group_encode([a, b])
        assert n_pair >= n_single           # adding a key never merges groups


class TestKernelProperties:
    @given(keys=small_keys_arrays,
           n_aggs=st.integers(min_value=1, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_all_kernels_agree_with_reference(self, keys, n_aggs):
        payloads = [PayloadSpec(int64(), AggFunc.SUM)] * n_aggs
        est = len(np.unique(keys))
        request = GroupByRequest(keys=keys, key_bits=64, payloads=payloads,
                                 estimated_groups=est)
        ref_index, _, ref_n = group_encode([keys])
        for kernel in (RegularGroupByKernel(_COST),
                       SharedMemoryGroupByKernel(_COST),
                       GlobalLockGroupByKernel(_COST)):
            result = kernel.run(request)
            assert result.n_groups == ref_n
            assert np.array_equal(result.group_index, ref_index)
            assert result.kernel_seconds > 0

    @given(keys=small_keys_arrays)
    @settings(max_examples=25, deadline=None)
    def test_hash_table_slots_partition_keys(self, keys):
        table = GpuHashTable.sized_for(len(np.unique(keys)), 64,
                                       [PayloadSpec(int64(), AggFunc.SUM)])
        row_slot, stats = table.insert(factorise(keys)[0])
        assert stats.groups == len(np.unique(keys))
        for slot in np.unique(row_slot):
            members = keys[row_slot == slot]
            assert (members == members[0]).all()

    @given(parts=st.lists(
        st.lists(st.integers(min_value=0, max_value=1000),
                 min_size=5, max_size=50),
        min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_combine_keys_preserves_grouping(self, parts):
        length = min(len(p) for p in parts)
        arrays = [np.asarray(p[:length], dtype=np.int64) for p in parts]
        combined, exact = combine_keys(arrays)
        gi_combined, _, n_combined = group_encode([combined])
        gi_ref, _, n_ref = group_encode(arrays)
        if exact:
            assert n_combined == n_ref
            assert np.array_equal(gi_combined, gi_ref)


class TestRadixSortProperties:
    @given(keys=st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                         max_size=500))
    @settings(max_examples=40, deadline=None)
    def test_sorts_any_input(self, keys):
        arr = np.asarray(keys, dtype=np.uint32)
        result = RadixSortKernel(_COST).run(arr)
        assert np.array_equal(arr[result.order], np.sort(arr))
        # Duplicate ranges exactly cover repeated keys.
        covered = result.duplicate_lengths.sum()
        _, counts = np.unique(arr, return_counts=True)
        assert covered == counts[counts > 1].sum()


class TestSortEncodingProperties:
    @given(values=st.lists(st.integers(min_value=-2**62, max_value=2**62),
                           min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_int64_byte_order_matches_value_order(self, values):
        from repro.blu.plan import SortKey
        from repro.blu.table import Schema, Table
        from repro.core.hybrid_sort import encode_sort_keys

        t = Table.from_pydict("t", Schema.of(("v", int64())), {"v": values})
        encoded = encode_sort_keys(t, [SortKey("v")])
        rows = [bytes(encoded[i]) for i in range(len(values))]
        by_bytes = sorted(range(len(values)), key=lambda i: (rows[i], i))
        by_value = sorted(range(len(values)), key=lambda i: (values[i], i))
        assert by_bytes == by_value

    @given(values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_float_byte_order_matches_value_order(self, values):
        from repro.blu.plan import SortKey
        from repro.blu.table import Schema, Table
        from repro.blu.datatypes import float64
        from repro.core.hybrid_sort import encode_sort_keys

        t = Table.from_pydict("t", Schema.of(("f", float64())),
                              {"f": values})
        encoded = encode_sort_keys(t, [SortKey("f")])
        rows = [bytes(encoded[i]) for i in range(len(values))]
        by_bytes = sorted(range(len(values)), key=lambda i: (rows[i], i))
        by_value = sorted(range(len(values)), key=lambda i: (values[i], i))
        assert by_bytes == by_value


class TestDictionaryProperties:
    @given(values=st.lists(st.text(min_size=0, max_size=8), min_size=1,
                           max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_and_rank(self, values):
        dictionary, codes = build_dictionary(values)
        assert list(dictionary.decode(codes)) == values
        ranks = dictionary.sort_rank[codes]
        order = sorted(range(len(values)), key=lambda i: (ranks[i], i))
        assert [values[i] for i in order] == sorted(values)


class TestKmvProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31),
           distinct=st.integers(min_value=1, max_value=30_000))
    @settings(max_examples=25, deadline=None)
    def test_estimate_within_error_bound(self, seed, distinct):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, distinct, size=min(4 * distinct, 60_000))
        hashes = murmur3_fmix64(keys.astype(np.int64))
        true = len(np.unique(keys))
        estimate = estimate_distinct(hashes, k=512).groups
        if true <= 512:
            assert estimate == true
        else:
            assert abs(estimate - true) / true < 0.35

    @given(chunks=st.lists(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1,
                 max_size=200),
        min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_merge_order_invariant(self, chunks):
        arrays = [murmur3_fmix64(np.asarray(c, dtype=np.int64))
                  for c in chunks]
        forward = KmvSketch(k=64)
        for a in arrays:
            forward.update(a)
        backward = KmvSketch(k=64)
        for a in reversed(arrays):
            backward.update(a)
        assert forward.estimate().groups == backward.estimate().groups


    @given(keys=st.lists(st.integers(-40, 400), min_size=1, max_size=600)
           .map(lambda xs: np.asarray(xs, dtype=np.int64) * 104_729),
           k=st.sampled_from([2, 8, 64, 1024]))
    @settings(max_examples=60, deadline=None)
    def test_sketch_of_the_distinct_keys_is_the_sketch_of_the_rows(self, keys,
                                                                   k):
        """Murmur is a bijection and the sketch keeps distinct values, so
        the host chain hashes each distinct key once: the estimate is the
        same field for field, saturated (``k`` below the distinct count)
        or exact."""
        distinct = factorise(keys)[0].keys
        assert len(distinct) == len(np.unique(keys))
        assert (estimate_distinct(murmur3_fmix64(distinct), k=k)
                == estimate_distinct(murmur3_fmix64(keys), k=k))


class TestWaterFillingProperties:
    @given(caps=st.lists(st.integers(min_value=1, max_value=96), min_size=1,
                         max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_allocation_feasible_and_work_conserving(self, caps):
        host = HostSpec()
        pool = ProcessorSharingPool(host)
        for i, cap in enumerate(caps):
            pool.add(CpuTask(i, remaining=1.0,
                             max_rate=host.effective_capacity(cap),
                             threads=cap))
        total = sum(t.rate for t in pool.tasks.values())
        capacity = pool.capacity
        assert total <= capacity + 1e-6
        for task in pool.tasks.values():
            assert task.rate <= task.max_rate + 1e-9
            assert task.rate > 0
        # Work conserving: either capacity is saturated or everyone is
        # running at their cap.
        if total < capacity - 1e-6:
            for task in pool.tasks.values():
                assert task.rate == pytest.approx(task.max_rate)
