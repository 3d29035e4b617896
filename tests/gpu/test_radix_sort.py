"""Unit tests for the simulated Merrill radix sort kernel (section 3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CostModel
from repro.gpu.kernels.radix_sort import RadixSortKernel, find_duplicate_ranges
from tests.gpu.row_level_oracles import duplicate_ranges_list


def _ranges(result):
    """A result's duplicate ranges as ``(start, length)`` tuples."""
    return list(zip(result.duplicate_starts.tolist(),
                    result.duplicate_lengths.tolist()))


@pytest.fixture()
def kernel():
    return RadixSortKernel(CostModel())


class TestSorting:
    def test_sorts(self, kernel):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 2**32, 50_000, dtype=np.uint32)
        result = kernel.run(keys)
        assert np.array_equal(keys[result.order], np.sort(keys))

    def test_stable(self, kernel):
        keys = np.array([5, 1, 5, 1, 5], dtype=np.uint32)
        result = kernel.run(keys)
        # Equal keys keep their original relative order.
        assert list(result.order) == [1, 3, 0, 2, 4]

    def test_empty(self, kernel):
        result = kernel.run(np.array([], dtype=np.uint32))
        assert len(result.order) == 0
        assert _ranges(result) == []
        assert result.kernel_seconds == 0.0

    def test_cost_scales_linearly(self, kernel):
        small = kernel.run(np.arange(10_000, dtype=np.uint32))
        large = kernel.run(np.arange(100_000, dtype=np.uint32))
        assert large.kernel_seconds == pytest.approx(
            10 * small.kernel_seconds, rel=0.05)

    def test_device_bytes_double_buffer(self, kernel):
        assert kernel.device_bytes(1000) == 16_000


class TestDuplicateRanges:
    def test_found_in_sorted_keys(self, kernel):
        keys = np.array([3, 1, 3, 2, 3, 2], dtype=np.uint32)
        result = kernel.run(keys)
        ranges = set(_ranges(result))
        # sorted: 1 2 2 3 3 3 -> (1,2) and (3,3)
        assert ranges == {(1, 2), (3, 3)}

    def test_no_duplicates(self, kernel):
        result = kernel.run(np.arange(100, dtype=np.uint32)[::-1].copy())
        assert _ranges(result) == []

    def test_all_equal_is_one_range(self, kernel):
        result = kernel.run(np.full(50, 7, dtype=np.uint32))
        assert _ranges(result) == [(0, 50)]

    def test_helper_on_presorted(self):
        starts, lengths = find_duplicate_ranges(
            np.array([1, 1, 2, 3, 3, 3], dtype=np.uint32))
        assert starts.tolist() == [0, 3]
        assert lengths.tolist() == [2, 3]

    @given(keys=st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 6),
                         max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_array_form_equals_list_form(self, keys):
        """``(starts, lengths)`` arrays carry exactly the old tuple list,
        and so does the kernel's result."""
        arr = np.asarray(keys, dtype=np.uint32)
        result = RadixSortKernel(CostModel()).run(arr)
        want = duplicate_ranges_list(np.sort(arr))
        starts, lengths = find_duplicate_ranges(np.sort(arr))
        assert starts.dtype == lengths.dtype == np.int64
        assert list(zip(starts.tolist(), lengths.tolist())) == want
        assert _ranges(result) == want
        assert np.array_equal(result.order, np.argsort(arr, kind="stable"))


@pytest.mark.parametrize("rows", [1, 2, 1_000])
def test_constant_key_skips_the_passes_and_prices_the_same(kernel, rows):
    """A one-valued partial key (a wide key's constant top word) is the
    identity order and one duplicate range, priced like any other key."""
    constant = kernel.run(np.full(rows, 7, dtype=np.uint32))
    varied = kernel.run(np.arange(rows, dtype=np.uint32)[::-1].copy())
    assert constant.order.tolist() == list(range(rows))
    starts, lengths = find_duplicate_ranges(np.full(rows, 7, np.uint32))
    assert constant.duplicate_starts.tolist() == starts.tolist()
    assert constant.duplicate_lengths.tolist() == lengths.tolist()
    assert constant.duplicate_starts.dtype == starts.dtype
    assert constant.kernel_seconds == varied.kernel_seconds
    assert constant.device_bytes == varied.device_bytes
