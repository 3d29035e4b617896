"""Unit tests for the three group-by kernels (sections 4.3.1-4.3.3)."""

import numpy as np
import pytest

from repro.blu.datatypes import int32, int64
from repro.blu.expressions import AggFunc
from repro.blu.operators.aggregate import group_encode
from repro.config import CostModel
from repro.gpu.kernels.groupby_biglock import GlobalLockGroupByKernel
from repro.gpu.kernels.groupby_regular import RegularGroupByKernel
from repro.gpu.kernels.groupby_shared import SharedMemoryGroupByKernel
from repro.gpu.kernels.request import GroupByRequest, PayloadSpec


@pytest.fixture()
def cost():
    return CostModel()


def make_request(n_rows=50_000, n_groups=500, n_aggs=2, seed=0,
                 key_bits=64):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n_groups, n_rows).astype(np.int64)
    payloads = [PayloadSpec(int64(), AggFunc.SUM)] * n_aggs
    return GroupByRequest(keys=keys, key_bits=key_bits, payloads=payloads,
                          estimated_groups=n_groups)


ALL_KERNELS = [RegularGroupByKernel, SharedMemoryGroupByKernel,
               GlobalLockGroupByKernel]


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_matches_cpu_reference(self, kernel_cls, cost):
        request = make_request()
        result = kernel_cls(cost).run(request)
        ref_index, _, ref_groups = group_encode([request.keys])
        assert result.n_groups == ref_groups
        assert np.array_equal(result.group_index, ref_index)

    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_single_group(self, kernel_cls, cost):
        request = GroupByRequest(
            keys=np.zeros(1000, dtype=np.int64), key_bits=32,
            payloads=[PayloadSpec(int32(), AggFunc.COUNT)],
            estimated_groups=1)
        result = kernel_cls(cost).run(request)
        assert result.n_groups == 1
        assert (result.group_index == 0).all()

    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_all_distinct(self, kernel_cls, cost):
        keys = np.arange(5000, dtype=np.int64)
        request = GroupByRequest(
            keys=keys, key_bits=64,
            payloads=[PayloadSpec(int64(), AggFunc.SUM)],
            estimated_groups=5000)
        result = kernel_cls(cost).run(request)
        assert result.n_groups == 5000


class TestKernelCostProperties:
    def test_shared_kernel_fastest_for_tiny_groups(self, cost):
        """Section 4.3.2: kernel 2 wins on small group counts."""
        request = make_request(n_rows=200_000, n_groups=12)
        t1 = RegularGroupByKernel(cost).run(request).kernel_seconds
        t2 = SharedMemoryGroupByKernel(cost).run(request).kernel_seconds
        assert t2 < t1

    def test_biglock_wins_for_many_aggs(self, cost):
        """Section 4.3.3: kernel 3 wins past the agg-count threshold."""
        request = make_request(n_rows=200_000, n_groups=5000, n_aggs=8)
        t1 = RegularGroupByKernel(cost).run(request).kernel_seconds
        t3 = GlobalLockGroupByKernel(cost).run(request).kernel_seconds
        assert t3 < t1

    def test_regular_wins_for_few_aggs(self, cost):
        request = make_request(n_rows=200_000, n_groups=5000, n_aggs=1)
        t1 = RegularGroupByKernel(cost).run(request).kernel_seconds
        t3 = GlobalLockGroupByKernel(cost).run(request).kernel_seconds
        assert t1 < t3

    def test_wide_keys_cost_more(self, cost):
        narrow = make_request(key_bits=64)
        wide = make_request(key_bits=128)
        t_narrow = RegularGroupByKernel(cost).run(narrow).kernel_seconds
        t_wide = RegularGroupByKernel(cost).run(wide).kernel_seconds
        assert t_wide > t_narrow

    def test_shared_capacity_respects_entry_width(self, cost):
        kernel = SharedMemoryGroupByKernel(cost)
        thin = make_request(n_aggs=1)
        wide = make_request(n_aggs=8)
        assert kernel.shared_capacity_groups(thin) > \
            kernel.shared_capacity_groups(wide)

    def test_shared_fits_predicate(self, cost):
        kernel = SharedMemoryGroupByKernel(cost)
        small = make_request(n_groups=100)
        big = make_request(n_rows=10_000, n_groups=10_000)
        assert kernel.fits(small)
        assert not kernel.fits(big)

    def test_shared_kernel_counts_flushes_when_overfull(self, cost):
        """A slice whose group count exceeds shared capacity must flush."""
        kernel = SharedMemoryGroupByKernel(cost, smx_count=2,
                                           shared_bytes=4 * 1024)
        request = make_request(n_rows=60_000, n_groups=3000)
        result = kernel.run(request)
        assert result.stats["flushes"] > 0

    def test_table_bytes_scale_with_estimate(self, cost):
        kernel = RegularGroupByKernel(cost)
        small = make_request(n_groups=100)
        small.estimated_groups = 100
        big = make_request(n_groups=100)
        big.estimated_groups = 100_000
        assert kernel.table_bytes(big) > kernel.table_bytes(small)

    def test_stats_breakdown_present(self, cost):
        result = RegularGroupByKernel(cost).run(make_request())
        for key in ("probes", "fill_ratio", "init_seconds",
                    "insert_seconds", "agg_seconds"):
            assert key in result.stats
        assert result.kernel_seconds == pytest.approx(
            result.stats["init_seconds"] + result.stats["insert_seconds"]
            + result.stats["agg_seconds"])

    @pytest.mark.parametrize("n_groups", [7, 900, 3000])
    def test_shared_kernel_partials_match_per_slice_count(self, cost,
                                                          n_groups):
        """Partial-table sizes come from one global encode; they must
        equal counting each SMX's slice on its own."""
        kernel = SharedMemoryGroupByKernel(cost, smx_count=5,
                                           shared_bytes=4 * 1024)
        request = make_request(n_rows=20_003, n_groups=n_groups)
        capacity = kernel.shared_capacity_groups(request)
        bounds = np.linspace(0, request.rows, 6, dtype=np.int64)
        per_slice = [len(np.unique(request.keys[lo:hi]))
                     for lo, hi in zip(bounds[:-1], bounds[1:])]
        stats = kernel.run(request).stats
        assert stats["partial_entries"] == sum(per_slice)
        assert stats["flushes"] == sum(
            max(0, -(-n // capacity) - 1) for n in per_slice)


class TestSortPassesIndependentOfRounds:
    """The insert factorises its keys once — without sorting when they are
    dense enough to address a table directly, with one sort when they are
    sparse — and then walks the distinct keys; a sort inside the CAS retry
    loop (one per round, as the row-level simulation had) would show up
    here."""

    SORTS = ("argsort", "sort", "lexsort", "unique", "partition")

    def _run_counting_sorts(self, monkeypatch, cost, headroom, stride):
        calls = []
        for name in self.SORTS:
            original = getattr(np, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        request = make_request(n_rows=30_000, n_groups=6_000)
        request.keys *= stride
        result = RegularGroupByKernel(cost).run(request, headroom=headroom)
        monkeypatch.undo()
        return calls, result.stats["rounds"]

    @pytest.mark.parametrize("stride, sorts", [
        (1, []),                    # span 6 000 over 30 000 rows: dense
        (1_000, ["argsort"]),       # span 6 000 000: sparse
    ])
    def test_sort_count_however_many_rounds(self, monkeypatch, cost,
                                            stride, sorts):
        roomy_sorts, roomy_rounds = self._run_counting_sorts(
            monkeypatch, cost, headroom=8.0, stride=stride)
        tight_sorts, tight_rounds = self._run_counting_sorts(
            monkeypatch, cost, headroom=1.02, stride=stride)
        assert tight_rounds > 4 * roomy_rounds
        assert tight_sorts == roomy_sorts == sorts
