"""Ablation — metadata-driven hash-table sizing (section 4.2).

"If we do not know the number of groups then we need to set the size of
hash table to be as big as the number of input rows which is much larger
than number of groups in most queries."  This test compares three sizing
policies for the same query: KMV-estimated, rows-sized (no metadata), and
a deliberate underestimate that trips the overflow/regrow error path.
"""

import numpy as np

from repro.blu.datatypes import int64
from repro.blu.expressions import AggFunc
from repro.blu.statistics import estimate_distinct, murmur3_fmix64
from repro.config import CostModel
from repro.core.moderator import _run_with_regrow
from repro.gpu.kernels.groupby_regular import RegularGroupByKernel
from repro.gpu.kernels.request import GroupByRequest, PayloadSpec

ROWS = 400_000
TRUE_GROUPS = 30_000


def test_ablation_ht_sizing():
    cost = CostModel()
    kernel = RegularGroupByKernel(cost)
    rng = np.random.default_rng(23)
    keys = rng.integers(0, TRUE_GROUPS, ROWS).astype(np.int64)
    payloads = [PayloadSpec(int64(), AggFunc.SUM)] * 3
    kmv = estimate_distinct(murmur3_fmix64(keys), k=1024).groups

    def request(estimate):
        return GroupByRequest(keys=keys, key_bits=64, payloads=payloads,
                              estimated_groups=estimate)

    def run():
        sized_kmv = kernel.run(request(kmv))
        sized_rows = kernel.run(request(ROWS))
        underestimate, wasted, _retries = _run_with_regrow(
            kernel, request(TRUE_GROUPS // 20))
        return sized_kmv, sized_rows, underestimate, wasted

    sized_kmv, sized_rows, underestimate, wasted = run()

    # KMV sizing uses ~rows/groups-fold less device memory.
    assert sized_kmv.table_bytes * 5 < sized_rows.table_bytes
    # And is no slower end to end.
    assert sized_kmv.kernel_seconds <= sized_rows.kernel_seconds * 1.2
    # The underestimate path still produces the right answer, at a cost.
    assert underestimate.n_groups == len(np.unique(keys))
    assert wasted > 0
