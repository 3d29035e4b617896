"""Ablation — KMV sketch size vs estimate quality vs overflow risk.

The hybrid chain sizes the GPU hash table from a KMV estimate computed off
the HASH evaluator output (section 4.1/4.2).  The sketch's ``k`` trades a
little host memory for estimate accuracy; an underestimate triggers the
overflow/regrow error path.  This test sweeps ``k`` against a 100k-group
input and checks the estimate error and whether the sized table survives
insertion without regrowing.
"""

import numpy as np

from repro.blu.datatypes import int64
from repro.blu.expressions import AggFunc
from repro.blu.statistics import estimate_distinct, murmur3_fmix64
from repro.config import CostModel
from repro.errors import HashTableOverflowError
from repro.gpu.kernels.groupby_regular import RegularGroupByKernel
from repro.gpu.kernels.request import GroupByRequest, PayloadSpec

ROWS = 400_000
TRUE_GROUPS = 100_000
KS = (64, 256, 1024, 4096)


def test_ablation_kmv():
    cost = CostModel()
    kernel = RegularGroupByKernel(cost)
    rng = np.random.default_rng(53)
    keys = rng.integers(0, TRUE_GROUPS, ROWS).astype(np.int64)
    true_groups = len(np.unique(keys))
    hashes = murmur3_fmix64(keys)
    payloads = [PayloadSpec(int64(), AggFunc.SUM)]

    def run():
        rows = []
        for k in KS:
            estimate = estimate_distinct(hashes, k=k).groups
            request = GroupByRequest(keys=keys, key_bits=64,
                                     payloads=payloads,
                                     estimated_groups=estimate)
            try:
                kernel.run(request)
                survived = True
            except HashTableOverflowError:
                survived = False
            error = (estimate - true_groups) / true_groups * 100
            rows.append((k, estimate, error, survived))
        return rows

    rows = run()

    errors = {k: abs(e) for k, _est, e, _s in rows}
    assert errors[4096] <= errors[64]            # accuracy improves with k
    by_k = {k: s for k, _e, _err, s in rows}
    assert by_k[1024] and by_k[4096]             # defaults never overflow
