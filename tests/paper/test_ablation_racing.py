"""Ablation — racing kernels vs trusting the moderator (section 4.2).

"We can run the query concurrently on two or more different kernels ...
then stop the other kernel(s) as soon as one of the kernels finishes its
job."  Racing buys the best latency without a model, at the price of the
losers' device occupancy.  This test checks both sides across query
shapes, including one adversarial shape where the static rules mispick.
"""

import numpy as np

from repro.blu.datatypes import int64
from repro.blu.expressions import AggFunc
from repro.config import CostModel, Thresholds
from repro.core.metadata import RuntimeMetadata
from repro.core.moderator import GpuModerator
from repro.gpu.kernels.request import GroupByRequest, PayloadSpec

SHAPES = [
    ("tiny groups", 200_000, 12, 2),
    ("mid groups", 200_000, 800, 2),
    ("many aggs", 200_000, 5_000, 8),
    ("near the agg threshold", 200_000, 5_000, 5),
    ("huge groups", 200_000, 60_000, 2),
]


def test_ablation_racing():
    cost = CostModel()
    rng = np.random.default_rng(47)

    def run():
        rows = []
        for label, n_rows, groups, n_aggs in SHAPES:
            keys = rng.integers(0, groups, n_rows).astype(np.int64)
            payloads = [PayloadSpec(int64(), AggFunc.SUM)] * n_aggs
            metadata = RuntimeMetadata(
                rows=n_rows, optimizer_groups=float(groups),
                kmv_groups=groups, payloads=payloads)
            request = GroupByRequest(keys=keys, key_bits=64,
                                     payloads=payloads,
                                     estimated_groups=groups)
            single = GpuModerator(cost, Thresholds()) \
                .run(request, metadata, race=False)
            raced = GpuModerator(cost, Thresholds()) \
                .run(request, metadata, race=True)
            rows.append((label, single.winner.kernel,
                         single.winner.kernel_seconds,
                         raced.winner.kernel,
                         raced.winner.kernel_seconds,
                         raced.wasted_device_seconds))
        return rows

    rows = run()

    for label, _k1, t1, _k2, t2, wasted in rows:
        # The race winner is at least as fast as the chosen kernel...
        assert t2 <= t1 + 1e-12
        # ...and always pays some occupancy for the losers.
        assert wasted > 0
    # In most shapes the static choice already matches the race winner.
    matches = sum(1 for _l, k1, _t1, k2, _t2, _w in rows if k1 == k2)
    assert matches >= len(rows) - 1
