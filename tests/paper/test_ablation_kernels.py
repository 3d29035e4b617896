"""Ablation — the three group-by kernels across the query-shape grid.

Sweeps (#groups, #aggregation functions) at a fixed row count and checks
which kernel wins each cell, validating the moderator's selection rules
(section 4.3): shared-memory for tiny group counts, the row-lock kernel
for many aggregates, the regular kernel elsewhere.
"""

import numpy as np

from repro.blu.datatypes import int64
from repro.blu.expressions import AggFunc
from repro.config import CostModel, Thresholds
from repro.core.metadata import RuntimeMetadata
from repro.core.moderator import GpuModerator
from repro.gpu.kernels.groupby_biglock import GlobalLockGroupByKernel
from repro.gpu.kernels.groupby_regular import RegularGroupByKernel
from repro.gpu.kernels.groupby_shared import SharedMemoryGroupByKernel
from repro.gpu.kernels.request import GroupByRequest, PayloadSpec

ROWS = 200_000
GROUP_COUNTS = (12, 256, 4096, 65_536)
AGG_COUNTS = (1, 3, 6, 9)


def test_ablation_kernels():
    cost = CostModel()
    kernels = {
        "k1-regular": RegularGroupByKernel(cost),
        "k2-shared": SharedMemoryGroupByKernel(cost),
        "k3-biglock": GlobalLockGroupByKernel(cost),
    }
    moderator = GpuModerator(cost, Thresholds())
    rng = np.random.default_rng(17)

    def run():
        cells = []
        for groups in GROUP_COUNTS:
            keys = rng.integers(0, groups, ROWS).astype(np.int64)
            for n_aggs in AGG_COUNTS:
                payloads = [PayloadSpec(int64(), AggFunc.SUM)] * n_aggs
                request = GroupByRequest(keys=keys, key_bits=64,
                                         payloads=payloads,
                                         estimated_groups=groups)
                times = {}
                for name, kernel in kernels.items():
                    shape = SharedMemoryGroupByKernel(cost)
                    if name == "k2-shared" and not shape.fits(request):
                        times[name] = float("inf")
                        continue
                    times[name] = kernel.run(request).kernel_seconds
                winner = min(times, key=times.get)
                metadata = RuntimeMetadata(
                    rows=ROWS, optimizer_groups=float(groups),
                    kmv_groups=groups, payloads=payloads)
                chosen, _ = moderator.choose(metadata)
                cells.append((groups, n_aggs, times, winner, chosen.name))
        return cells

    cells = run()

    short = {"k1-regular": "groupby_regular",
             "k2-shared": "groupby_shared",
             "k3-biglock": "groupby_biglock"}
    agreements = sum(short[winner] == chosen
                     for _g, _a, _t, winner, chosen in cells)

    # Shape assertions on the regions the paper describes.
    by_cell = {(g, a): (t, w) for g, a, t, w, _ in cells}
    assert by_cell[(12, 1)][1] == "k2-shared"       # tiny groups
    assert by_cell[(4096, 9)][1] == "k3-biglock"    # many aggregates
    assert by_cell[(65_536, 1)][1] == "k1-regular"  # the default regime
    # The moderator's static rules match the measured winner in most cells.
    assert agreements >= len(cells) * 0.6
