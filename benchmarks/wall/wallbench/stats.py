"""Order statistics, the noise-guard calibration loop, and host probes."""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Sequence

#: A percentile is only reported with this many samples beyond it
#: (choosing-metrics §1), so p90 needs 100 samples.
MIN_SAMPLES_BEYOND = 10

#: The calibration loop's array size; fixed so machines compare
#: (``--quick`` is a smoke run and uses a tenth).
CALIB_ELEMENTS = 2_000_000
QUICK_CALIB_ELEMENTS = 200_000
#: Before/after calibration drift that marks a run ``noisy``.
CALIB_DRIFT = 0.10


class TooFewSamples(ValueError):
    """The requested percentile has fewer than ten samples beyond it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``.

    Raises :class:`TooFewSamples` unless at least
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond the returned rank.
    """
    n = len(values)
    # The epsilon keeps 0.9 * 100 == 90.00000000000001 at rank 90.
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {max(n - rank, 0)} "
            f"beyond it; need {MIN_SAMPLES_BEYOND}")
    return sorted(values)[rank - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way the driver computes them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def calibrate(elements: int = CALIB_ELEMENTS) -> float:
    """Milliseconds for one fixed numpy loop (best of two).

    argsort + ``np.unique`` + ``np.add.at`` over a seeded array: the
    three primitives ROADMAP item 1 names as the engine's hot spots, so
    a machine that runs this slower runs the workloads slower too.
    """
    import numpy as np

    values = np.random.default_rng(20160626).integers(
        0, elements // 4, size=elements)
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter_ns()
        np.argsort(values, kind="stable")
        uniques, inverse = np.unique(values, return_inverse=True)
        np.add.at(np.zeros(len(uniques)), inverse, 1.0)
        best = min(best, (time.perf_counter_ns() - start) / 1e6)
    return best


def calibrate_isolated(elements: int = CALIB_ELEMENTS) -> float:
    """:func:`calibrate` in a child interpreter.

    The loop's ~150 MiB of temporaries would otherwise sit in this
    process's ``ru_maxrss``, and a child is equally cold before and
    after the workload, so the two readings compare.
    """
    done = subprocess.run([sys.executable, __file__, str(elements)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout)


def current_rss_mb() -> float:
    """Resident set right now, MiB (Linux ``/proc``; else the peak)."""
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    print(calibrate(int(sys.argv[1])))
