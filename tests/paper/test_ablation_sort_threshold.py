"""Ablation — the GPU sort job-size threshold (section 3).

"If the number of input tuples is very small, there is no benefit in
forwarding the sort job over to the GPU because the combined cost of the
transfer time plus processing time overshadows the performance savings."
Sweeps the job size and compares CPU sort time with GPU (transfer +
kernel) time, locating the crossover that motivates the hybrid job queue.
"""

import math

import numpy as np

from repro.config import CostModel, GpuSpec, HostSpec
from repro.gpu.kernels.radix_sort import RadixSortKernel
from repro.gpu.transfer import transfer_seconds

JOB_SIZES = (256, 1024, 4096, 16_384, 65_536, 262_144, 1_048_576)


def test_ablation_sort_threshold():
    cost = CostModel()
    spec = GpuSpec()
    host = HostSpec()
    kernel = RadixSortKernel(cost)
    rng = np.random.default_rng(29)

    def run():
        rows = []
        for n in JOB_SIZES:
            keys = rng.integers(0, 2**32, n, dtype=np.uint32)
            result = kernel.run(keys)
            staged = n * 8
            gpu_time = (spec.kernel_launch_overhead
                        + transfer_seconds(staged, spec)
                        + result.kernel_seconds
                        + transfer_seconds(staged, spec))
            # CPU: n log n comparisons at the calibrated rate over 8 cores.
            cpu_time = (n * math.log2(max(n, 2))
                        / (cost.cpu_sort_rate * 16)
                        / host.effective_capacity(8))
            rows.append((n, cpu_time, gpu_time))
        return rows

    rows = run()

    crossover = next((n for n, cpu_time, gpu_time in rows
                      if gpu_time < cpu_time), None)

    # Small jobs lose on the GPU, large jobs win, and the configured
    # threshold sits at or below the measured crossover.
    assert rows[0][2] > rows[0][1]              # 256 rows: GPU loses
    assert rows[-1][2] < rows[-1][1]            # 1M rows: GPU wins
    assert crossover is not None
    assert cost.cpu_sort_job_threshold <= crossover * 4
