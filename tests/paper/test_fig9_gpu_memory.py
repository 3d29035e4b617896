"""Figure 9 — GPU memory utilisation during the Figure-8 run.

Paper shape: "The GPU memory utilization characteristics for this workload
shows a very spiky pattern ... at many points the workload is near GPU
memory capacity."
"""

from repro.workloads.scenarios import figure8_thread_groups


def test_fig9_gpu_memory(driver, config):
    groups = figure8_thread_groups()

    def run():
        return driver.closed_loop(groups, loops=3,
                                  degree=driver.PROFILE_DEGREE).sim

    result = run()
    capacity = config.gpus[0].device_memory_bytes

    for device_id, log in result.device_memory_logs.items():
        assert log, f"device {device_id} never used"
        peak = max(b for _, b in log)
        assert peak / capacity > 0.5            # near-capacity peaks
        assert peak <= capacity                 # never overcommitted
        # Spiky: memory returns to zero repeatedly between kernels.
        assert sum(1 for _, b in log if b == 0) >= 3
        # Timestamps are monotone.
        times = [t for t, _ in log]
        assert times == sorted(times)
