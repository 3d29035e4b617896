#!/usr/bin/env python
"""Cognos ROLAP: memory screening, serial totals, and throughput sweep.

Reproduces the paper's section 5.2.2 narrative end to end:

1. screen the 46 ROLAP queries against GPU memory (34 runnable, 12 not);
2. run the 34 serially with and without GPU (Table 2's ~8% gain);
3. sweep streams x degree through the closed-loop simulator (Table 3) and
   show the GPU gain growing with concurrency — the CPU-freeing effect.

Run:  python examples/rolap_concurrent.py [scale]
"""

import sys

from repro.workloads.cognos_rolap import screen_queries
from repro.workloads.datagen import generate_database, scaled_config
from repro.workloads.driver import WorkloadDriver
from repro.workloads.query import SessionGroup


def main(scale: float = 0.05) -> None:
    catalog = generate_database(scale=scale, seed=7)
    config = scaled_config(catalog)
    driver = WorkloadDriver(catalog, config)

    runnable, oversized = screen_queries(driver.gpu_engine)
    print(f"memory screen: {len(runnable)} of 46 queries fit the "
          f"{config.gpus[0].device_memory_bytes / 1e6:.0f} MB device; "
          f"{len(oversized)} exceed it "
          f"({', '.join(q.query_id for q in oversized[:6])}, ...)")
    print()

    on = driver.run_serial(runnable, gpu=True)
    off = driver.run_serial(runnable, gpu=False)
    total_on = sum(r.elapsed_ms for r in on)
    total_off = sum(r.elapsed_ms for r in off)
    print(f"serial totals over {len(runnable)} queries:")
    print(f"  GPU on  {total_on:10.2f} ms")
    print(f"  GPU off {total_off:10.2f} ms")
    print(f"  gain    {(total_off - total_on) / total_off * 100:.2f}%   "
          f"(paper: 8.33%)")
    print()

    print("throughput sweep (queries/hour):")
    print(f"  {'#stream':>8} {'#degree':>8} {'GPU on':>12} "
          f"{'GPU off':>12} {'gain':>8}")
    for streams in (1, 2):
        for degree in (24, 48, 64):
            group = [SessionGroup("stream", streams, runnable)]
            tp_on = driver.closed_loop(group, gpu=True, degree=degree,
                                       loops=2).throughput_per_hour()
            tp_off = driver.closed_loop(group, gpu=False, degree=degree,
                                        loops=2).throughput_per_hour()
            print(f"  {streams:>8} {degree:>8} {tp_on:>12.0f} "
                  f"{tp_off:>12.0f} {(tp_on - tp_off) / tp_off * 100:>7.2f}%")
    print()
    print("the gain grows with streams: offloaded group-bys free CPU")
    print("capacity that the other stream's queries immediately absorb.")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.05)
