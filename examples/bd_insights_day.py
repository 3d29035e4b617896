#!/usr/bin/env python
"""A day in the life of BD Insights (paper section 5.1.1 / 5.2.1).

Generates the TPC-DS-derived BD Insights database, then runs the three
analyst populations — Returns Dashboard (simple), Sales Report
(intermediate) and Data Scientist (complex) — with and without GPU
acceleration, reproducing the per-class behaviour of Figures 5 and 6:
complex queries gain ~20%, intermediate queries hug the baseline, simple
queries are never sent to the GPU at all.

Run:  python examples/bd_insights_day.py [scale]
"""

import sys

from repro.workloads.bdinsights import queries_by_category
from repro.workloads.datagen import generate_database, scaled_config
from repro.workloads.driver import WorkloadDriver
from repro.workloads.query import QueryCategory


def main(scale: float = 0.05) -> None:
    print(f"generating BD Insights database at scale {scale} ...")
    catalog = generate_database(scale=scale, seed=7)
    config = scaled_config(catalog)
    print(f"  {len(catalog.table_names())} tables, "
          f"{catalog.total_rows:,} rows, "
          f"{catalog.total_encoded_nbytes / 1e6:.1f} MB encoded")
    print(f"  simulated GPUs: {config.gpu_count} x "
          f"{config.gpus[0].device_memory_bytes / 1e6:.0f} MB")
    print()

    driver = WorkloadDriver(catalog, config)
    for category in (QueryCategory.COMPLEX, QueryCategory.INTERMEDIATE,
                     QueryCategory.SIMPLE):
        queries = queries_by_category(category)
        on = driver.run_serial(queries, gpu=True)
        off = driver.run_serial(queries, gpu=False)
        total_on = sum(r.elapsed_ms for r in on)
        total_off = sum(r.elapsed_ms for r in off)
        offloaded = sum(1 for r in on if r.offloaded)
        gain = (total_off - total_on) / total_off * 100 if total_off else 0
        print(f"{category.value:>12}: {len(queries):3} queries | "
              f"GPU on {total_on:9.2f} ms | off {total_off:9.2f} ms | "
              f"gain {gain:5.1f}% | offloaded {offloaded}/{len(queries)}")
        if category is QueryCategory.COMPLEX:
            for a, b in zip(on, off):
                per = (b.elapsed_ms - a.elapsed_ms) / b.elapsed_ms * 100
                print(f"      {a.query_id}: {a.elapsed_ms:8.2f} vs "
                      f"{b.elapsed_ms:8.2f} ms ({per:+.1f}%)")
    print()
    print("the monitor's view, down to the kernels the GPU executed:")
    print(driver.gpu_engine.monitor.report())


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.05)
