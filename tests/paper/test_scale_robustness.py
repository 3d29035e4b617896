"""Meta-test — the headline shapes must hold across data scales.

A reproduction calibrated to a single dataset size proves little.  This
test regenerates the two headline artefacts (Fig. 5's complex-query gain
and the 34-of-46 ROLAP screen) at three database scales and asserts the
shapes survive: complex queries keep gaining in the paper's band, simple
queries never offload, and the memory screen keeps rejecting exactly the
ticket-granularity queries.
"""

from repro.workloads.bdinsights import queries_by_category
from repro.workloads.cognos_rolap import screen_queries
from repro.workloads.datagen import generate_database, scaled_config
from repro.workloads.driver import WorkloadDriver
from repro.workloads.query import QueryCategory

SCALES = (0.02, 0.05, 0.1)


def test_scale_robustness():
    def run():
        rows = []
        for scale in SCALES:
            catalog = generate_database(scale=scale, seed=7)
            config = scaled_config(catalog)
            driver = WorkloadDriver(catalog, config)

            complex_qs = queries_by_category(QueryCategory.COMPLEX)
            on = sum(r.elapsed_ms
                     for r in driver.run_serial(complex_qs, gpu=True))
            off = sum(r.elapsed_ms
                      for r in driver.run_serial(complex_qs, gpu=False))
            complex_gain = (off - on) / off * 100

            simple_qs = queries_by_category(QueryCategory.SIMPLE)
            simple_offloads = sum(
                1 for r in driver.run_serial(simple_qs, gpu=True)
                if r.offloaded)

            runnable, oversized = screen_queries(driver.gpu_engine)
            rows.append((scale, catalog.table("store_sales").num_rows,
                         complex_gain, simple_offloads,
                         len(runnable), len(oversized)))
        return rows

    rows = run()

    for scale, _rows, gain, simple_offloads, runnable, oversized in rows:
        assert 8.0 < gain < 55.0, f"complex gain off-band at scale {scale}"
        assert simple_offloads == 0
        assert runnable == 34
        assert oversized == 12
