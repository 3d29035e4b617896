"""Figure 6 — BD Insights intermediate queries, GPU on vs off.

Paper shape: "the performance of our prototype is very close to baseline"
— these queries have little offloadable work, and the path selection keeps
the small group-bys on the CPU, so the deltas are small in both directions.
The simple queries (never sent to the GPU) are checked alongside as the
paper's section 5.2.1 describes them.
"""

from repro.bench import gain_percent
from repro.workloads.bdinsights import queries_by_category
from repro.workloads.query import QueryCategory


def test_fig6_bd_intermediate(driver):
    queries = queries_by_category(QueryCategory.INTERMEDIATE)

    def run():
        on = driver.run_serial(queries, gpu=True)
        off = driver.run_serial(queries, gpu=False)
        return on, off

    on, off = run()

    total_on = sum(r.elapsed_ms for r in on)
    total_off = sum(r.elapsed_ms for r in off)
    total_gain = gain_percent(total_off, total_on)

    assert -5.0 < total_gain < 8.0


def test_fig6_simple_queries_untouched(driver):
    """The 70 simple queries are never sent to the GPU (section 5.2.1)."""
    queries = queries_by_category(QueryCategory.SIMPLE)

    def run():
        return (driver.run_serial(queries, gpu=True),
                driver.run_serial(queries, gpu=False))

    on, off = run()

    total_on = sum(r.elapsed_ms for r in on)
    total_off = sum(r.elapsed_ms for r in off)

    assert not any(r.offloaded for r in on)
    assert total_on == total_off
