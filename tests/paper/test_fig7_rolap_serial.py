"""Figure 7 — Cognos ROLAP per-query serial times, GPU on vs off.

Paper shape: "Most of the queries take less time when GPU is used ... The
benefit of GPU offloading is apparent with longer running queries, but
there is no benefit for shorter running queries (e.g. Q1 and Q4)."
"""

from repro.bench import gain_percent
from repro.workloads.cognos_rolap import screen_queries


def test_fig7_rolap_serial(driver):
    runnable, _ = screen_queries(driver.gpu_engine)

    def run():
        on = driver.run_serial(runnable, gpu=True, repeats=5)
        off = driver.run_serial(runnable, gpu=False, repeats=5)
        return on, off

    on, off = run()

    by_id = {}
    for a, b in zip(on, off):
        gain = gain_percent(b.elapsed_ms, a.elapsed_ms)
        by_id[a.query_id] = (a.elapsed_ms, b.elapsed_ms, gain)

    # Q1/Q4 are short and see no benefit.
    assert abs(by_id["Q1"][2]) < 1.0
    assert abs(by_id["Q4"][2]) < 1.0
    # Most queries improve; the long ones improve clearly.
    improved = sum(1 for _, _, g in by_id.values() if g > 1.0)
    assert improved >= len(by_id) // 2
    longest = max(by_id.values(), key=lambda v: v[1])
    assert longest[2] > 5.0
