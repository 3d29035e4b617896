"""Table 3 — ROLAP throughput under concurrency (streams x degree sweep).

Paper shape (queries/hour): throughput rises with DB2 degree within each
stream count, two streams beat one, and — the headline — the GPU gain
*grows* with concurrency (≈4.8% at one stream to ≈15.8% at two streams
with degree 64) because offloaded work frees CPU capacity that other
queries absorb.
"""

from repro.workloads.cognos_rolap import screen_queries
from repro.workloads.query import SessionGroup

SWEEP = [(1, 24), (1, 48), (1, 64), (2, 24), (2, 48), (2, 64)]


def test_table3_throughput(driver):
    runnable, _ = screen_queries(driver.gpu_engine)

    def run():
        rows = []
        for streams, degree in SWEEP:
            group = [SessionGroup("stream", streams, runnable)]
            on = driver.closed_loop(group, gpu=True, degree=degree, loops=2)
            off = driver.closed_loop(group, gpu=False, degree=degree,
                                     loops=2)
            rows.append((streams, degree, on.throughput_per_hour(),
                         off.throughput_per_hour()))
        return rows

    rows = run()

    gains = {}
    for streams, degree, tp_on, tp_off in rows:
        gain = (tp_on - tp_off) / tp_off * 100.0
        gains[(streams, degree)] = gain

    # Shape: gain grows with streams at every degree.
    for degree in (24, 48, 64):
        assert gains[(2, degree)] > gains[(1, degree)]
    # Shape: throughput rises with degree within a stream count (GPU off).
    off_by_degree = {d: tp for s, d, _, tp in rows if s == 1}
    assert off_by_degree[24] < off_by_degree[48] <= off_by_degree[64] * 1.001
    # Two streams outperform one.
    on_one = dict(((s, d), tp) for s, d, tp, _ in rows)
    assert on_one[(2, 48)] > on_one[(1, 48)]
