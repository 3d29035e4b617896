"""The processor-sharing pool against an exact water-filling reference.

The reference is written from the pool's specification in
``repro.sim.resources``, in exact rational arithmetic: the host delivers
``HostSpec.effective_capacity`` of the runnable threads, shared fairly;
"tasks that want less than the fair share keep what they want; the
surplus is redistributed among the rest".  So the pool's float rates are
checked against the allocation itself, not against an earlier version
of the pool (``tests/sim/oracles.py``).
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.config import HostSpec
from repro.sim.resources import CpuTask, ProcessorSharingPool

HOST = HostSpec()
REL = 1e-12


def water_fill(caps: list[Fraction], capacity: Fraction) -> list[Fraction]:
    """Exact max-min fair rates of tasks capped at ``caps``."""
    rates = list(caps)
    unsettled = list(range(len(caps)))
    left = capacity
    while unsettled:
        share = left / len(unsettled)
        content = [i for i in unsettled if caps[i] <= share]
        if not content:
            for i in unsettled:
                rates[i] = share
            break
        left -= sum(caps[i] for i in content)
        unsettled = [i for i in unsettled if caps[i] > share]
    return rates


def close(got: float, want: Fraction) -> bool:
    return abs(Fraction(got) - want) <= REL * want


# Caps as the simulator derives them (the capacity of a stage's degree)
# and arbitrary ones.
caps = st.one_of(
    st.integers(min_value=1, max_value=HOST.hardware_threads).map(
        HOST.effective_capacity),
    st.floats(min_value=0.5, max_value=120.0),
)
tasks = st.lists(
    st.tuples(caps,
              st.integers(min_value=1, max_value=HOST.hardware_threads),
              st.floats(min_value=1e-3, max_value=100.0)),
    min_size=1, max_size=12,
)


@given(tasks=tasks, dropped=st.sets(st.integers(min_value=0, max_value=11)))
@settings(max_examples=300, deadline=None)
def test_pool_rates_are_the_exact_water_filling(tasks, dropped):
    pool = ProcessorSharingPool(HOST)
    for task_id, (cap, threads, work) in enumerate(tasks):
        pool.add(CpuTask(task_id, remaining=work, max_rate=cap,
                         threads=threads))
    for task_id in dropped:
        pool.remove(task_id)
    kept = [i for i in range(len(tasks)) if i not in dropped]
    capacity = HOST.effective_capacity(sum(tasks[i][1] for i in kept))
    assert pool.capacity == capacity

    want = water_fill([Fraction(tasks[i][0]) for i in kept],
                      Fraction(capacity))
    got = pool.tasks
    assert sorted(got) == kept
    for task_id, rate in zip(kept, want):
        assert close(got[task_id].rate, rate), (task_id, got[task_id].rate,
                                                float(rate))

    # Work conservation: the pool delivers everything it can.
    deliverable = min(Fraction(capacity),
                      sum(Fraction(tasks[i][0]) for i in kept))
    assert sum(want) == deliverable
    if kept:
        assert close(sum(Fraction(t.rate) for t in got.values()),
                     deliverable)
