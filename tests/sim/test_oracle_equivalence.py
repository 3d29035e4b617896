"""The one-walk-per-event simulator ≡ the PR-14 event loop, byte for byte.

``tests/sim/oracles.py`` keeps the old loop and the old pool verbatim;
for random scripts every field of the two ``SimulationResult``s must
have the same ``repr`` — equal floats to the last bit, equal order.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.config import GpuSpec, paper_testbed
from repro.errors import SimulationError
from repro.sim import SimulationResult, UserScript, WorkloadSimulator
from repro.timing import CostEvent, QueryProfile

from tests.sim.oracles import OracleSimulator

DEVICE_BYTES = GpuSpec().device_memory_bytes

# Work sizes repeat so completions tie, and include a sub-epsilon stage
# (1e-10 s is skipped by ``_stages_of``: a zero-work query).
seconds = st.sampled_from([0.0, 1e-10, 0.01, 0.25, 0.25, 1.0, 3.7])
events = st.builds(
    lambda cpu, degree, gpu, mem, group: CostEvent(
        op="X",
        cpu_seconds=cpu,
        max_degree=degree,
        gpu_seconds=gpu,
        gpu_memory_bytes=int(mem * DEVICE_BYTES),
        parallel_group=group,
    ),
    cpu=seconds,
    # 1 binds its cap at any load, 200 is clamped to the hardware threads.
    degree=st.sampled_from([1, 24, 48, 200]),
    gpu=seconds,
    # 0.7 and 1.0 of a device force admission waits.
    mem=st.sampled_from([0.0, 0.01, 0.4, 0.7, 1.0]),
    group=st.sampled_from([-1, -1, 0, 1]),
)
profiles = st.lists(
    st.lists(events, max_size=5), min_size=1, max_size=6
).map(
    lambda specs: [
        QueryProfile(f"q{i}", gpu_enabled=True, events=spec)
        for i, spec in enumerate(specs)
    ]
)
user = st.tuples(
    st.lists(st.integers(0, 5), min_size=1, max_size=4),  # profile picks
    st.integers(1, 3),  # loops
    st.sampled_from([0.0, 0.0, 0.05, 0.5]),  # think_seconds
)
# The count is drawn first so large closed loops are as likely as small.
users = st.integers(1, 40).flatmap(
    lambda n: st.lists(user, min_size=n, max_size=n)
)


def outcome(simulator, scripts, max_seconds):
    """``repr`` of every result field, or the error the run ended in."""
    try:
        result = simulator.run(scripts, max_seconds=max_seconds)
    except SimulationError as error:
        return {"error": str(error)}
    return {
        f.name: repr(getattr(result, f.name))
        for f in dataclasses.fields(SimulationResult)
    }


@settings(max_examples=150, deadline=None)
@given(
    pool=profiles,
    picks=users,
    devices=st.integers(1, 4),
    cpu_only=st.booleans(),
    max_seconds=st.sampled_from([None, None, 0.3, 2.0, 11.0]),
)
def test_every_result_field_matches_the_old_loop(
    pool, picks, devices, cpu_only, max_seconds
):
    if cpu_only:
        pool = [
            QueryProfile(
                p.query_id,
                gpu_enabled=False,
                events=[
                    dataclasses.replace(e, gpu_seconds=0.0) for e in p.events
                ],
            )
            for p in pool
        ]
    config = dataclasses.replace(paper_testbed(), gpus=(GpuSpec(),) * devices)
    scripts = [
        UserScript(
            f"u{i}",
            [pool[j % len(pool)] for j in indices],
            loops=loops,
            think_seconds=think,
        )
        for i, (indices, loops, think) in enumerate(picks)
    ]
    new = outcome(WorkloadSimulator(config), scripts, max_seconds)
    old = outcome(OracleSimulator(config), scripts, max_seconds)
    assert new.keys() == old.keys()
    for name in old:
        assert new[name] == old[name], name
