"""Conservation and determinism properties of the workload simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import paper_testbed
from repro.sim import UserScript, WorkloadSimulator
from repro.timing import CostEvent, QueryProfile


def build_profile(spec: list[tuple[float, float]], qid="q") -> QueryProfile:
    """spec: list of (cpu_core_seconds, gpu_seconds) stages."""
    events = []
    for cpu, gpu in spec:
        if cpu > 0:
            events.append(CostEvent(op="C", cpu_seconds=cpu, max_degree=24))
        if gpu > 0:
            events.append(CostEvent(op="G", gpu_seconds=gpu,
                                    gpu_memory_bytes=1 << 20, max_degree=1))
    return QueryProfile(qid, gpu_enabled=True, events=events)


stage_lists = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=5.0),
              st.floats(min_value=0.0, max_value=1.0)),
    min_size=1, max_size=4,
)


class TestConservation:
    @given(specs=st.lists(stage_lists, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_makespan_bounds(self, specs):
        """Makespan is at least the critical path of any one user and at
        least total-CPU-work / peak capacity; and at most the fully
        serialised sum."""
        config = paper_testbed()
        host = config.host
        users = [UserScript(f"u{i}", [build_profile(s, qid=f"q{i}")])
                 for i, s in enumerate(specs)]
        sim = WorkloadSimulator(config)
        result = sim.run(users)

        total_cpu = sum(c for s in specs for c, _g in s)
        total_gpu = sum(g for s in specs for _c, g in s)
        peak_capacity = host.effective_capacity(host.hardware_threads)

        lower_cpu = total_cpu / peak_capacity
        lower_gpu = total_gpu / (2 * 1.0)     # two devices, rate 1 each
        per_user = [
            sum(c / host.effective_capacity(24) + g for c, g in s)
            for s in specs
        ]
        lower = max([lower_cpu, lower_gpu] + per_user) if specs else 0.0
        upper = sum(per_user) + 1e-9

        assert result.makespan >= lower - 1e-6
        assert result.makespan <= upper + 1e-6
        assert result.queries_completed == len(users)

    @given(specs=st.lists(stage_lists, min_size=1, max_size=4),
           loops=st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_deterministic(self, specs, loops):
        config = paper_testbed()
        users = [UserScript(f"u{i}", [build_profile(s, qid=f"q{i}")],
                            loops=loops)
                 for i, s in enumerate(specs)]
        r1 = WorkloadSimulator(config).run(users)
        r2 = WorkloadSimulator(config).run(users)
        assert r1.makespan == pytest.approx(r2.makespan, abs=1e-12)
        assert [c.end for c in r1.completions] == \
            pytest.approx([c.end for c in r2.completions], abs=1e-12)

    @given(specs=st.lists(stage_lists, min_size=2, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_memory_never_overcommitted(self, specs):
        config = paper_testbed()
        users = [UserScript(f"u{i}", [build_profile(s)])
                 for i, s in enumerate(specs)]
        result = WorkloadSimulator(config).run(users)
        capacity = config.gpus[0].device_memory_bytes
        for log in result.device_memory_logs.values():
            for _t, reserved in log:
                assert 0 <= reserved <= capacity
            if log:
                assert log[-1][1] == 0          # all memory returned

    @given(specs=st.lists(stage_lists, min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_completions_ordered_per_user(self, specs):
        config = paper_testbed()
        users = [UserScript(f"u{i}", [build_profile(s, qid=f"a{i}"),
                                      build_profile(s, qid=f"b{i}")])
                 for i, s in enumerate(specs)]
        result = WorkloadSimulator(config).run(users)
        for i in range(len(specs)):
            mine = [c for c in result.completions
                    if c.user_id == f"u{i}"]
            assert [c.query_id for c in mine] == [f"a{i}", f"b{i}"]
            assert all(c.start <= c.end for c in mine)


def degree_profile(spec: list[tuple[float, float]], degree: int,
                   qid: str) -> QueryProfile:
    """:func:`build_profile` with every CPU stage at ``degree``."""
    events = []
    for cpu, gpu in spec:
        if cpu > 0:
            events.append(CostEvent(op="C", cpu_seconds=cpu,
                                    max_degree=degree))
        if gpu > 0:
            events.append(CostEvent(op="G", gpu_seconds=gpu,
                                    gpu_memory_bytes=1 << 20, max_degree=1))
    return QueryProfile(qid, gpu_enabled=True, events=events)


def event_grid(result) -> list[tuple[float, float, float]]:
    """``(t0, t1, utilisation)`` of every inter-event interval: the
    simulator samples the pool once per event, and every stage, request
    and think time starts and ends on an event."""
    samples = result.cpu_utilisation_samples
    ends = [t for t, _ in samples[1:]] + [result.makespan]
    return [(t0, t1, util) for (t0, util), t1 in zip(samples, ends)
            if t1 > t0]


# CPU work in every stage, so no query completes without entering the pool.
busy_stage_lists = st.lists(
    st.tuples(st.floats(min_value=0.01, max_value=5.0),
              st.floats(min_value=0.0, max_value=1.0)),
    min_size=1, max_size=3,
)


class TestOperationalLaws:
    """Lazowska et al., *Quantitative System Performance* (1984), ch. 3
    (utilization law, Little's law) and ch. 5 (closed models)."""

    @given(users=st.lists(
               st.tuples(stage_lists,
                         st.sampled_from([1, 4, 16, 24, 48, 64, 96])),
               min_size=1, max_size=5),
           loops=st.integers(min_value=1, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_utilisation_law(self, users, loops):
        """The core-seconds the pool delivers — utilisation times the
        capacity of the runnable threads, integrated over the run — equal
        the CPU demand of every completed profile."""
        config = paper_testbed()
        host = config.host
        profiles = {f"q{i}": degree_profile(spec, degree, f"q{i}")
                    for i, (spec, degree) in enumerate(users)}
        degree_of = {f"u{i}": degree for i, (_, degree) in enumerate(users)}
        result = WorkloadSimulator(config).run([
            UserScript(f"u{i}", [profiles[f"q{i}"]], loops=loops)
            for i in range(len(users))])

        cpu_stages = [(stage.start, stage.end, degree_of[r.user_id])
                      for r in result.requests for stage in r.stages
                      if stage.kind == "cpu"]
        delivered = 0.0
        for t0, t1, util in event_grid(result):
            threads = sum(d for start, end, d in cpu_stages
                          if start <= t0 and end >= t1)
            delivered += util * host.effective_capacity(threads) * (t1 - t0)
        demand = sum(event.cpu_seconds for c in result.completions
                     for event in profiles[c.query_id].events)

        assert result.queries_completed == len(users) * loops
        # A stage finishes with at most 1e-9 core-seconds left.
        assert delivered == pytest.approx(
            demand, rel=1e-9, abs=1e-9 * (len(cpu_stages) + 1))

    # ``[]`` is a zero-work query: it completes on the spot and the
    # session thinks after it as after any other.
    @given(users=st.lists(st.lists(st.one_of(busy_stage_lists, st.just([])),
                                   min_size=1, max_size=3),
                          min_size=1, max_size=4),
           loops=st.integers(min_value=1, max_value=3),
           think=st.floats(min_value=1e-3, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_littles_law_per_session(self, users, loops, think):
        """Over whole cycles (each response plus its think time), each
        session's mean number in system equals its throughput times its
        mean response time, and its population of one equals throughput
        times (response + think)."""
        config = paper_testbed()
        scripts = [
            UserScript(f"u{i}", [build_profile(spec, qid=f"q{i}.{j}")
                                 for j, spec in enumerate(queries)],
                       loops=loops, think_seconds=think)
            for i, queries in enumerate(users)]
        result = WorkloadSimulator(config).run(scripts)
        grid = event_grid(result)

        for script in scripts:
            mine = [r for r in result.requests
                    if r.user_id == script.user_id]
            cycles = len(mine)
            assert cycles == len(script.profiles) * loops
            window = mine[-1].end + think
            in_system = sum(t1 - t0 for t0, t1, _ in grid
                            if any(r.start <= t0 and r.end >= t1
                                   for r in mine))
            throughput = cycles / window
            response = sum(r.elapsed for r in mine) / cycles

            assert in_system / window == pytest.approx(
                throughput * response, rel=1e-9, abs=1e-12)
            # A session wakes up to 1e-9 s early (the event epsilon).
            assert throughput * (response + think) == pytest.approx(
                1.0, abs=1e-9 * cycles / window)
