"""Unit tests for the closed-loop workload simulator."""

import dataclasses

import pytest

from repro.config import paper_testbed, cpu_only_testbed
from repro.sim import UserScript, WorkloadSimulator
from repro.timing import CostEvent, QueryProfile


def profile(qid, cpu=0.0, gpu=0.0, degree=24, mem=0):
    events = []
    if cpu:
        events.append(CostEvent(op="CPU", cpu_seconds=cpu,
                                max_degree=degree))
    if gpu:
        events.append(CostEvent(op="GPU", gpu_seconds=gpu,
                                gpu_memory_bytes=mem, max_degree=1))
    return QueryProfile(qid, gpu_enabled=gpu > 0, events=events)


class TestSerialBehaviour:
    def test_single_user_single_query(self):
        sim = WorkloadSimulator(paper_testbed())
        result = sim.run([UserScript("u", [profile("q", cpu=24.0)])])
        assert result.makespan == pytest.approx(1.0)
        assert result.queries_completed == 1
        assert result.completions[0].elapsed == pytest.approx(1.0)

    def test_loops_repeat_queries(self):
        sim = WorkloadSimulator(paper_testbed())
        result = sim.run([UserScript("u", [profile("q", cpu=24.0)],
                                     loops=3)])
        assert result.queries_completed == 3
        assert result.makespan == pytest.approx(3.0)

    def test_gpu_stage_serialises_after_cpu_stage(self):
        sim = WorkloadSimulator(paper_testbed())
        result = sim.run([UserScript(
            "u", [profile("q", cpu=24.0, gpu=0.5, mem=1 << 20)])])
        assert result.makespan == pytest.approx(1.5)

    def test_zero_work_query(self):
        sim = WorkloadSimulator(paper_testbed())
        result = sim.run([UserScript("u", [profile("empty")])])
        assert result.queries_completed == 1
        assert result.makespan == pytest.approx(0.0)


class TestContention:
    def test_two_users_share_cores(self):
        sim = WorkloadSimulator(paper_testbed())
        users = [UserScript(f"u{i}", [profile("q", cpu=24.0, degree=24)])
                 for i in range(2)]
        result = sim.run(users)
        # 48 core-seconds over eff(48) capacity.
        host = paper_testbed().host
        assert result.makespan == pytest.approx(
            48.0 / host.effective_capacity(48), rel=1e-6)

    def test_offload_frees_cpu_for_other_users(self):
        """The paper's central multi-user claim."""
        config = paper_testbed()
        work_cpu_only = [profile("q", cpu=24.0, degree=24)]
        work_offloaded = [profile("q", cpu=12.0, gpu=0.2, degree=24,
                                  mem=1 << 20)]
        sim1 = WorkloadSimulator(config)
        all_cpu = sim1.run([UserScript(f"u{i}", list(work_cpu_only))
                            for i in range(4)])
        sim2 = WorkloadSimulator(config)
        offloaded = sim2.run([UserScript(f"u{i}", list(work_offloaded))
                              for i in range(4)])
        assert offloaded.makespan < all_cpu.makespan

    def test_gpu_memory_admission_queues(self):
        """Kernels wait when no device can reserve their memory
        (section 2.1.1 option 1)."""
        config = paper_testbed()
        mem = config.gpus[0].device_memory_bytes  # whole device per kernel
        users = [UserScript(f"u{i}", [profile("q", gpu=1.0, mem=mem)])
                 for i in range(4)]
        sim = WorkloadSimulator(config)
        result = sim.run(users)
        # 4 kernels, 2 devices, 1 at a time per device -> 2 serialized waves.
        assert result.makespan == pytest.approx(2.0)
        assert result.gpu_waits >= 2

    def test_kernels_share_one_device(self):
        config = dataclasses.replace(paper_testbed(),
                                     gpus=(paper_testbed().gpus[0],))
        users = [UserScript(f"u{i}", [profile("q", gpu=1.0, mem=1024)])
                 for i in range(2)]
        result = WorkloadSimulator(config).run(users)
        assert result.makespan == pytest.approx(2.0)  # shared at half rate


class TestInstrumentation:
    def test_memory_log_produced(self):
        config = paper_testbed()
        sim = WorkloadSimulator(config)
        result = sim.run([UserScript(
            "u", [profile("q", cpu=1.0, gpu=0.5, mem=123456)])])
        logs = [s for log in result.device_memory_logs.values() for s in log]
        assert (0.0, 0) not in logs   # first sample is the admit
        assert any(b == 123456 for _, b in logs)
        assert logs[-1][1] == 0       # released at the end

    def test_elapsed_by_query(self):
        sim = WorkloadSimulator(paper_testbed())
        result = sim.run([UserScript("u", [profile("a", cpu=2.4),
                                           profile("b", cpu=4.8)],
                                     loops=2)])
        elapsed = result.elapsed_by_query()
        assert len(elapsed["a"]) == 2
        assert sum(elapsed["b"]) > sum(elapsed["a"])

    def test_throughput(self):
        sim = WorkloadSimulator(paper_testbed())
        result = sim.run([UserScript("u", [profile("q", cpu=24.0)],
                                     loops=2)])
        assert result.throughput_per_hour() == pytest.approx(3600.0)

    def test_cpu_only_config_has_no_devices(self):
        config = cpu_only_testbed()
        sim = WorkloadSimulator(config)
        result = sim.run([UserScript("u", [profile("q", cpu=1.0)])])
        assert result.device_memory_logs == {}


class TestThinkTime:
    def test_think_time_extends_makespan(self):
        sim = WorkloadSimulator(paper_testbed())
        result = sim.run([UserScript("u", [profile("q", cpu=24.0)],
                                     loops=3, think_seconds=0.5)])
        # Three 1s queries with two 0.5s pauses between them.
        assert result.makespan == pytest.approx(4.0)
        assert result.queries_completed == 3

    def test_no_think_after_last_query(self):
        sim = WorkloadSimulator(paper_testbed())
        result = sim.run([UserScript("u", [profile("q", cpu=24.0)],
                                     loops=1, think_seconds=10.0)])
        assert result.makespan == pytest.approx(1.0)

    def test_thinking_user_frees_capacity_for_others(self):
        config = paper_testbed()
        pacer = UserScript("pacer", [profile("p", cpu=24.0, degree=24)],
                           loops=2, think_seconds=1.0)
        steady = UserScript("steady", [profile("s", cpu=24.0, degree=24)],
                            loops=2)
        paced = WorkloadSimulator(config).run([pacer, steady])
        unpaced = WorkloadSimulator(config).run([
            UserScript("pacer", [profile("p", cpu=24.0, degree=24)],
                       loops=2),
            steady,
        ])
        # While the pacer thinks, the steady user runs uncontended, so its
        # own completions come earlier than in the unpaced run.
        paced_steady_end = max(c.end for c in paced.completions
                               if c.user_id == "steady")
        unpaced_steady_end = max(c.end for c in unpaced.completions
                                 if c.user_id == "steady")
        assert paced_steady_end < unpaced_steady_end

    def test_think_between_queries_in_sequence(self):
        sim = WorkloadSimulator(paper_testbed())
        result = sim.run([UserScript(
            "u", [profile("a", cpu=24.0), profile("b", cpu=24.0)],
            think_seconds=0.25)])
        ends = {c.query_id: c.end for c in result.completions}
        starts = {c.query_id: c.start for c in result.completions}
        assert starts["b"] - ends["a"] == pytest.approx(0.25)

    def test_think_after_an_empty_query(self):
        """A zero-work query is followed by a think pause like any other."""
        a = profile("a", cpu=2.4, degree=24)        # 0.1 s on 24 cores
        result = WorkloadSimulator(paper_testbed()).run([UserScript(
            "u", [a, profile("empty"), a], think_seconds=1.0)])
        assert [(r.query_id, r.start) for r in result.requests] == [
            ("a", 0.0), ("empty", pytest.approx(1.1)),
            ("a", pytest.approx(2.1))]


class TestDeadlockDetection:
    def test_impossible_reservation_raises(self):
        from repro.errors import SimulationError

        config = paper_testbed()
        impossible = config.gpus[0].device_memory_bytes * 2
        sim = WorkloadSimulator(config)
        with pytest.raises(SimulationError, match="blocked"):
            sim.run([UserScript("u", [profile("q", gpu=1.0,
                                              mem=impossible)])])


class TestHeterogeneousDevices:
    def test_big_kernel_waits_for_the_big_device(self):
        """Section 2.2: GPUs 'do not need to be homogeneous'."""
        import dataclasses as dc

        from repro.config import GpuSpec

        small = dc.replace(GpuSpec(), device_memory_bytes=1 << 20)
        big = dc.replace(GpuSpec(), device_memory_bytes=1 << 30)
        config = dc.replace(paper_testbed(), gpus=(small, big))
        users = [
            UserScript("heavy", [profile("h", gpu=1.0, mem=1 << 29)]),
            UserScript("heavy2", [profile("h2", gpu=1.0, mem=1 << 29)]),
            UserScript("light", [profile("l", gpu=1.0, mem=1 << 18)]),
        ]
        result = WorkloadSimulator(config).run(users)
        # Both heavy kernels need the big device; the light one fits the
        # small device and never waits, so everything ends by t=2.
        assert result.makespan == pytest.approx(2.0)
        assert result.queries_completed == 3
