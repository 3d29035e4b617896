"""Unit tests for the processor-sharing pool and GPU device states."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GpuSpec, HostSpec
from repro.sim.resources import (
    CpuTask,
    GpuDeviceState,
    GpuKernelTask,
    ProcessorSharingPool,
)

from tests.sim.oracles import CpuTask as OracleTask, OraclePool


@pytest.fixture()
def host():
    return HostSpec()


@pytest.fixture()
def pool(host):
    return ProcessorSharingPool(host)


class TestEffectiveCapacity:
    def test_linear_up_to_cores(self, host):
        assert host.effective_capacity(1) == 1.0
        assert host.effective_capacity(24) == 24.0

    def test_smt_bonus_diminishes(self, host):
        c24 = host.effective_capacity(24)
        c48 = host.effective_capacity(48)
        c96 = host.effective_capacity(96)
        assert c24 < c48 < c96
        assert c48 - c24 > c96 - c48           # diminishing returns
        assert c96 < 24 * (1 + host.smt_efficiency) + 1e-9

    def test_clamped_at_hardware_threads(self, host):
        assert host.effective_capacity(1000) == \
            host.effective_capacity(host.hardware_threads)


class TestWaterFilling:
    def test_single_task_gets_its_cap(self, pool):
        pool.add(CpuTask(1, remaining=10.0, max_rate=8.0, threads=8))
        assert pool.tasks[1].rate == pytest.approx(8.0)

    def test_fair_share_when_contended(self, pool, host):
        for i in range(4):
            pool.add(CpuTask(i, remaining=10.0, max_rate=24.0, threads=24))
        capacity = host.effective_capacity(96)
        for task in pool.tasks.values():
            assert task.rate == pytest.approx(capacity / 4)

    def test_capped_tasks_release_surplus(self, pool, host):
        pool.add(CpuTask(1, remaining=10.0, max_rate=1.0, threads=1))
        pool.add(CpuTask(2, remaining=10.0, max_rate=48.0, threads=48))
        assert pool.tasks[1].rate == pytest.approx(1.0)
        capacity = host.effective_capacity(49)
        assert pool.tasks[2].rate == pytest.approx(capacity - 1.0)

    def test_total_never_exceeds_capacity(self, pool):
        for i in range(10):
            pool.add(CpuTask(i, remaining=5.0, max_rate=16.0, threads=16))
        total = sum(t.rate for t in pool.tasks.values())
        assert total <= pool.capacity + 1e-9

    def test_capacity_grows_with_threads(self, pool):
        pool.add(CpuTask(1, remaining=1.0, max_rate=24.0, threads=24))
        c1 = pool.capacity
        pool.add(CpuTask(2, remaining=1.0, max_rate=24.0, threads=24))
        assert pool.capacity > c1

    def test_progress_and_completion(self, pool):
        pool.add(CpuTask(1, remaining=10.0, max_rate=5.0, threads=5))
        eta = pool.earliest_completion()
        assert eta == pytest.approx(2.0)
        pool.progress(1.0)
        assert pool.tasks[1].remaining == pytest.approx(5.0)
        pool.remove(1)
        assert pool.earliest_completion() is None

    def test_utilisation(self, pool):
        pool.add(CpuTask(1, remaining=1.0, max_rate=24.0, threads=24))
        assert pool.utilisation == pytest.approx(1.0)


def eager_rates(host, tasks):
    """The pool's original per-mutation water-filling, kept as the oracle:
    capacity re-summed from the tasks, rates zeroed then filled."""
    threads = sum(t.threads for t in tasks)
    total = (host.effective_capacity(min(threads, host.hardware_threads))
             if threads > 0 else 0.0)
    rates = {t.task_id: 0.0 for t in tasks}
    pending = list(tasks)
    capacity = total
    while pending and capacity > 1e-12:
        share = capacity / len(pending)
        capped = [t for t in pending if t.max_rate <= share + 1e-12]
        if not capped:
            for task in pending:
                rates[task.task_id] += share
            capacity = 0.0
            break
        for task in capped:
            rates[task.task_id] = task.max_rate
            capacity -= task.max_rate
            pending.remove(task)
    if capacity < 0:
        scale = total / max(1e-12, sum(rates.values()))
        if scale < 1.0:
            rates = {k: v * scale for k, v in rates.items()}
    return total, rates


class TestLateSettling:
    """add/remove only mark the rates stale; every read settles them."""

    def test_remove_then_add_settles_once_to_the_final_set(self, pool, host):
        pool.add(CpuTask(1, remaining=1.0, max_rate=24.0, threads=24))
        pool.add(CpuTask(2, remaining=1.0, max_rate=24.0, threads=24))
        pool.remove(1)
        pool.add(CpuTask(3, remaining=1.0, max_rate=1.0, threads=1))
        assert pool.capacity == host.effective_capacity(25)
        assert {i: t.rate for i, t in pool.tasks.items()} == \
            {2: host.effective_capacity(25) - 1.0, 3: 1.0}

    def test_readding_an_id_replaces_its_threads(self, pool, host):
        pool.add(CpuTask(1, remaining=1.0, max_rate=24.0, threads=24))
        pool.add(CpuTask(1, remaining=1.0, max_rate=4.0, threads=4))
        assert pool.capacity == host.effective_capacity(4)
        pool.remove(1)
        pool.remove(1)                          # unknown id: no-op
        assert pool.capacity == 0.0
        assert pool.utilisation == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 12),                     # task id (re-adds collide)
        st.sampled_from([0, 1, 1, 1]),          # 0 = remove, 1 = add
        st.sampled_from([1, 4, 24, 48, 96, 200]),
        st.floats(0.0, 1.0)), max_size=40))
    def test_rates_match_the_eager_pool_bit_for_bit(self, mutations):
        host = HostSpec()
        pool = ProcessorSharingPool(host)
        for task_id, is_add, threads, jitter in mutations:
            if is_add:
                degree = min(threads, host.hardware_threads)
                pool.add(CpuTask(
                    task_id, remaining=1.0, threads=threads,
                    max_rate=host.effective_capacity(degree) * (1 - jitter / 2)))
            else:
                pool.remove(task_id)
            if task_id % 3 == 0:                # read only now and then
                continue
            capacity, rates = eager_rates(host, list(pool.tasks.values()))
            assert pool.capacity == capacity
            assert {i: t.rate for i, t in pool.tasks.items()} == rates
        capacity, rates = eager_rates(host, list(pool.tasks.values()))
        assert pool.capacity == capacity
        assert {i: t.rate for i, t in pool.tasks.items()} == rates
        assert pool.utilisation == (
            sum(rates.values()) / capacity if capacity else 0.0)


def observed(pool):
    """Every float a reader can see, by ``repr`` (bit for bit)."""
    tasks = pool.tasks
    return repr((
        [(i, t.remaining, t.rate) for i, t in tasks.items()],
        pool.capacity, pool.utilisation, pool.earliest_completion()))


class TestRemainingWorkOrder:
    """The pool kept in remaining-work order ≡ ``OraclePool``, bit for bit.

    Random add / remove / re-add / advance / progress sequences; degree-1
    caps bind while few tasks run and full-host caps never do, so runs
    cross between the water-filling and the uniform share.  The oracle
    keeps a re-added id in its old place; this pool moves it last (the
    simulator never re-adds), so a re-add reaches the oracle as remove +
    add.  ``advance`` is the oracle's progress, then its finished tasks
    removed in admission order, as the oracle event loop does.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["add"] * 4 + ["remove", "advance", "next",
                                       "progress"]),
        st.integers(0, 15),                      # task id (re-adds collide)
        st.sampled_from([1, 1, 4, 24, 48, 200]),  # threads
        st.sampled_from([0.0, 0.3, 0.9]),       # cap below the degree's
        st.sampled_from([0.01, 0.25, 0.25, 1.0, 3.7]),  # work or seconds
    ), max_size=60))
    def test_every_float_and_every_finish_order(self, ops):
        host = HostSpec()
        pool, oracle = ProcessorSharingPool(host), OraclePool(host)
        eps = 1e-9
        for op, task_id, threads, jitter, amount in ops:
            if op == "add":
                cap = host.effective_capacity(
                    min(threads, host.hardware_threads)) * (1 - jitter)
                pool.add(CpuTask(task_id, amount, cap, threads))
                oracle.remove(task_id)
                oracle.add(OracleTask(task_id, amount, cap, threads))
            elif op == "remove":
                pool.remove(task_id)
                oracle.remove(task_id)
            elif op == "progress":
                pool.progress(amount)
                oracle.progress(amount)
            else:
                delta = amount
                if op == "next":        # to the next completion, as the
                    delta = pool.earliest_completion()  # simulator does
                    assert delta == oracle.earliest_completion()
                    if delta is None:
                        continue
                finished = pool.advance(delta, eps)
                oracle.progress(delta)
                done = [i for i, t in oracle.tasks.items()
                        if t.remaining <= eps]
                for i in done:
                    oracle.remove(i)
                assert finished == done
            assert observed(pool) == observed(oracle)


class TestGpuDeviceState:
    def test_admission_respects_memory(self):
        device = GpuDeviceState(0, GpuSpec())
        big = GpuKernelTask(1, remaining=1.0,
                            memory_bytes=10 * 1024**3)
        device.admit(big, now=0.0)
        assert not device.can_admit(5 * 1024**3)
        assert device.can_admit(1 * 1024**3)

    def test_kernel_slot_limit(self):
        spec = GpuSpec()
        device = GpuDeviceState(0, spec)
        for i in range(spec.max_concurrent_kernels):
            device.admit(GpuKernelTask(i, 1.0, 1024), now=0.0)
        assert not device.can_admit(1024)

    def test_sharing_slows_kernels(self):
        device = GpuDeviceState(0, GpuSpec())
        device.admit(GpuKernelTask(1, remaining=1.0, memory_bytes=0), 0.0)
        assert device.earliest_completion() == pytest.approx(1.0)
        device.admit(GpuKernelTask(2, remaining=1.0, memory_bytes=0), 0.0)
        assert device.earliest_completion() == pytest.approx(2.0)

    def test_memory_log_records_transitions(self):
        device = GpuDeviceState(0, GpuSpec())
        device.admit(GpuKernelTask(1, 1.0, 500), now=1.0)
        device.release(1, now=2.0)
        assert device.memory_log == [(1.0, 500), (2.0, 0)]

    def test_progress(self):
        device = GpuDeviceState(0, GpuSpec())
        device.admit(GpuKernelTask(1, remaining=1.0, memory_bytes=0), 0.0)
        device.admit(GpuKernelTask(2, remaining=0.5, memory_bytes=0), 0.0)
        device.progress(0.5)                   # each gets rate 1/2
        assert device.kernels[1].remaining == pytest.approx(0.75)
        assert device.kernels[2].remaining == pytest.approx(0.25)
