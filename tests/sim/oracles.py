"""Test-only oracles: the simulator and pool exactly as they stood at PR 14.

``OracleSimulator`` is ``WorkloadSimulator`` and ``OraclePool`` is
``ProcessorSharingPool`` as of commit 7c22521, verbatim apart from the
class names and one fix both sides needed (a paced script thinks after
a zero-work query too): the event loop that settles the pool and walks the
runnable set four times per event, calls ``effective_capacity`` per
mutation, re-derives every request's stages and drains the admission
queue on every event.  The production classes must reproduce every
float of every ``SimulationResult`` field these produce
(``test_oracle_equivalence.py``); nothing under ``src/`` imports this.
The result and script types come from ``repro.sim`` so ``repr`` compares.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.config import GpuSpec, HostSpec, SystemConfig
from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.simulator import (
    PhaseInterval,
    QueryCompletion,
    RequestTrace,
    SimulationResult,
    UserScript,
)
from repro.timing import QueryProfile

_EPS = 1e-9


@dataclass(slots=True)
class CpuTask:
    """One CPU stage inside the pool."""

    task_id: int
    remaining: float          # core-seconds of work left
    max_rate: float           # core-equivalents this stage can absorb
    threads: int = 1          # software threads it runs (degree)
    rate: float = 0.0         # current allocation (set by the pool)


class OraclePool:
    """Water-filling processor-sharing allocator over the host's cores.

    The pool's instantaneous capacity depends on how many software threads
    are runnable: a single degree-24 query extracts 24 core-equivalents,
    while two of them (48 threads) extract the SMT bonus on top — which is
    exactly the mechanism behind Table 3's degree sweep.
    """

    def __init__(self, host: HostSpec) -> None:
        self.host = host
        self._tasks: dict[int, CpuTask] = {}
        # The thread total and capacity follow add/remove; the rates are
        # settled on the next read, not per mutation.  They are a pure
        # function of the task set, so settling late changes no value.
        self._threads = 0
        self.capacity = 0.0
        self._stale = False

    @property
    def tasks(self) -> dict[int, CpuTask]:
        """The runnable tasks by id, rates settled."""
        if self._stale:
            self.reallocate()
        return self._tasks

    def _resize(self, threads: int) -> None:
        self._threads += threads
        self.capacity = self.host.effective_capacity(self._threads)
        self._stale = True

    def add(self, task: CpuTask) -> None:
        replaced = self._tasks.get(task.task_id)
        self._tasks[task.task_id] = task
        self._resize(task.threads - (replaced.threads if replaced else 0))

    def remove(self, task_id: int) -> None:
        task = self._tasks.pop(task_id, None)
        self._resize(-task.threads if task else 0)

    def reallocate(self) -> None:
        """Recompute every task's service rate (water-filling)."""
        self._stale = False
        pending = list(self._tasks.values())
        capacity = self.capacity
        while pending and capacity > 1e-12:
            share = capacity / len(pending)
            limit = share + 1e-12
            capped = [t for t in pending if t.max_rate <= limit]
            if not capped:
                for task in pending:
                    task.rate = share
                return
            for task in capped:
                task.rate = task.max_rate
                capacity -= task.max_rate
            pending = [t for t in pending if t.max_rate > limit]
        for task in pending:
            task.rate = 0.0
        # numerical guard
        if capacity < 0:
            scale = self.capacity / max(
                1e-12, sum(t.rate for t in self._tasks.values())
            )
            if scale < 1.0:
                for task in self._tasks.values():
                    task.rate *= scale

    def progress(self, delta: float) -> None:
        """Advance every task's work by ``delta`` seconds at current rates."""
        for task in self.tasks.values():
            left = task.remaining - task.rate * delta
            task.remaining = left if left > 0.0 else 0.0

    def earliest_completion(self) -> Optional[float]:
        """Seconds until the first CPU task finishes at current rates."""
        best = None
        for task in self.tasks.values():
            if task.rate <= 1e-15:
                continue
            eta = task.remaining / task.rate
            if best is None or eta < best:
                best = eta
        return best

    @property
    def utilisation(self) -> float:
        used = sum(t.rate for t in self.tasks.values())
        return used / self.capacity if self.capacity else 0.0


@dataclass(slots=True)
class GpuKernelTask:
    """One kernel resident on a device."""

    task_id: int
    remaining: float          # dedicated-device seconds of work left
    memory_bytes: int


@dataclass
class GpuDeviceState:
    """Simulator-side view of one GPU: resident kernels + reserved memory."""

    device_id: int
    spec: GpuSpec
    kernels: dict[int, GpuKernelTask] = field(default_factory=dict)
    reserved: int = 0
    # (timestamp, reserved_bytes) — the Figure 9 trace.
    memory_log: list[tuple[float, int]] = field(default_factory=list)

    @property
    def free(self) -> int:
        return self.spec.device_memory_bytes - self.reserved

    @property
    def resident_count(self) -> int:
        return len(self.kernels)

    def can_admit(self, memory_bytes: int) -> bool:
        return (memory_bytes <= self.free
                and self.resident_count < self.spec.max_concurrent_kernels)

    def admit(self, task: GpuKernelTask, now: float) -> None:
        self.kernels[task.task_id] = task
        self.reserved += task.memory_bytes
        self.memory_log.append((now, self.reserved))

    def release(self, task_id: int, now: float) -> None:
        task = self.kernels.pop(task_id)
        self.reserved -= task.memory_bytes
        self.memory_log.append((now, self.reserved))

    @property
    def rate_per_kernel(self) -> float:
        """Equal device share per resident kernel."""
        return 1.0 / self.resident_count if self.kernels else 0.0

    def progress(self, delta: float) -> None:
        rate = self.rate_per_kernel
        for task in self.kernels.values():
            task.remaining = max(0.0, task.remaining - rate * delta)

    def earliest_completion(self) -> Optional[float]:
        if not self.kernels:
            return None
        return (min(t.remaining for t in self.kernels.values())
                / self.rate_per_kernel)


@dataclass
class _Stage:
    kind: str                 # "cpu" | "gpu"
    work: float               # core-seconds or device-seconds
    max_rate: float = 1.0
    threads: int = 1
    memory_bytes: int = 0
    parallel_group: int = -1


@dataclass
class _UserState:
    script: UserScript
    loop: int = 0
    query_index: int = 0
    stage_queue: list[_Stage] = field(default_factory=list)
    query_start: float = 0.0
    outstanding: set = field(default_factory=set)
    waiting_count: int = 0
    stage_intervals: list[PhaseInterval] = field(default_factory=list)
    wait_intervals: list[PhaseInterval] = field(default_factory=list)
    wake_at: Optional[float] = None      # set while thinking between queries
    in_query: bool = False               # a begun query not yet finished
    done: bool = False

    @property
    def idle(self) -> bool:
        return not self.outstanding and self.waiting_count == 0


class OracleSimulator:
    """Replays query profiles for concurrent users over shared hardware."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.pool = OraclePool(config.host)
        self.devices = [
            GpuDeviceState(device_id=i, spec=spec)
            for i, spec in enumerate(config.gpus)
        ]
        self._task_ids = itertools.count(1)
        self._gpu_waits = 0
        # Per-run telemetry (reset by run()): task launch metadata for
        # phase intervals, request traces, and queue/session logs.
        self._task_meta: dict[int, tuple[str, int, float]] = {}
        self._requests: list[RequestTrace] = []
        self._queue_log: list[tuple[float, int]] = []
        self._active_log: list[tuple[float, int]] = []
        self._active_count = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, users: Sequence[UserScript],
            max_seconds: Optional[float] = None) -> SimulationResult:
        clock = SimClock()
        states = [_UserState(script=u) for u in users]
        completions: list[QueryCompletion] = []
        waiters: list[tuple[_UserState, _Stage, float]] = []
        owner_of_task: dict[int, _UserState] = {}
        util_samples: list[tuple[float, float]] = []
        self._gpu_waits = 0
        self._task_meta = {}
        self._requests = []
        self._queue_log = []
        self._active_count = len(states)
        self._active_log = [(0.0, self._active_count)]

        for state in states:
            self._begin_query(state, clock.now)
            self._skip_empty_queries(state, clock.now, completions)
            if not state.done:
                self._start_next_batch(state, clock, owner_of_task, waiters)

        # Only a script with think time ever sets ``wake_at``; ``active``
        # only shrinks when a session finishes.  Neither is per event.
        paced = any(u.think_seconds > 0 for u in users)
        active = [s for s in states if not s.done]
        while True:
            if len(active) != self._active_count:
                active = [s for s in active if not s.done]
            if not active:
                break
            if max_seconds is not None and clock.now >= max_seconds:
                break
            delta = self._earliest_completion()
            wake_delta = min(
                (s.wake_at - clock.now for s in active
                 if s.wake_at is not None),
                default=None,
            ) if paced else None
            if delta is None and wake_delta is None:
                if waiters:
                    raise SimulationError(
                        "all users blocked on GPU admission with idle "
                        "devices (a stage exceeds every device's capacity?)"
                    )
                break
            if delta is None or (wake_delta is not None
                                 and wake_delta < delta):
                delta = max(0.0, wake_delta)
            util_samples.append((clock.now, self.pool.utilisation))
            clock.advance(delta)
            self.pool.progress(delta)
            for device in self.devices:
                device.progress(delta)

            finished = self._collect_finished(owner_of_task, clock.now)
            touched = []
            for state, task_id in finished:
                state.outstanding.discard(task_id)
                touched.append(state)
            # Wake users whose think time elapsed.
            for state in active if paced else ():
                if state.wake_at is not None \
                        and state.wake_at <= clock.now + _EPS:
                    state.wake_at = None
                    touched.append(state)
            self._drain_waiters(waiters, clock, owner_of_task)
            for state in touched:
                if state.done or not state.idle or state.wake_at is not None:
                    continue
                if state.in_query and not state.stage_queue:
                    self._finish_query(state, clock.now, completions)
                    if state.done:
                        continue
                    if state.script.think_seconds > 0:
                        state.wake_at = (clock.now
                                         + state.script.think_seconds)
                        continue
                if not state.in_query:
                    self._begin_query(state, clock.now)
                    self._skip_empty_queries(state, clock.now, completions)
                    if state.done:
                        continue
                self._start_next_batch(state, clock, owner_of_task, waiters)

        return SimulationResult(
            makespan=clock.now,
            completions=completions,
            device_memory_logs={
                d.device_id: list(d.memory_log) for d in self.devices
            },
            cpu_utilisation_samples=util_samples,
            gpu_waits=self._gpu_waits,
            requests=self._requests,
            queue_depth_log=self._queue_log,
            active_sessions_log=self._active_log,
        )

    # ------------------------------------------------------------------
    # Stage plumbing
    # ------------------------------------------------------------------

    def _begin_query(self, state: _UserState, now: float) -> None:
        profile = state.script.profiles[state.query_index]
        state.stage_queue = list(self._stages_of(profile))
        state.query_start = now
        state.in_query = True
        state.stage_intervals = []
        state.wait_intervals = []

    def _skip_empty_queries(self, state: _UserState, now: float,
                            completions: list[QueryCompletion]) -> None:
        """Complete zero-work queries instantly (they never enter a pool)."""
        while not state.done and not state.stage_queue:
            self._finish_query(state, now, completions)
            if state.done:
                return
            if state.script.think_seconds > 0:
                state.wake_at = now + state.script.think_seconds
                return
            self._begin_query(state, now)

    def _stages_of(self, profile: QueryProfile) -> Iterable[_Stage]:
        host = self.config.host
        for event in profile.events:
            if event.parallel_group >= 0 and event.gpu_seconds > _EPS:
                # Data-parallel GPU work: fold the (tiny) dispatch CPU time
                # into the device stage so batch members start together.
                yield _Stage(
                    kind="gpu",
                    work=event.gpu_seconds + event.cpu_seconds,
                    memory_bytes=event.gpu_memory_bytes,
                    parallel_group=event.parallel_group,
                )
                continue
            if event.cpu_seconds > _EPS:
                degree = max(1, min(event.max_degree, host.hardware_threads))
                yield _Stage(
                    kind="cpu",
                    work=event.cpu_seconds,
                    max_rate=host.effective_capacity(degree),
                    threads=degree,
                    parallel_group=event.parallel_group,
                )
            if event.gpu_seconds > _EPS:
                yield _Stage(
                    kind="gpu",
                    work=event.gpu_seconds,
                    memory_bytes=event.gpu_memory_bytes,
                    parallel_group=event.parallel_group,
                )

    def _start_next_batch(self, state: _UserState, clock: SimClock,
                          owner_of_task, waiters) -> None:
        """Launch the next stage — or the whole parallel group it heads."""
        if not state.stage_queue:
            return
        first = state.stage_queue.pop(0)
        batch = [first]
        if first.parallel_group >= 0:
            while (state.stage_queue
                   and state.stage_queue[0].parallel_group
                   == first.parallel_group):
                batch.append(state.stage_queue.pop(0))
        for stage in batch:
            self._launch_stage(state, stage, clock, owner_of_task, waiters)

    def _launch_stage(self, state: _UserState, stage: _Stage,
                      clock: SimClock, owner_of_task, waiters) -> None:
        task_id = next(self._task_ids)
        if stage.kind == "cpu":
            self.pool.add(CpuTask(task_id=task_id, remaining=stage.work,
                                  max_rate=stage.max_rate,
                                  threads=stage.threads))
            state.outstanding.add(task_id)
            owner_of_task[task_id] = state
            self._task_meta[task_id] = ("cpu", -1, clock.now)
            return
        device = self._pick_device(stage.memory_bytes)
        if device is None:
            state.waiting_count += 1
            self._gpu_waits += 1
            waiters.append((state, stage, clock.now))
            self._log_queue_depth(clock.now, len(waiters))
            return
        device.admit(GpuKernelTask(task_id=task_id, remaining=stage.work,
                                   memory_bytes=stage.memory_bytes),
                     clock.now)
        state.outstanding.add(task_id)
        owner_of_task[task_id] = state
        self._task_meta[task_id] = ("gpu", device.device_id, clock.now)

    def _pick_device(self, memory_bytes: int) -> Optional[GpuDeviceState]:
        candidates = [d for d in self.devices if d.can_admit(memory_bytes)]
        if not candidates:
            return None
        return min(candidates, key=lambda d: (d.resident_count, -d.free))

    def _drain_waiters(self, waiters, clock, owner_of_task) -> None:
        admitted = True
        while admitted and waiters:
            admitted = False
            for i, (state, stage, queued_at) in enumerate(waiters):
                device = self._pick_device(stage.memory_bytes)
                if device is None:
                    continue
                task_id = next(self._task_ids)
                device.admit(GpuKernelTask(task_id=task_id,
                                           remaining=stage.work,
                                           memory_bytes=stage.memory_bytes),
                             clock.now)
                state.waiting_count -= 1
                state.outstanding.add(task_id)
                owner_of_task[task_id] = state
                state.wait_intervals.append(PhaseInterval(
                    kind="queue", start=queued_at, end=clock.now,
                    device_id=device.device_id))
                self._task_meta[task_id] = ("gpu", device.device_id,
                                            clock.now)
                waiters.pop(i)
                self._log_queue_depth(clock.now, len(waiters))
                admitted = True
                break

    def _earliest_completion(self) -> Optional[float]:
        etas = [self.pool.earliest_completion()]
        etas += [device.earliest_completion() for device in self.devices]
        return min((eta for eta in etas if eta is not None), default=None)

    def _collect_finished(self, owner_of_task,
                          now: float) -> list[tuple[_UserState, int]]:
        finished = []
        for task_id in [t for t, task in self.pool.tasks.items()
                        if task.remaining <= _EPS]:
            self.pool.remove(task_id)
            finished.append((owner_of_task.pop(task_id), task_id))
        for device in self.devices:
            for task_id in [t for t, k in device.kernels.items()
                            if k.remaining <= _EPS]:
                device.release(task_id, now)
                finished.append((owner_of_task.pop(task_id), task_id))
        for state, task_id in finished:
            meta = self._task_meta.pop(task_id, None)
            if meta is not None:
                state.stage_intervals.append(PhaseInterval(
                    kind=meta[0], start=meta[2], end=now,
                    device_id=meta[1]))
        return finished

    def _finish_query(self, state: _UserState, now: float,
                      completions: list[QueryCompletion]) -> None:
        profile = state.script.profiles[state.query_index]
        completions.append(QueryCompletion(
            user_id=state.script.user_id,
            query_id=profile.query_id,
            start=state.query_start,
            end=now,
        ))
        self._requests.append(RequestTrace(
            user_id=state.script.user_id,
            query_id=profile.query_id,
            loop=state.loop,
            index=state.query_index,
            start=state.query_start,
            end=now,
            stages=tuple(state.stage_intervals),
            waits=tuple(state.wait_intervals),
        ))
        state.in_query = False
        state.query_index += 1
        if state.query_index >= len(state.script.profiles):
            state.query_index = 0
            state.loop += 1
            if state.loop >= state.script.loops:
                state.done = True
                self._active_count -= 1
                self._active_log.append((now, self._active_count))

    def _log_queue_depth(self, now: float, depth: int) -> None:
        """Sample the admission-queue depth whenever it changes."""
        if not self._queue_log or self._queue_log[-1][1] != depth:
            self._queue_log.append((now, depth))
