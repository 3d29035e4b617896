"""Closed-loop multi-user workload simulator.

Each *user* (the paper drives these with JMETER connection threads) executes
its list of query profiles sequentially, ``loops`` times over.  A query is a
sequence of cost events; CPU work contends in the processor-sharing pool,
GPU work is admitted to a device by the least-loaded-with-room rule (waiting
when no device has memory free — section 2.1.1 option 1).

Consecutive events that share a ``parallel_group`` start together: that is
the multi-GPU data-parallel path of section 2.2, where a partitioned input
is "sent to some number of available GPU devices, to be operated on
concurrently".

The simulation is exact for this model: between events all rates are
constant, so we repeatedly advance to the earliest stage completion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from repro.config import SystemConfig
from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.resources import (
    CpuTask,
    GpuDeviceState,
    GpuKernelTask,
    ProcessorSharingPool,
)
from repro.timing import QueryProfile

_EPS = 1e-9


@dataclass
class UserScript:
    """One closed-loop connection thread.

    ``think_seconds`` inserts a pause between consecutive queries — the
    JMETER-style pacing of a human analyst clicking through a dashboard.
    """

    user_id: str
    profiles: list[QueryProfile]
    loops: int = 1
    think_seconds: float = 0.0


class QueryCompletion(NamedTuple):
    user_id: str
    query_id: str
    start: float
    end: float

    @property
    def elapsed(self) -> float:
        return self.end - self.start


class PhaseInterval(NamedTuple):
    """One resource occupancy window inside a request.

    ``kind`` is ``"cpu"`` (processor-sharing pool), ``"gpu"`` (resident
    on a device), or ``"queue"`` (parked in the GPU admission queue —
    the wait the serving layer surfaces as a first-class phase).
    ``device_id`` is -1 for CPU work.
    """

    kind: str
    start: float
    end: float
    device_id: int = -1

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


class RequestTrace(NamedTuple):
    """One completed request with its full phase timeline.

    The serving telemetry layer replays these into session span trees;
    ``stages`` are cpu/gpu occupancy intervals, ``waits`` are GPU
    admission-queue intervals.  ``loop``/``index`` locate the request in
    its user's script (loop iteration, query position).
    """

    user_id: str
    query_id: str
    loop: int
    index: int
    start: float
    end: float
    stages: tuple[PhaseInterval, ...] = ()
    waits: tuple[PhaseInterval, ...] = ()

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def offloaded(self) -> bool:
        """Whether any phase ran on a GPU device."""
        return any(s.kind == "gpu" for s in self.stages)

    @property
    def queue_wait(self) -> float:
        """Total simulated seconds spent in GPU admission queues."""
        return sum(w.duration for w in self.waits)


@dataclass
class SimulationResult:
    """Everything a benchmark harness needs from one simulated run."""

    makespan: float
    completions: list[QueryCompletion]
    device_memory_logs: dict[int, list[tuple[float, int]]]
    cpu_utilisation_samples: list[tuple[float, float]]
    gpu_waits: int
    #: Per-request phase timelines (same order as ``completions``).
    requests: list[RequestTrace] = field(default_factory=list)
    #: (time, depth) samples of the GPU admission queue, on change.
    queue_depth_log: list[tuple[float, int]] = field(default_factory=list)
    #: (time, active sessions) samples, on change.
    active_sessions_log: list[tuple[float, int]] = field(
        default_factory=list
    )

    @property
    def queries_completed(self) -> int:
        return len(self.completions)

    def throughput_per_hour(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.queries_completed * 3600.0 / self.makespan

    def elapsed_by_query(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for c in self.completions:
            out.setdefault(c.query_id, []).append(c.elapsed)
        return out

    def max_queue_depth(self) -> int:
        """High-water mark of the GPU admission queue."""
        return max((depth for _, depth in self.queue_depth_log), default=0)

    def queue_depth_at(self, time: float) -> int:
        """Admission-queue depth at simulated ``time`` (step function)."""
        return _step_at(self.queue_depth_log, time)

    def active_sessions_at(self, time: float) -> int:
        """Sessions still running their scripts at simulated ``time``."""
        return _step_at(self.active_sessions_log, time)


def _step_at(log: list[tuple[float, int]], time: float) -> int:
    """The value of a ``(time, value)`` step log at ``time`` (0 before)."""
    return next((value for when, value in reversed(log) if when <= time), 0)


@dataclass(frozen=True)
class _Stage:
    """One launchable step of a query; shared by every request of a profile."""

    kind: str  # "cpu" | "gpu"
    work: float  # core-seconds or device-seconds
    max_rate: float = 1.0
    threads: int = 1
    memory_bytes: int = 0
    parallel_group: int = -1


def _batches(stages: Iterable[_Stage]) -> tuple[tuple[_Stage, ...], ...]:
    """A query's launches in order: one stage, or a parallel group whole."""
    batches: list[list[_Stage]] = []
    for stage in stages:
        group = stage.parallel_group
        if batches and group >= 0 and batches[-1][0].parallel_group == group:
            batches[-1].append(stage)
        else:
            batches.append([stage])
    return tuple(map(tuple, batches))


@dataclass
class _UserState:
    script: UserScript
    loop: int = 0
    query_index: int = 0
    batches: tuple[tuple[_Stage, ...], ...] = ()  # the query's launches
    next_batch: int = 0
    query_start: float = 0.0
    outstanding: set = field(default_factory=set)
    waiting_count: int = 0
    stage_intervals: list[PhaseInterval] = field(default_factory=list)
    wait_intervals: list[PhaseInterval] = field(default_factory=list)
    wake_at: Optional[float] = None  # set while thinking between queries
    in_query: bool = False  # a begun query not yet finished
    done: bool = False


class WorkloadSimulator:
    """Replays query profiles for concurrent users over shared hardware."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.pool = ProcessorSharingPool(config.host)
        self.devices = [
            GpuDeviceState(device_id=i, spec=spec)
            for i, spec in enumerate(config.gpus)
        ]
        self._task_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self, users: Sequence[UserScript], max_seconds: Optional[float] = None
    ) -> SimulationResult:
        clock = SimClock()
        pool = self.pool
        states = [_UserState(script=u) for u in users]
        util_samples: list[tuple[float, float]] = []
        # Per-run state: each running task's owner and launch record
        # (state, kind, device id, start), the launch batches by profile
        # identity, the GPU admission queue (state, stage, queued at),
        # request traces and the queue/session logs.
        self._tasks: dict[int, tuple[_UserState, str, int, float]] = {}
        self._templates: dict[int, tuple[tuple[_Stage, ...], ...]] = {}
        self._waiters: list[tuple[_UserState, _Stage, float]] = []
        self._gpu_waits = 0
        self._requests: list[RequestTrace] = []
        self._queue_log: list[tuple[float, int]] = []
        self._active_count = len(states)
        self._active_log = [(0.0, self._active_count)]

        for state in states:
            self._begin_query(state, clock.now)
            if not state.done:
                self._start_next_batch(state, clock.now)

        # Only a script with think time ever sets ``wake_at``; ``active``
        # only shrinks when a session finishes.  Neither is per event.
        paced = any(u.think_seconds > 0 for u in users)
        active = [s for s in states if not s.done]
        now = clock.now  # then as each event's advance returns it
        while True:
            if len(active) != self._active_count:
                active = [s for s in active if not s.done]
            if not active:
                break
            if max_seconds is not None and now >= max_seconds:
                break
            busy = [d for d in self.devices if d.kernels]
            etas = [d.earliest_completion() for d in busy] if busy else []
            if (eta := pool.earliest_completion()) is not None:
                etas.append(eta)
            delta = min(etas, default=None)
            wake_delta = None
            if paced:
                wake_delta = min(
                    (s.wake_at - now for s in active if s.wake_at is not None),
                    default=None,
                )
            if delta is None and wake_delta is None:
                if self._waiters:
                    raise SimulationError(
                        "all users blocked on GPU admission with idle "
                        "devices (a stage exceeds every device's capacity?)"
                    )
                break
            if delta is None or (
                wake_delta is not None and wake_delta < delta
            ):
                delta = max(0.0, wake_delta)
            util_samples.append((now, pool.utilisation))
            now = clock.advance(delta)

            # One walk over the runnable set; the rest of the event is O(1)
            # per finished task.
            finished = pool.advance(delta, _EPS)
            released = False
            for device in busy:
                done = device.advance(delta, now, _EPS)
                if done:
                    finished += done
                    released = True
            touched = []
            for task_id in finished:
                state, kind, device_id, start = self._tasks.pop(task_id)
                state.stage_intervals.append(
                    PhaseInterval(kind, start, now, device_id)
                )
                state.outstanding.discard(task_id)
                touched.append(state)
            # Wake users whose think time elapsed.
            for state in active if paced else ():
                if state.wake_at is not None and state.wake_at <= now + _EPS:
                    state.wake_at = None
                    touched.append(state)
            # Between releases admits only shrink a device's room, so every
            # earlier rejection still holds: drain only after a release.
            if released:
                self._drain_waiters(now)
            for state in touched:
                if (state.done or state.outstanding or state.waiting_count
                        or state.wake_at is not None):
                    continue  # not idle, or thinking
                if state.in_query and state.next_batch == len(state.batches):
                    self._finish_query(state, now)
                    if state.done:
                        continue
                    if state.script.think_seconds > 0:
                        state.wake_at = now + state.script.think_seconds
                        continue
                if not state.in_query:
                    self._begin_query(state, now)
                    if state.done:
                        continue
                self._start_next_batch(state, now)

        return SimulationResult(
            makespan=clock.now,
            completions=[
                QueryCompletion(r.user_id, r.query_id, r.start, r.end)
                for r in self._requests
            ],
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
        """Queue the next query's stages, completing zero-work queries
        on the spot (they never enter a pool); the script thinks after
        an empty query as after any other."""
        while not state.done:
            profile = state.script.profiles[state.query_index]
            # By identity: the scripts keep their profiles alive all run.
            template = self._templates.get(id(profile))
            if template is None:
                template = _batches(self._stages_of(profile))
                self._templates[id(profile)] = template
            state.batches, state.next_batch = template, 0
            state.query_start = now
            state.in_query = True
            state.stage_intervals = []
            state.wait_intervals = []
            if template:
                return
            self._finish_query(state, now)
            if not state.done and state.script.think_seconds > 0:
                state.wake_at = now + state.script.think_seconds
                return

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
                    max_rate=self.pool.capacity_for(degree),
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

    def _start_next_batch(self, state: _UserState, now: float) -> None:
        """Launch the next stage — or the whole parallel group it heads."""
        if state.next_batch < len(state.batches):
            batch = state.batches[state.next_batch]
            state.next_batch += 1
            for stage in batch:
                self._launch(state, stage, now)

    def _launch(self, state: _UserState, stage: _Stage, now: float) -> None:
        if stage.kind == "cpu":
            task_id = next(self._task_ids)
            self.pool.add(
                CpuTask(task_id, stage.work, stage.max_rate, stage.threads)
            )
            state.outstanding.add(task_id)
            self._tasks[task_id] = (state, "cpu", -1, now)
            return
        device = self._pick_device(stage.memory_bytes)
        if device is None:
            state.waiting_count += 1
            self._gpu_waits += 1
            self._waiters.append((state, stage, now))
            self._log_queue_depth(now)
            return
        self._admit(state, stage, device, now)

    def _admit(
        self,
        state: _UserState,
        stage: _Stage,
        device: GpuDeviceState,
        now: float,
    ) -> None:
        """Make ``stage`` resident on ``device`` as a new task of ``state``."""
        task_id = next(self._task_ids)
        device.admit(
            GpuKernelTask(task_id, stage.work, stage.memory_bytes), now
        )
        state.outstanding.add(task_id)
        self._tasks[task_id] = (state, "gpu", device.device_id, now)

    def _pick_device(self, memory_bytes: int) -> Optional[GpuDeviceState]:
        candidates = [d for d in self.devices if d.can_admit(memory_bytes)]
        if not candidates:
            return None
        return min(candidates, key=lambda d: (d.resident_count, -d.free))

    def _drain_waiters(self, now: float) -> None:
        """Admit, in queue order, every waiter that fits.  An admission
        only shrinks a device's room, so a waiter passed over stays so."""
        waiters = self._waiters
        i = 0
        while i < len(waiters):
            state, stage, queued_at = waiters[i]
            device = self._pick_device(stage.memory_bytes)
            if device is None:
                i += 1
                continue
            self._admit(state, stage, device, now)
            state.waiting_count -= 1
            state.wait_intervals.append(
                PhaseInterval("queue", queued_at, now, device.device_id)
            )
            waiters.pop(i)
            self._log_queue_depth(now)

    def _finish_query(self, state: _UserState, now: float) -> None:
        self._requests.append(
            RequestTrace(
                user_id=state.script.user_id,
                query_id=state.script.profiles[state.query_index].query_id,
                loop=state.loop,
                index=state.query_index,
                start=state.query_start,
                end=now,
                stages=tuple(state.stage_intervals),
                waits=tuple(state.wait_intervals),
            )
        )
        state.in_query = False
        state.query_index += 1
        if state.query_index >= len(state.script.profiles):
            state.query_index = 0
            state.loop += 1
            if state.loop >= state.script.loops:
                state.done = True
                self._active_count -= 1
                self._active_log.append((now, self._active_count))

    def _log_queue_depth(self, now: float) -> None:
        """Sample the admission-queue depth whenever it changes."""
        depth = len(self._waiters)
        if not self._queue_log or self._queue_log[-1][1] != depth:
            self._queue_log.append((now, depth))
