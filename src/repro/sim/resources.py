"""Contended resources: the processor-sharing CPU pool and GPU devices.

CPU model — *processor sharing with per-task rate caps*: at any instant the
host delivers ``capacity`` core-equivalents (24 cores plus the SMT bonus),
shared fairly across all runnable CPU stages, except that no stage can
absorb more than its own parallelism allows (``max_rate``, the effective
capacity of its degree).  Allocation is the classic water-filling: tasks
that want less than the fair share keep what they want; the surplus is
redistributed among the rest.

GPU model — each device runs its resident kernels concurrently, sharing the
device's throughput equally (a kernel's profiled duration assumed a dedicated
device, so with k resident kernels everyone slows by k).  Device memory is
admission-controlled: a kernel only becomes resident once its reservation
fits, otherwise it waits in the device-selection queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config import GpuSpec, HostSpec


@dataclass(slots=True)
class CpuTask:
    """One CPU stage inside the pool."""

    task_id: int
    remaining: float  # core-seconds of work left
    max_rate: float  # core-equivalents this stage can absorb
    threads: int = 1  # software threads it runs (degree)
    rate: float = 0.0  # current allocation (set by the pool)


class ProcessorSharingPool:
    """Water-filling processor-sharing allocator over the host's cores.

    The pool's instantaneous capacity depends on how many software threads
    are runnable: a single degree-24 query extracts 24 core-equivalents,
    while two of them (48 threads) extract the SMT bonus on top — which is
    exactly the mechanism behind Table 3's degree sweep.

    The runnable set is kept in admission order as the tasks by id plus
    two parallel lists, their remaining work and their rate caps, so one
    simulated event is one list-comprehension walk (:meth:`advance`) that
    touches a task object only when it finishes.
    """

    def __init__(self, host: HostSpec) -> None:
        self.host = host
        self._capacity_of = [
            host.effective_capacity(threads)
            for threads in range(host.hardware_threads + 1)
        ]
        self._tasks: dict[int, CpuTask] = {}
        self._remaining: list[float] = []
        self._max_rate: list[float] = []
        # The thread total and capacity follow add/remove; the rates are
        # settled on the next read, not per mutation.  They are a pure
        # function of the task set, so settling late changes no value.
        self._threads = 0
        self.capacity = 0.0
        self._rates: list[float] = []
        self._share: Optional[float] = None  # every rate, when no cap binds
        self._stale = False

    def capacity_for(self, threads: int) -> float:
        """``host.effective_capacity(threads)``, from a table built once."""
        top = len(self._capacity_of) - 1
        return self._capacity_of[max(0, min(threads, top))]

    @property
    def tasks(self) -> dict[int, CpuTask]:
        """The runnable tasks by id, remaining work and rates settled."""
        if self._stale:
            self._settle()
        rows = zip(self._tasks.values(), self._remaining, self._rates)
        for task, left, rate in rows:
            task.remaining, task.rate = left, rate
        return self._tasks

    def _resize(self, threads: int) -> None:
        self._threads += threads
        self.capacity = self.capacity_for(self._threads)
        self._stale = True

    def add(self, task: CpuTask) -> None:
        self.remove(task.task_id)  # re-adding an id replaces its task
        self._tasks[task.task_id] = task
        self._remaining.append(task.remaining)
        self._max_rate.append(task.max_rate)
        self._resize(task.threads)

    def remove(self, task_id: int) -> None:
        if task_id in self._tasks:
            self._delete([list(self._tasks).index(task_id)])

    def _delete(self, indices: list[int]) -> list[int]:
        """Drop the tasks at ascending ``indices``; returns their ids."""
        ids = list(self._tasks)
        dropped = [ids[i] for i in indices]
        for i in reversed(indices):
            del self._remaining[i], self._max_rate[i]
        for task_id in dropped:
            self._resize(-self._tasks.pop(task_id).threads)
        return dropped

    def _settle(self) -> None:
        """Recompute every task's service rate (water-filling)."""
        self._stale = False
        caps = self._max_rate
        capacity = self.capacity
        self._share = None
        if caps and capacity > 1e-12:
            share = capacity / len(caps)
            if min(caps) > share + 1e-12:  # no cap binds
                self._share = share
                self._rates = [share] * len(caps)
                return
        rates = self._rates = [0.0] * len(caps)
        pending = list(range(len(caps)))
        while pending and capacity > 1e-12:
            share = capacity / len(pending)
            limit = share + 1e-12
            capped = [i for i in pending if caps[i] <= limit]
            if not capped:
                for i in pending:
                    rates[i] = share
                return
            for i in capped:
                rates[i] = caps[i]
                capacity -= caps[i]
            pending = [i for i in pending if caps[i] > limit]
        # numerical guard
        if capacity < 0:
            scale = self.capacity / max(1e-12, sum(rates))
            if scale < 1.0:
                self._rates = [rate * scale for rate in rates]

    def _walk(self, delta: float) -> list[float]:
        """The one pass per event: ``remaining - rate * delta`` per task."""
        if self._stale:
            self._settle()
        if self._share is not None:
            step = self._share * delta
            self._remaining = [left - step for left in self._remaining]
        else:
            self._remaining = [
                left - rate * delta
                for left, rate in zip(self._remaining, self._rates)
            ]
        return self._remaining

    def advance(self, delta: float, eps: float) -> list[int]:
        """Advance by ``delta`` seconds; drop and return the finished ids.

        Finished means ``remaining <= eps``; ids come back in admission
        order.  Survivors are ``> eps > 0``, so nothing needs clamping.
        """
        remaining = self._walk(delta)
        if not remaining or min(remaining) > eps:
            return []
        return self._delete(
            [i for i, left in enumerate(remaining) if left <= eps]
        )

    def progress(self, delta: float) -> None:
        """Advance every task's work by ``delta`` seconds at current rates."""
        self._remaining = [
            left if left > 0.0 else 0.0 for left in self._walk(delta)
        ]

    def earliest_completion(self) -> Optional[float]:
        """Seconds until the first CPU task finishes at current rates."""
        if self._stale:
            self._settle()
        if self._share is not None:
            # Dividing by one positive float is monotone under rounding:
            # the least quotient is the quotient of the least remaining.
            return min(self._remaining) / self._share
        etas = [
            left / rate
            for left, rate in zip(self._remaining, self._rates)
            if rate > 1e-15
        ]
        return min(etas, default=None)

    @property
    def utilisation(self) -> float:
        if self._stale:
            self._settle()
        # Builtin sum in admission order: its rounding is the contract.
        return sum(self._rates) / self.capacity if self.capacity else 0.0


@dataclass(slots=True)
class GpuKernelTask:
    """One kernel resident on a device."""

    task_id: int
    remaining: float  # dedicated-device seconds of work left
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
        return (
            memory_bytes <= self.free
            and self.resident_count < self.spec.max_concurrent_kernels
        )

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

    def advance(self, delta: float, now: float, eps: float) -> list[int]:
        """Progress by ``delta``; release and return the finished kernels."""
        self.progress(delta)
        finished = [t for t, k in self.kernels.items() if k.remaining <= eps]
        for task_id in finished:
            self.release(task_id, now)
        return finished

    def earliest_completion(self) -> Optional[float]:
        if not self.kernels:
            return None
        return (
            min(t.remaining for t in self.kernels.values())
            / self.rate_per_kernel
        )
