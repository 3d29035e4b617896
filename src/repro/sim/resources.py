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

from bisect import bisect_left, bisect_right, insort
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

    The tasks by id are in admission order (a re-added id moves last),
    their remaining work ascending (ids alongside), their caps a sorted
    multiset.  With no cap binding every task subtracts one rounded step,
    so the walk keeps the order (:meth:`_walk`); with caps binding the
    rates are filled in admission order and the walk is re-sorted.
    """

    def __init__(self, host: HostSpec) -> None:
        self.host = host
        self._capacity_of = [
            host.effective_capacity(threads)
            for threads in range(host.hardware_threads + 1)
        ]
        self._top = host.hardware_threads
        self._tasks: dict[int, CpuTask] = {}
        self._remaining: list[float] = []
        self._ids: list[int] = []
        self._caps: list[float] = []  # sorted: the least cap is [0]
        # The thread total and capacity follow add/remove; the rates are
        # settled on the next read, not per mutation.  They are a pure
        # function of the task set, so settling late changes no value.
        self._threads = 0
        self.capacity = 0.0
        self._rates: list[float] = []  # by position, when caps bind
        self._share: Optional[float] = None  # every rate, when no cap binds
        self._utilisation = 0.0
        self._uniform_use: dict[tuple[int, float], float] = {}
        self._stale = False

    def capacity_for(self, threads: int) -> float:
        """``host.effective_capacity(threads)``, from a table built once."""
        return self._capacity_of[max(0, min(threads, self._top))]

    @property
    def tasks(self) -> dict[int, CpuTask]:
        """The runnable tasks by id, remaining work and rates settled."""
        if self._stale:
            self._settle()
        share, rates = self._share, self._rates
        rates = rates if share is None else [share] * len(self._ids)
        for task_id, left, rate in zip(self._ids, self._remaining, rates):
            task = self._tasks[task_id]
            task.remaining, task.rate = left, rate
        return self._tasks

    def _resize(self, threads: int) -> None:
        self._threads += threads  # never negative: tasks add what they drop
        top, threads = self._top, self._threads
        self.capacity = self._capacity_of[threads if threads < top else top]
        self._stale = True

    def add(self, task: CpuTask) -> None:
        if task.task_id in self._tasks:
            self.remove(task.task_id)  # re-adding an id replaces its task
        self._tasks[task.task_id] = task
        at = bisect_right(self._remaining, task.remaining)
        self._remaining.insert(at, task.remaining)
        self._ids.insert(at, task.task_id)
        insort(self._caps, task.max_rate)
        self._resize(task.threads)

    def remove(self, task_id: int) -> None:
        if task_id in self._tasks:
            at = self._ids.index(task_id)
            self._drop(at, at + 1)

    def _drop(self, start: int, stop: int) -> list[int]:
        """Drop positions ``start:stop``; their ids in admission order."""
        ids = self._ids[start:stop]
        if len(ids) > 1:
            dropped = set(ids)
            ids = [task_id for task_id in self._tasks if task_id in dropped]
        del self._remaining[start:stop], self._ids[start:stop]
        threads = 0
        for task_id in ids:
            task = self._tasks.pop(task_id)
            del self._caps[bisect_left(self._caps, task.max_rate)]
            threads += task.threads
        self._resize(-threads)
        return ids

    def _settle(self) -> None:
        """Recompute every task's service rate (water-filling)."""
        self._stale = False
        n, capacity = len(self._ids), self.capacity
        self._share = None
        if n and capacity > 1e-12:
            share = capacity / n
            if self._caps[0] > share + 1e-12:  # no cap binds
                self._share, key = share, (n, capacity)
                if key not in self._uniform_use:  # builtin sum: see below
                    self._uniform_use[key] = sum([share] * n) / capacity
                self._utilisation = self._uniform_use[key]
                return
        # Caps bind: fill and sum in admission order; the rounding of
        # both (and of builtin ``sum``) is the contract.
        caps = [task.max_rate for task in self._tasks.values()]
        rates = [0.0] * n
        pending = list(range(n))
        while pending and capacity > 1e-12:
            share = capacity / len(pending)
            limit = share + 1e-12
            capped = [i for i in pending if caps[i] <= limit]
            if not capped:
                for i in pending:
                    rates[i] = share
                break
            for i in capped:
                rates[i] = caps[i]
                capacity -= caps[i]
            pending = [i for i in pending if caps[i] > limit]
        # numerical guard
        if capacity < 0:
            scale = self.capacity / max(1e-12, sum(rates))
            if scale < 1.0:
                rates = [rate * scale for rate in rates]
        rate_of = dict(zip(self._tasks, rates))
        self._rates = [rate_of[task_id] for task_id in self._ids]
        self._utilisation = sum(rates) / self.capacity if self.capacity else 0.0

    def _walk(self, delta: float) -> list[float]:
        """The one pass per event: ``remaining - rate * delta`` per task."""
        if self._stale:
            self._settle()
        if self._share is not None:
            # One step for all: fl(a - step) <= fl(b - step) when a <= b.
            step = self._share * delta
            self._remaining = [left - step for left in self._remaining]
            return self._remaining
        pairs = zip(self._remaining, self._rates)
        walked = [left - rate * delta for left, rate in pairs]
        order = sorted(range(len(walked)), key=walked.__getitem__)
        self._remaining = [walked[i] for i in order]
        self._ids = [self._ids[i] for i in order]
        self._rates = [self._rates[i] for i in order]
        return self._remaining

    def advance(self, delta: float, eps: float) -> list[int]:
        """Advance by ``delta`` seconds; drop and return the finished ids.

        Finished means ``remaining <= eps`` — a prefix; ids come back in
        admission order.  Survivors are ``> eps > 0``: no clamping.
        """
        remaining = self._walk(delta)
        if not remaining or remaining[0] > eps:
            return []
        return self._drop(0, bisect_right(remaining, eps))

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
            return self._remaining[0] / self._share
        pairs = zip(self._remaining, self._rates)
        etas = [left / rate for left, rate in pairs if rate > 1e-15]
        return min(etas, default=None)

    @property
    def utilisation(self) -> float:
        if self._stale:
            self._settle()
        return self._utilisation


@dataclass(slots=True)
class GpuKernelTask:
    """One kernel resident on a device."""

    task_id: int
    remaining: float  # dedicated-device seconds of work left
    memory_bytes: int


@dataclass
class GpuDeviceState:
    """Simulator-side view of one GPU: resident kernels + reserved memory.

    Every kernel takes the same ``1/k`` share, so, as in the pool, their
    work left stays ascending (``_left``, ids alongside) through the
    walk; ``kernels`` (admission order) is updated by :meth:`progress`.
    """

    device_id: int
    spec: GpuSpec
    kernels: dict[int, GpuKernelTask] = field(default_factory=dict)
    reserved: int = 0
    # (timestamp, reserved_bytes) — the Figure 9 trace.
    memory_log: list[tuple[float, int]] = field(default_factory=list)
    _left: list[float] = field(default_factory=list, init=False, repr=False)
    _ids: list[int] = field(default_factory=list, init=False, repr=False)

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
        at = bisect_right(self._left, task.remaining)
        self._left.insert(at, task.remaining)
        self._ids.insert(at, task.task_id)
        self.reserved += task.memory_bytes
        self.memory_log.append((now, self.reserved))

    def release(self, task_id: int, now: float) -> None:
        task = self.kernels.pop(task_id)
        at = self._ids.index(task_id)
        del self._left[at], self._ids[at]
        self.reserved -= task.memory_bytes
        self.memory_log.append((now, self.reserved))

    def _walk(self, delta: float) -> list[float]:
        # Each resident kernel's rate is the same 1/k share.
        step = (1.0 / len(self._ids) if self._ids else 0.0) * delta
        self._left = [left - step for left in self._left]
        return self._left

    def progress(self, delta: float) -> None:
        self._left = [max(0.0, left) for left in self._walk(delta)]
        for task_id, left in zip(self._ids, self._left):
            self.kernels[task_id].remaining = left

    def advance(self, delta: float, now: float, eps: float) -> list[int]:
        """Progress by ``delta``; release and return the finished kernels
        in admission order (survivors are ``> eps > 0``: no clamping)."""
        remaining = self._walk(delta)
        if not remaining or remaining[0] > eps:
            return []
        done = set(self._ids[:bisect_right(remaining, eps)])
        finished = [task_id for task_id in self.kernels if task_id in done]
        for task_id in finished:
            self.release(task_id, now)
        return finished

    def earliest_completion(self) -> Optional[float]:
        if not self.kernels:
            return None
        return self._left[0] / (1.0 / len(self._ids))
