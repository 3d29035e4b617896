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
    remaining: float          # core-seconds of work left
    max_rate: float           # core-equivalents this stage can absorb
    threads: int = 1          # software threads it runs (degree)
    rate: float = 0.0         # current allocation (set by the pool)


class ProcessorSharingPool:
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
