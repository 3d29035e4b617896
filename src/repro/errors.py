"""Exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError` so that callers can
catch engine failures without swallowing genuine programming errors.  The GPU
substrate mirrors the error surface the paper's prototype has to handle: out
of device memory (the expensive "error code path" of section 2.1.1), failed
reservations, and hash-table overflow when the KMV group estimate was too low
(section 4.2's "error detection code-path").

Errors split into two families with different contracts:

- *recoverable device failures* — every :class:`GpuError` subclass.  The
  offload boundary (:mod:`repro.core.dispatch`) catches these and the
  operator falls back to the CPU chain, so a query's **result** never
  depends on device health.  The fault-injection layer (:mod:`repro.faults`) raises exactly
  these classes from the substrate seams.
- *misuse and malformed input* — :class:`SchemaError`, :class:`SqlError`,
  :class:`PlanError`, :class:`SchedulerError`, :class:`FaultPlanError` and
  friends.  Nothing catches these internally; they indicate a caller bug or
  bad configuration and propagate out.

``docs/api.md`` has the full table of which subsystem raises each class and
which handler (if any) recovers it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SchemaError(ReproError):
    """A table/column definition or lookup is invalid."""


class TypeMismatchError(ReproError):
    """An expression or operator was applied to an incompatible data type."""


class SqlError(ReproError):
    """The SQL subset parser rejected a statement."""


class PlanError(ReproError):
    """A logical plan is malformed or cannot be bound to the catalog."""


class ExecutionError(ReproError):
    """Runtime failure while executing a physical plan."""


class GpuError(ReproError):
    """Base class for simulated-CUDA failures."""


class DeviceMemoryError(GpuError):
    """Device memory allocation failed (cudaErrorMemoryAllocation analogue)."""


class ReservationError(GpuError):
    """An up-front device-memory reservation could not be satisfied."""


class PinnedMemoryError(GpuError):
    """The pinned host-memory pool could not satisfy a request."""


class HashTableOverflowError(GpuError):
    """The GPU hash table filled up (group estimate was too small).

    Section 4.2: "We also have an error detection code-path, so if the
    estimated number of groups is not correct (smaller than the exact number
    of groups) we could still process the query."  The hybrid group-by
    catches this error, grows the table, and retries.
    """


class KernelAbortedError(GpuError):
    """A racing kernel was cancelled because a sibling finished first."""


class KernelLaunchError(GpuError):
    """A kernel launch failed on the device (cudaErrorLaunchFailure
    analogue).  Injected by :mod:`repro.faults`; the hybrid executors
    recover by falling back to the CPU operator chain."""


class DeviceLostError(GpuError):
    """The device dropped off the bus (cudaErrorDeviceUnavailable
    analogue).  Once raised, the device stays dead: the scheduler's
    circuit breaker quarantines it and every in-flight task falls back
    to the CPU."""


class HashTableReuseError(ReproError):
    """A second ``insert`` into one ``GpuHashTable`` (misuse: starting
    empty is what lets overflow be decided before the first round)."""


class SchedulerError(ReproError):
    """The multi-GPU scheduler was *misused* (double release, negative
    request).  Note: "no device available right now" is NOT an error —
    :meth:`~repro.core.scheduler.MultiGpuScheduler.try_acquire` returns
    ``None`` for that (the caller chooses to wait or fall back)."""


class FaultPlanError(ReproError):
    """A fault-injection plan spec could not be parsed or validated."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class WorkloadError(ReproError):
    """A benchmark workload definition or generator failed."""
