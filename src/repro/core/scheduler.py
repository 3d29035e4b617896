"""Multi-GPU task scheduler (section 2.2) with degradation machinery.

"After calculating the total memory size that a kernel invocation needs, we
consult the GPUs to see if any of them has enough free resources to execute
the given kernel call."  The scheduler tracks outstanding jobs and free
memory per device, supports heterogeneous device specs, and hands back a
(device, reservation) lease.

Contract
--------

``try_acquire`` **returns None** for every flavour of "no device right
now" — all devices full, all devices quarantined or lost, an injected
reservation failure, a request larger than every device.  That is a
normal runtime state (section 2.1.1's fork: the caller chooses to wait or
fall back to the CPU), never an exception.  :class:`~repro.errors.
SchedulerError` is raised **only for misuse**: a negative memory request,
or releasing a lease twice.  Callers that cannot handle ``None`` are
wrong by construction — there is no raising acquire variant.

Degradation
-----------

Each device carries a :class:`~repro.faults.breaker.CircuitBreaker`.
The dispatcher (:mod:`repro.core.dispatch`) reports launch outcomes
through :meth:`record_success` / :meth:`record_failure`; a device that fails repeatedly (or is lost
outright) is quarantined — excluded from candidate ranking — and probed
again after a cool-down measured in scheduling rounds.  With a
:class:`~repro.faults.policies.RetryPolicy` armed (the engine sets one
whenever a fault plan is active), ``try_acquire`` retries transient
reservation failures with exponential backoff before giving up, charging
the wait to the simulated clock as ``fault.backoff`` spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import SchedulerError
from repro.faults.breaker import CircuitBreaker
from repro.faults.policies import RetryPolicy
from repro.gpu.device import GpuDevice
from repro.gpu.memory import Reservation
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER


@dataclass
class GpuLease:
    """A granted device slot + memory reservation; release when done."""

    device: GpuDevice
    reservation: Reservation
    released: bool = False


class MultiGpuScheduler:
    """Distributes kernel jobs across the available (possibly
    heterogeneous) devices, quarantining the ones that misbehave."""

    def __init__(self, devices: Sequence[GpuDevice],
                 metrics: Optional[MetricsRegistry] = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: int = 8) -> None:
        self.devices = list(devices)
        self.grants = 0
        self.rejections = 0
        self.metrics = metrics
        self.tracer = NULL_TRACER          # wired in by the engine
        self.recorder = None               # FlightRecorder, ditto
        self.retry_policy: Optional[RetryPolicy] = None
        self.breakers: dict[int, CircuitBreaker] = {
            d.device_id: CircuitBreaker(failure_threshold=breaker_threshold,
                                        cooldown_calls=breaker_cooldown)
            for d in self.devices
        }
        for device in self.devices:
            self._observe_device(device)
            self._observe_breaker(device.device_id)

    def _observe_device(self, device: GpuDevice) -> None:
        """Publish one device's queue depth and reserved memory."""
        if self.metrics is None:
            return
        label = str(device.device_id)
        self.metrics.gauge(
            "repro_gpu_queue_depth", "Outstanding kernel jobs per device",
            labelnames=("device",),
        ).labels(device=label).set(device.outstanding_jobs)
        self.metrics.gauge(
            "repro_gpu_memory_reserved_bytes",
            "Currently reserved device memory",
            labelnames=("device",),
        ).labels(device=label).set(device.memory.reserved)

    def _observe_breaker(self, device_id: int) -> None:
        """Publish one device's quarantine flag (1 = quarantined)."""
        if self.metrics is None:
            return
        breaker = self.breakers[device_id]
        self.metrics.gauge(
            "repro_gpu_quarantined",
            "1 while a device is quarantined by its circuit breaker",
            labelnames=("device",),
        ).labels(device=str(device_id)).set(
            1.0 if breaker.quarantined else 0.0)

    def _count(self, name: str, help: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, help).inc()

    @property
    def device_count(self) -> int:
        return len(self.devices)

    def quarantined_devices(self) -> list[int]:
        """Device ids currently excluded by their circuit breaker."""
        return [i for i, b in sorted(self.breakers.items())
                if b.quarantined]

    def healthy_device_ids(self) -> list[int]:
        """Device ids currently admissible to ``try_acquire`` — alive
        and not quarantined (the shard planner's home-device pool)."""
        return [d.device_id for d in self.devices
                if d.alive and self.breakers[d.device_id].allows()]

    # ------------------------------------------------------------------
    # Acquire / release
    # ------------------------------------------------------------------

    def try_acquire(self, memory_bytes: int, tag: str = "",
                    retry: Optional[RetryPolicy] = None,
                    affinity: Optional[Sequence] = None,
                    prefer_device: Optional[int] = None
                    ) -> Optional[GpuLease]:
        """Lease the least-loaded admissible device, or return ``None``.

        Ranking: most affinity bytes already cached first (a device that
        holds the caller's column segments elides that much PCIe
        transfer), then fewest outstanding jobs, then most free memory —
        the "resources required by the task and the resources currently
        available by each of the GPUs".  Without caching the first term
        is identically zero and the ranking reduces to the original
        section-2.2 heuristic.  Lost and quarantined devices are not
        candidates.  ``affinity`` is the sequence of
        :class:`~repro.gpu.cache.SegmentKey` the caller is about to
        stage.  ``retry`` (default: the scheduler-wide ``retry_policy``)
        bounds how many backoff-spaced attempts are made before
        conceding ``None``.  ``prefer_device`` (sharded execution's
        home-device pin) outranks every other term so a shard lands on
        the device its shard map names whenever that device is
        admissible — but it is a preference, not a requirement: a lost
        or quarantined home device reroutes to the normal ranking.
        """
        if memory_bytes < 0:
            raise SchedulerError(
                f"cannot acquire a negative amount ({memory_bytes} bytes)"
            )
        policy = retry if retry is not None else self.retry_policy
        lease = self._acquire_once(memory_bytes, tag, affinity,
                                   prefer_device)
        if lease is not None or policy is None:
            return lease
        for delay in policy.delays():
            self._count("repro_reservation_retries_total",
                        "Reservation retries after a transient failure")
            with self.tracer.timed_span("fault.backoff", delay, tag=tag,
                                        memory_bytes=memory_bytes):
                pass
            lease = self._acquire_once(memory_bytes, tag, affinity,
                                       prefer_device)
            if lease is not None:
                return lease
        return None

    def _acquire_once(self, memory_bytes: int, tag: str,
                      affinity: Optional[Sequence] = None,
                      prefer_device: Optional[int] = None
                      ) -> Optional[GpuLease]:
        self._tick_breakers()
        admissible = [
            d for d in self.devices
            if d.alive and self.breakers[d.device_id].allows()
        ]
        candidates = [
            d for d in admissible if d.memory.can_reserve(memory_bytes)
        ]
        if not candidates:
            # Pressure path: no device has room outright, but one could
            # make room by shrinking its column cache — queries always
            # outrank cached segments, so try that before the caller
            # falls back to the CPU.
            candidates = [
                d for d in admissible
                if d.cache is not None and d.cache.cached_bytes > 0
                and d.memory.free + d.cache.cached_bytes >= memory_bytes
            ]
        if not candidates:
            self._reject(memory_bytes, tag)
            return None
        segments = tuple(affinity) if affinity else ()
        best = min(candidates, key=self._rank_key(segments, prefer_device))
        if not best.memory.can_reserve(memory_bytes):
            best.cache.shrink(memory_bytes - best.memory.free,
                              protect=segments)
        reservation = best.memory.try_reserve(memory_bytes, tag)
        if reservation is None:          # raced or injected failure
            self._reject(memory_bytes, tag)
            return None
        best.outstanding_jobs += 1
        self.grants += 1
        self._count("repro_scheduler_grants_total",
                    "Lease requests granted a device")
        self._observe_device(best)
        if self.recorder is not None:
            self.recorder.record_dispatch(
                granted=True, device_id=best.device_id,
                memory_bytes=memory_bytes, tag=tag,
                outstanding=best.outstanding_jobs)
        return GpuLease(device=best, reservation=reservation)

    def _rank_key(self, segments: tuple,
                  prefer_device: Optional[int] = None):
        """Candidate ordering: shard-home pin first, then cached
        affinity bytes desc, then load."""
        def rank(device: GpuDevice):
            held = 0
            if segments and device.cache is not None:
                held = device.cache.cached_bytes_for(segments)
            pinned = 0 if device.device_id == prefer_device else 1
            return (pinned, -held, device.outstanding_jobs,
                    -device.memory.free)
        return rank

    def _reject(self, memory_bytes: int = 0, tag: str = "") -> None:
        self.rejections += 1
        self._count("repro_scheduler_rejections_total",
                    "Lease requests no device could satisfy")
        if self.recorder is not None:
            self.recorder.record_dispatch(
                granted=False, device_id=None,
                memory_bytes=memory_bytes, tag=tag)

    def release(self, lease: GpuLease) -> None:
        """Return the lease; raises :class:`SchedulerError` on a double
        release (misuse).  Quarantined/lost devices release normally —
        an in-flight lease always comes back to the pool."""
        if lease.released:
            raise SchedulerError("lease already released")
        lease.device.memory.release(lease.reservation)
        lease.device.outstanding_jobs -= 1
        lease.released = True
        self._observe_device(lease.device)

    # ------------------------------------------------------------------
    # Circuit breaker feed (called by the dispatcher)
    # ------------------------------------------------------------------

    def record_success(self, lease: GpuLease) -> None:
        """The launch under ``lease`` completed; may close a breaker."""
        breaker = self.breakers[lease.device.device_id]
        was_quarantined = breaker.quarantined
        breaker.record_success()
        if was_quarantined != breaker.quarantined:
            self._observe_breaker(lease.device.device_id)

    def record_failure(self, lease: GpuLease) -> bool:
        """The launch under ``lease`` failed; returns True if the device
        is now quarantined.  Whole-device loss trips immediately."""
        device = lease.device
        breaker = self.breakers[device.device_id]
        trips_before = breaker.trips
        if device.alive:
            breaker.record_failure()
        else:
            breaker.trip()
        self._count("repro_gpu_failures_total",
                    "Launch failures reported to the scheduler")
        if breaker.trips > trips_before:      # newly opened this call
            self._observe_breaker(device.device_id)
            self._count("repro_gpu_quarantine_trips_total",
                        "Times a device's circuit breaker opened")
            self.tracer.instant("scheduler.quarantine",
                                device_id=device.device_id,
                                alive=device.alive,
                                failures=breaker.consecutive_failures)
        # A lost or quarantined device's cached segments are gone (loss)
        # or untrusted (quarantine): drop them wholesale so re-admission
        # starts cold and the reserved bytes return to the pool.
        if (device.cache is not None
                and (not device.alive or breaker.quarantined)):
            device.cache.invalidate_all(
                "device_lost" if not device.alive else "quarantined")
        return breaker.quarantined

    def _tick_breakers(self) -> None:
        for device in self.devices:
            # A lost device can never serve the half-open probe, so its
            # breaker stays OPEN (quarantined) for good.
            if not device.alive:
                continue
            if self.breakers[device.device_id].tick():
                self._observe_breaker(device.device_id)
                self.tracer.instant("scheduler.readmit",
                                    device_id=device.device_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def fits_any_device(self, memory_bytes: int) -> bool:
        """Could the system as currently degraded ever run this job?
        (The 12-of-46 ROLAP queries whose requirements exceed the K40's
        memory fail this.)  Screens with the same admissibility filter
        as ``try_acquire``: a lost or quarantined device's capacity does
        not count — planning against it would promise memory the
        acquire path can never grant."""
        return any(
            memory_bytes <= d.memory.capacity
            for d in self.devices
            if d.alive and self.breakers[d.device_id].allows()
        )

    def snapshot(self) -> list[dict]:
        """Per-device load view (what the dispatcher consults)."""
        return [
            {
                "device_id": d.device_id,
                "outstanding_jobs": d.outstanding_jobs,
                "free_bytes": d.memory.free,
                "capacity_bytes": d.memory.capacity,
                "alive": d.alive,
                "breaker": self.breakers[d.device_id].state.value,
                "cached_bytes": (d.cache.cached_bytes
                                 if d.cache is not None else 0),
            }
            for d in self.devices
        ]
