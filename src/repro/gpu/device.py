"""The simulated GPU device: geometry, memory, launches."""

from __future__ import annotations

from dataclasses import dataclass
from repro.config import GpuSpec
from repro.errors import DeviceLostError, GpuError, KernelLaunchError
from repro.gpu.memory import DeviceMemoryManager, Reservation
from repro.gpu.transfer import transfer_seconds
from repro.obs.metrics import BYTES_BUCKETS, LATENCY_BUCKETS
from repro.obs.tracing import NULL_TRACER


@dataclass(frozen=True)
class SharedMemoryConfig:
    """Per-SMX shared-memory / L1 split (Kepler's configurable 64 KB)."""

    shared_bytes: int
    l1_bytes: int

    @classmethod
    def prefer_shared(cls) -> "SharedMemoryConfig":
        """The 48 KB shared / 16 KB L1 split of section 4.3.2."""
        return cls(shared_bytes=48 * 1024, l1_bytes=16 * 1024)


@dataclass(frozen=True)
class LaunchResult:
    """Timing of one kernel launch, transfers included.

    For a stream-pipelined launch (``chunks > 1``) the three components
    are the *exposed* times of the overlapped schedule — the copy time
    the kernel could not hide plus the kernel busy time — so
    ``total_seconds`` is the overlapped makespan. ``serial_seconds``
    records what the same job would have cost unpipelined and
    ``overlap_saved_seconds`` the difference.
    """

    kernel: str
    device_id: int
    transfer_in_seconds: float
    kernel_seconds: float
    transfer_out_seconds: float
    device_bytes: int
    chunks: int = 1
    serial_seconds: float = 0.0
    overlap_saved_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (self.transfer_in_seconds + self.kernel_seconds
                + self.transfer_out_seconds)


class GpuDevice:
    """One simulated K40: spec + memory manager + job count.

    The multi-GPU scheduler (section 2.2) consults ``outstanding_jobs`` and
    ``memory.free`` when choosing a device.
    """

    def __init__(self, device_id: int, spec: GpuSpec) -> None:
        self.device_id = device_id
        self.spec = spec
        self.memory = DeviceMemoryManager(spec.device_memory_bytes,
                                          device_id=device_id)
        self.outstanding_jobs = 0
        self.shared_config = SharedMemoryConfig.prefer_shared()
        # Observability sinks, wired in by the PerformanceMonitor.
        self.tracer = NULL_TRACER
        self.metrics = None
        # Fault injection (repro.faults): armed by the engine.  A device
        # that suffers whole-device loss flips ``alive`` and stays dead.
        self.injector = None
        self.alive = True
        # Device-resident column cache (repro.gpu.cache), attached by the
        # engine when SystemConfig.cache_fraction > 0; None = no caching.
        self.cache = None

    def attach_injector(self, injector) -> None:
        """Arm a :class:`~repro.faults.injector.FaultInjector` on this
        device and its memory manager."""
        self.injector = injector
        self.memory.injector = injector

    # ------------------------------------------------------------------
    # Geometry helpers the kernels use
    # ------------------------------------------------------------------

    @property
    def smx_count(self) -> int:
        return self.spec.smx_count

    @property
    def shared_bytes_per_smx(self) -> int:
        return self.shared_config.shared_bytes

    def configure_shared_memory(self, config: SharedMemoryConfig) -> None:
        if config.shared_bytes + config.l1_bytes != self.spec.shared_mem_per_smx:
            raise GpuError(
                "shared + L1 must equal the SMX's "
                f"{self.spec.shared_mem_per_smx} bytes"
            )
        self.shared_config = config

    # ------------------------------------------------------------------
    # Launch accounting
    # ------------------------------------------------------------------

    def launch(
        self,
        kernel: str,
        kernel_seconds: float,
        reservation: Reservation,
        rows: int = 0,
        bytes_in: int = 0,
        bytes_out: int = 0,
        pinned: bool = True,
        plan=None,
        pool=None,
        stages: int = 1,
    ) -> LaunchResult:
        """Account one kernel invocation under a live memory reservation.

        The caller must have reserved device memory first — launching
        without a reservation is exactly the bug class section 2.1.1 rules
        out, so the API makes it impossible.

        With a :class:`~repro.gpu.streams.StreamPlan` (built by
        :func:`repro.gpu.streams.streamed_launch`), the launch runs
        chunked and double-buffered out of ``pool`` and is charged the
        overlapped makespan instead of the serial sum; without one the
        accounting below is the pre-stream serial path, unchanged.

        ``stages > 1`` marks a fused launch (``repro.gpu.fusion``): the
        whole operator chain paid this one launch overhead, and the
        ``gpu.launch`` span carries ``fused_stages`` so EXPLAIN ANALYZE
        and the bench kernel-count gate can tell fused launches apart.
        """
        if reservation.released:
            raise GpuError("launch requires a live memory reservation")
        if plan is not None:
            if pool is None:
                raise GpuError("a pipelined launch needs the pinned "
                               "staging pool for its chunk buffers")
            return self._launch_pipelined(plan, pool, kernel=kernel,
                                          rows=rows,
                                          reservation=reservation,
                                          pinned=pinned, stages=stages)
        self._check_faults(kernel)
        t_in = transfer_seconds(bytes_in, self.spec, pinned)
        t_out = transfer_seconds(bytes_out, self.spec, pinned)
        stall = self._transfer_stall()
        total_kernel = self.spec.kernel_launch_overhead + kernel_seconds
        fused_attrs = {"fused_stages": stages} if stages > 1 else {}
        res = LaunchResult(
            kernel=kernel,
            device_id=self.device_id,
            transfer_in_seconds=t_in + stall,
            kernel_seconds=total_kernel,
            transfer_out_seconds=t_out,
            device_bytes=reservation.nbytes,
        )
        with self.tracer.span("gpu.launch", device_id=self.device_id,
                              kernel=kernel, rows=rows,
                              device_bytes=reservation.nbytes,
                              **fused_attrs,
                              kernel_seconds=res.kernel_seconds,
                              transfer_in_seconds=res.transfer_in_seconds,
                              transfer_out_seconds=res.transfer_out_seconds):
            if stall > 0.0:
                # Injected PCIe stall: degrades the inbound copy without
                # failing it; accounted into transfer_in_seconds above.
                with self.tracer.timed_span("gpu.transfer_stall", stall,
                                            device_id=self.device_id,
                                            injected=True):
                    pass
            with self.tracer.timed_span("gpu.transfer_in", t_in,
                                        device_id=self.device_id,
                                        bytes=bytes_in, pinned=pinned):
                pass
            with self.tracer.timed_span(
                    "gpu.kernel", total_kernel,
                    device_id=self.device_id, kernel=kernel, rows=rows,
                    launch_overhead=self.spec.kernel_launch_overhead):
                pass
            with self.tracer.timed_span("gpu.transfer_out", t_out,
                                        device_id=self.device_id,
                                        bytes=bytes_out, pinned=pinned):
                pass
        self._observe_launch(res, bytes_in, bytes_out)
        return res

    def _launch_pipelined(self, plan, pool, *, kernel: str, rows: int,
                          reservation: Reservation,
                          pinned: bool, stages: int = 1) -> LaunchResult:
        """Account one chunked, double-buffered launch (repro.gpu.streams).

        Every chunk re-runs the launch-time fault sites and draws its own
        staging buffer, so ``device_loss``/``launch``/``pinned``/
        ``transfer`` faults fire per-chunk; an injected PCIe stall slows
        that chunk's H2D copy inside the overlapped schedule (a stall a
        kernel slice hides costs nothing).  On any fault every live
        staging buffer is released before the error propagates — no
        spans or metrics are emitted for the failed launch, matching the
        serial path where faults fire before accounting.
        """
        from repro.gpu.streams import DOUBLE_BUFFERS

        buffers = []
        stalls = []
        try:
            for chunk in plan.chunks:
                self._check_faults(kernel)
                if len(buffers) == DOUBLE_BUFFERS:
                    # Chunk i's copy reuses the buffer chunk i-2's kernel
                    # slice drained (the double-buffer rotation).
                    pool.release(buffers.pop(0))
                buffers.append(pool.allocate(chunk.bytes_in))
                stalls.append(self._transfer_stall())
        except Exception:
            for buffer in buffers:
                pool.release(buffer)
            raise
        schedule = plan.schedule(stalls)
        stall_total = sum(stalls)
        n = len(plan.chunks)
        bytes_in = plan.bytes_in
        bytes_out = plan.bytes_out
        # The serial reference is the same job with the same stalls, paid
        # without overlap; saved time can exceed the no-fault saving when
        # the pipeline hides a stall under a kernel slice.
        overlapped = schedule.total_seconds
        serial = plan.serial_seconds + stall_total
        saved = max(0.0, serial - overlapped)
        # Decompose exposed inbound time so the stall shows up in its own
        # span (capped by what is actually exposed), and the clock-advance
        # sum stays exactly the overlapped makespan.
        d_stall = min(stall_total, schedule.exposed_in)
        d_in = schedule.exposed_in - d_stall
        launch_overhead = n * self.spec.kernel_launch_overhead
        fused_attrs = {"fused_stages": stages} if stages > 1 else {}
        res = LaunchResult(
            kernel=kernel,
            device_id=self.device_id,
            transfer_in_seconds=d_stall + d_in,
            kernel_seconds=schedule.kernel_seconds,
            transfer_out_seconds=schedule.exposed_out,
            device_bytes=reservation.nbytes,
            chunks=n,
            serial_seconds=serial,
            overlap_saved_seconds=saved,
        )
        with self.tracer.span("gpu.launch", device_id=self.device_id,
                              kernel=kernel, rows=rows,
                              device_bytes=reservation.nbytes,
                              **fused_attrs,
                              chunks=n,
                              pipeline_depth=plan.pipeline.depth,
                              chunk_bytes=plan.max_chunk_bytes,
                              overlapped_seconds=overlapped,
                              serial_seconds=serial,
                              overlap_saved_seconds=saved,
                              kernel_seconds=res.kernel_seconds,
                              transfer_in_seconds=res.transfer_in_seconds,
                              transfer_out_seconds=res.transfer_out_seconds):
            if d_stall > 0.0:
                with self.tracer.timed_span("gpu.transfer_stall", d_stall,
                                            device_id=self.device_id,
                                            injected=True):
                    pass
            with self.tracer.timed_span("gpu.transfer_in", d_in,
                                        device_id=self.device_id,
                                        bytes=bytes_in, pinned=pinned,
                                        chunks=n):
                pass
            with self.tracer.timed_span(
                    "gpu.kernel", schedule.kernel_seconds,
                    device_id=self.device_id, kernel=kernel, rows=rows,
                    launch_overhead=launch_overhead, chunks=n):
                pass
            with self.tracer.timed_span("gpu.transfer_out",
                                        schedule.exposed_out,
                                        device_id=self.device_id,
                                        bytes=bytes_out, pinned=pinned,
                                        chunks=n):
                pass
        for buffer in buffers:
            pool.release(buffer)
        self._observe_launch(res, bytes_in, bytes_out)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_overlap_saved_seconds_total",
                "Simulated seconds saved by stream-pipelined "
                "transfer/compute overlap",
                labelnames=("device",),
            ).labels(device=str(self.device_id)).inc(saved)
        return res

    def _check_faults(self, kernel: str) -> None:
        """Evaluate the launch-time fault sites (repro.faults).

        Raises :class:`~repro.errors.DeviceLostError` for a dead (or
        newly-dying) device and :class:`~repro.errors.KernelLaunchError`
        for an injected launch failure; the dispatcher catches both
        and the operator falls back to the CPU chain.
        """
        if not self.alive:
            raise DeviceLostError(
                f"device {self.device_id} was lost and is unavailable"
            )
        if self.injector is None:
            return
        if self.injector.decide("device_loss", self.device_id):
            self.alive = False
            raise DeviceLostError(
                f"device {self.device_id} dropped off the bus "
                f"launching {kernel}"
            )
        if self.injector.decide("launch", self.device_id):
            raise KernelLaunchError(
                f"injected launch failure for {kernel} "
                f"on device {self.device_id}"
            )

    def _transfer_stall(self) -> float:
        """Injected extra PCIe latency for this launch (0.0 = none)."""
        if self.injector is None:
            return 0.0
        rule = self.injector.decide("transfer", self.device_id)
        return rule.stall_seconds if rule is not None else 0.0

    def _observe_launch(self, res: LaunchResult,
                        bytes_in: int, bytes_out: int) -> None:
        """Feed one launch into the metrics registry (when wired)."""
        if self.metrics is None:
            return
        kernel, kernel_seconds = res.kernel, res.kernel_seconds
        t_in, t_out = res.transfer_in_seconds, res.transfer_out_seconds
        device = str(self.device_id)
        # Running totals of the §2.3 per-kernel view; the monitor's
        # kernel table folds the same numbers off the ``gpu.launch``
        # span's attributes.
        self.metrics.counter(
            "repro_kernel_seconds_total",
            "Total simulated device-resident seconds by kernel",
            labelnames=("kernel", "device"),
        ).labels(kernel=kernel, device=device).inc(kernel_seconds)
        self.metrics.counter(
            "repro_kernel_invocations_total",
            "Kernel launches by kernel name",
            labelnames=("kernel", "device"),
        ).labels(kernel=kernel, device=device).inc()
        moved = self.metrics.counter(
            "repro_transfer_bytes_total",
            "Total bytes moved over the simulated PCIe bus by direction",
            labelnames=("direction",),
        )
        moved.labels(direction="in").inc(bytes_in)
        moved.labels(direction="out").inc(bytes_out)
        xfer_seconds = self.metrics.counter(
            "repro_transfer_seconds_total",
            "Total simulated PCIe transfer seconds by direction",
            labelnames=("direction",),
        )
        xfer_seconds.labels(direction="in").inc(t_in)
        xfer_seconds.labels(direction="out").inc(t_out)
        self.metrics.histogram(
            "repro_kernel_latency_seconds",
            "Simulated kernel-resident seconds per launch",
            labelnames=("kernel", "device"), buckets=LATENCY_BUCKETS,
        ).labels(kernel=kernel, device=device).observe(kernel_seconds)
        transfers = self.metrics.histogram(
            "repro_transfer_latency_seconds",
            "Simulated PCIe transfer seconds per direction",
            labelnames=("direction",), buckets=LATENCY_BUCKETS,
        )
        transfers.labels(direction="in").observe(t_in)
        transfers.labels(direction="out").observe(t_out)
        self.metrics.histogram(
            "repro_launch_device_bytes",
            "Device memory reserved per kernel launch",
            labelnames=("kernel",), buckets=BYTES_BUCKETS,
        ).labels(kernel=kernel).observe(self.memory.reserved)
        self.metrics.gauge(
            "repro_gpu_memory_highwater_bytes",
            "Peak reserved device memory",
            labelnames=("device",),
        ).labels(device=device).set_max(self.memory.peak_reserved)


def make_devices(specs) -> list[GpuDevice]:
    """Instantiate one :class:`GpuDevice` per spec."""
    return [GpuDevice(i, spec) for i, spec in enumerate(specs)]
