"""Stream-pipelined kernel launches (section 2.1.2).

The K40 has one compute engine and *two* DMA copy engines, so a launch
does not have to pay ``transfer_in + kernel + transfer_out`` strictly
serially: chunk *i*'s kernel slice can run concurrently with chunk
*i+1*'s host->device copy and chunk *i-1*'s device->host copy.  This
module models exactly that: a :class:`PipelineSpec` (the config knobs),
a planner that splits one launch's staged input into double-buffered
chunks, and the three-engine schedule that computes the overlapped
makespan analytically.

The trade-off is real, not a free lunch: every chunk pays the PCIe
``transfer_setup_overhead`` again and every kernel slice pays the
``kernel_launch_overhead`` again, so deep pipelines on small inputs are
slower than one serial launch.  The planner therefore compares the
overlapped makespan against the serial launch and returns *no* plan
whenever chunking would not strictly win — which is what makes the
"pipelined <= serial, for any job" property in the tests universal.

Cached segments (:mod:`repro.gpu.cache`) never enter the pipeline: the
executors subtract cache hits from ``bytes_in`` before planning, so only
bytes that actually cross the bus are chunked.

See ``docs/gpu_streams.md`` for the timing model and a worked diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import GpuSpec
from repro.gpu.transfer import transfer_seconds

#: Staging buffers a pipelined launch holds at once (double buffering):
#: one being filled/copied by the H2D engine, one being consumed by the
#: compute engine.  Chunk *i*'s copy therefore cannot start before chunk
#: *i-2*'s kernel slice has drained its buffer.
DOUBLE_BUFFERS = 2

#: The single dispatching thread's CPU work per launch (or per wave of
#: launches that leave together): charged on every GPU cost event and
#: priced by the partition and shard planners.
DISPATCH_SECONDS = 50e-6


@dataclass(frozen=True)
class PipelineSpec:
    """The stream-pipeline configuration knobs.

    ``depth`` is the number of double-buffered chunks a launch's staged
    input splits into (1 = the serial launch path, byte-identical to the
    pre-stream engine); ``chunk_bytes`` caps the size of one chunk, so
    large transfers split finer than ``depth`` when needed.  A chunk is
    additionally bounded by half the pinned staging pool, because two
    chunks are in flight at once.
    """

    depth: int = 1
    chunk_bytes: int = 1 << 20

    def validate(self) -> "PipelineSpec":
        if self.depth < 1:
            raise ValueError(f"pipeline depth must be >= 1, got {self.depth}")
        if self.chunk_bytes <= 0:
            raise ValueError(
                f"chunk_bytes must be positive, got {self.chunk_bytes}")
        return self


@dataclass(frozen=True)
class StreamChunk:
    """One chunk's slice of the launch: bytes each way plus engine times."""

    bytes_in: int
    bytes_out: int
    kernel_seconds: float      # slice of the kernel + one launch overhead
    h2d_seconds: float         # setup overhead + bytes_in / bandwidth
    d2h_seconds: float


@dataclass(frozen=True)
class StreamSchedule:
    """The overlapped makespan, decomposed into exposed components.

    ``exposed_in`` is the time the compute engine spent waiting on the
    H2D copy engine (the first chunk's copy plus any later bubbles),
    ``kernel_seconds`` is the compute engine's busy time (all slices,
    launch overheads included), and ``exposed_out`` is the D2H tail that
    drains after the last kernel slice.  Summed in that order they *are*
    the makespan, so downstream span accounting stays exact.
    """

    exposed_in: float
    kernel_seconds: float
    exposed_out: float

    @property
    def total_seconds(self) -> float:
        # Same association as LaunchResult.total_seconds so the serial
        # comparison and the reported launch agree to the last bit.
        return (self.exposed_in + self.kernel_seconds) + self.exposed_out


class FlowShop:
    """The three-engine flow shop: H2D copy engine, compute engine, D2H
    copy engine, with the double-buffer constraint.

    This is the one recurrence behind a launch's chunks
    (:meth:`StreamPlan.schedule`), a device's back-to-back partition
    launches (:class:`repro.gpu.partition.PartitionStreamState`) and the
    partition and shard planners' makespans: job *i*'s H2D copy cannot
    start until job *i-2*'s kernel slice has freed its staging buffer.
    Readers take either the decomposition (:meth:`schedule`) or the raw
    ``d2h_free`` drain time; the two can differ in the last bit, so each
    caller keeps the one it has always summed.
    """

    def __init__(self) -> None:
        self.h2d_free = 0.0      # when the H2D copy engine is next free
        self.kern_free = 0.0     # when the compute engine is next free
        self.d2h_free = 0.0      # when the D2H copy engine is next free
        self.kernel_busy = 0.0
        self._kern_done: list[float] = []

    def push(self, h2d_seconds: float, kernel_seconds: float,
             d2h_seconds: float) -> None:
        """Feed one job (a chunk, a partition, a shard) through."""
        done = self._kern_done
        buffer_ready = (done[-DOUBLE_BUFFERS]
                        if len(done) >= DOUBLE_BUFFERS else 0.0)
        self.h2d_free = max(self.h2d_free, buffer_ready) + h2d_seconds
        self.kern_free = max(self.kern_free, self.h2d_free) + kernel_seconds
        done.append(self.kern_free)
        self.kernel_busy += kernel_seconds
        self.d2h_free = max(self.d2h_free, self.kern_free) + d2h_seconds

    def schedule(self) -> StreamSchedule:
        """The makespan so far, decomposed into exposed components."""
        return StreamSchedule(
            exposed_in=max(0.0, self.kern_free - self.kernel_busy),
            kernel_seconds=self.kernel_busy,
            exposed_out=max(0.0, self.d2h_free - self.kern_free),
        )


@dataclass(frozen=True)
class StreamPlan:
    """One launch's chunking, with its serial reference timings."""

    chunks: tuple[StreamChunk, ...]
    pipeline: PipelineSpec
    serial_in: float
    serial_kernel: float
    serial_out: float

    @property
    def bytes_in(self) -> int:
        return sum(c.bytes_in for c in self.chunks)

    @property
    def bytes_out(self) -> int:
        return sum(c.bytes_out for c in self.chunks)

    @property
    def max_chunk_bytes(self) -> int:
        return max(c.bytes_in for c in self.chunks)

    @property
    def serial_seconds(self) -> float:
        """What the serial launch path would charge for the same job."""
        return (self.serial_in + self.serial_kernel) + self.serial_out

    def schedule(self,
                 stalls: Optional[Sequence[float]] = None) -> StreamSchedule:
        """Run the three engines over the chunks and decompose the makespan.

        ``stalls`` adds injected per-chunk PCIe stall seconds onto the
        corresponding H2D copies (a stall hidden under a kernel slice
        costs nothing — overlap absorbs it).
        """
        shop = FlowShop()
        for i, chunk in enumerate(self.chunks):
            h2d = chunk.h2d_seconds
            if stalls is not None and i < len(stalls):
                h2d += stalls[i]
            shop.push(h2d, chunk.kernel_seconds, chunk.d2h_seconds)
        return shop.schedule()


def _split_bytes(total: int, parts: int) -> list[int]:
    """Split ``total`` bytes into ``parts`` near-equal chunks."""
    base, remainder = divmod(total, parts)
    return [base + (1 if i < remainder else 0) for i in range(parts)]


def plan_pipeline(
    *,
    bytes_in: int,
    bytes_out: int,
    kernel_seconds: float,
    spec: GpuSpec,
    pipeline: Optional[PipelineSpec],
    pool_capacity: int,
    pinned: bool = True,
) -> Optional[StreamPlan]:
    """Plan one launch's chunking; ``None`` means "launch serially".

    Serial is the answer whenever pipelining cannot strictly win: depth 1,
    nothing to transfer in, fewer than two chunks' worth of bytes, or a
    per-chunk overhead bill (extra transfer setups and kernel launches)
    that exceeds what the overlap hides.
    """
    if pipeline is None or pipeline.depth <= 1 or bytes_in <= 0:
        return None
    max_chunk = min(pipeline.chunk_bytes, pool_capacity // DOUBLE_BUFFERS)
    if max_chunk <= 0:
        return None
    chunks = max(pipeline.depth, -(-bytes_in // max_chunk))
    chunks = min(chunks, bytes_in)      # never schedule an empty H2D chunk
    if chunks <= 1:
        return None

    in_sizes = _split_bytes(bytes_in, chunks)
    out_sizes = _split_bytes(bytes_out, chunks)
    plan = StreamPlan(
        chunks=tuple(
            StreamChunk(
                bytes_in=size_in,
                bytes_out=size_out,
                kernel_seconds=(spec.kernel_launch_overhead
                                + kernel_seconds * (size_in / bytes_in)),
                h2d_seconds=transfer_seconds(size_in, spec, pinned),
                d2h_seconds=transfer_seconds(size_out, spec, pinned),
            )
            for size_in, size_out in zip(in_sizes, out_sizes)
        ),
        pipeline=pipeline,
        serial_in=transfer_seconds(bytes_in, spec, pinned),
        serial_kernel=spec.kernel_launch_overhead + kernel_seconds,
        serial_out=transfer_seconds(bytes_out, spec, pinned),
    )
    if plan.schedule().total_seconds >= plan.serial_seconds:
        return None
    return plan


def streamed_launch(
    device,
    pool,
    *,
    kernel: str,
    kernel_seconds: float,
    reservation,
    rows: int = 0,
    bytes_in: int = 0,
    bytes_out: int = 0,
    pinned: bool = True,
    pipeline: Optional[PipelineSpec] = None,
    stages: int = 1,
):
    """Launch one kernel through the stream planner.

    This is the dispatcher's single entry point
    (:meth:`repro.core.dispatch.Wave.launch`): it owns the pinned
    staging-buffer lifecycle (one full-size buffer for a serial launch,
    two rotating chunk-size buffers for a pipelined one) and returns the
    device's :class:`~repro.gpu.device.LaunchResult` either way.  With no
    plan — depth 1, or chunking would not pay — the behaviour is the
    pre-stream serial path, timing-identical to the last bit.

    ``stages`` marks a fused launch (``repro.gpu.fusion``): the number of
    plan operators executing inside this single kernel invocation.  Only
    the launch's *external* edges — the staged inputs and the final
    result — enter the chunking plan above; fused-stage intermediates are
    device-resident by construction and never cross the bus.
    """
    plan = plan_pipeline(
        bytes_in=bytes_in, bytes_out=bytes_out,
        kernel_seconds=kernel_seconds, spec=device.spec,
        pipeline=pipeline, pool_capacity=pool.capacity, pinned=pinned,
    )
    if plan is None:
        buffer = pool.allocate(bytes_in)
        try:
            return device.launch(
                kernel=kernel, kernel_seconds=kernel_seconds,
                reservation=reservation, rows=rows,
                bytes_in=bytes_in, bytes_out=bytes_out, pinned=pinned,
                stages=stages,
            )
        finally:
            pool.release(buffer)
    return device.launch(
        kernel=kernel, kernel_seconds=kernel_seconds,
        reservation=reservation, rows=rows,
        bytes_in=bytes_in, bytes_out=bytes_out, pinned=pinned,
        plan=plan, pool=pool, stages=stages,
    )
