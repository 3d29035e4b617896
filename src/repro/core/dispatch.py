"""One dispatch site: lease -> stage -> launch -> fall back.

The paper describes *one* GPU infrastructure — reserve device memory up
front and fall back to the CPU when no card has room (section 2.1.1),
stage through the registered pinned pool (section 2.1.2), hand the job
to the less-loaded card (section 2.2) — which the section-3 sort job
queue and the section-4 group-by chain simply call.  This module is that
infrastructure, written once: :meth:`Wave.launch` is the only code in
``repro`` that acquires a lease, probes the column cache, calls
:func:`~repro.gpu.streams.streamed_launch`, feeds the circuit breaker
and releases.  The executors (group-by, sort, join, fused chain) keep
only what is their own: how they split rows, which kernel request one
piece builds, how a piece runs on the CPU, how pieces reassemble, and
their pricing terms.  Whether an operator splits at all is asked in one
place too: :meth:`Dispatcher.split` owns the knob, the home devices, the
price and the gate.

A *piece* is one unit of device work.  Whole-device execution is one
lone piece (:meth:`Dispatcher.launch`); out-of-core execution is pieces
in time and sharding is pieces in space with a home device and a
contended H2D leg (:meth:`Dispatcher.wave`); fusion is one piece with a
longer kernel.  The piece contract and the event-order rules are laid
out in ``docs/architecture.md`` ("One dispatch site").
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from repro.blu.catalog import Catalog
from repro.blu.engine import OperatorContext
from repro.core.monitoring import PATH_COUNTERS, PerformanceMonitor
from repro.core.pathselect import judge
from repro.core.scheduler import GpuLease, MultiGpuScheduler
from repro.errors import GpuError, PinnedMemoryError
from repro.gpu.cache import StagedSegment
from repro.gpu.interconnect import Interconnect
from repro.gpu.partition import (
    PARTITION_GATE,
    SHARD_GATE,
    PartitionStreamState,
    SplitPlan,
    SplitTerms,
    price,
)
from repro.gpu.pinned import PinnedMemoryPool
from repro.gpu.shard import home_devices
from repro.gpu.streams import DISPATCH_SECONDS, PipelineSpec, streamed_launch
from repro.gpu.transfer import effective_transfer_bytes
from repro.obs.profile import DECISION
from repro.timing import CostEvent


#: What a gate's instant shows for a candidate that could not be priced.
_UNPRICED = SplitPlan("", 0, 0, (), 0.0, (), 0.0)


class Declined(Exception):
    """Raised by a piece's ``run`` to hand the piece back unlaunched.

    The input is outside the kernel's scope (non-unique join build keys)
    — not a device failure: the lease is released, the breaker hears
    nothing, and the message becomes the piece's ``fallback`` reason.
    """


@dataclass
class Kernel:
    """What a piece's ``run`` hands back: the kernel to account, plus the
    operator's own ``outcome`` (returned by ``launch`` on success)."""

    name: str
    seconds: float
    bytes_out: int
    outcome: object
    #: Plan operators inside this one launch (the fused chain).
    stages: int = 1
    #: Segments the kernel leaves resident beyond its staged inputs;
    #: admitted unless already there.  A callable, so the content
    #: digests are only computed when the device caches at all.
    resident: Callable[[], Sequence[StagedSegment]] = tuple


@dataclass
class Piece:
    """One unit of device work, as the operator describes it.

    ``memory`` is the up-front reservation, ``staged`` the bytes MEMCPY
    stages for the H2D copy and ``segments`` the cacheable slices within
    them (cache hits shrink the copy) — a callable like
    :attr:`Kernel.resident`, asked only when some device caches, so a key
    nobody looks up is never digested.  ``run`` receives the bytes that
    will actually cross the bus and does the operator's functional work
    under the lease — anything it raises is classified by ``launch``.
    ``index`` names the piece's home device and H2D leg in a shard wave.
    ``on_lease`` is told the device id as soon as a lease is granted,
    before the cache probe.

    ``launch`` fills in the rest: the device the piece ran on (or whose
    failure sent it back; -1 when no device was involved), why it fell
    back, and how many faults it met on the way.
    """

    rows: int
    memory: int
    tag: str
    staged: int
    run: Callable[[int], Kernel]
    segments: Callable[[], Sequence[StagedSegment]] = tuple
    index: int = 0
    on_lease: Optional[Callable[[int], None]] = None
    device_id: int = -1
    fallback: str = ""
    faults: int = 0


@dataclass
class Dispatcher:
    """The shared GPU infrastructure of one engine.

    Built once by :class:`~repro.core.accelerator.GpuAcceleratedEngine`
    and handed to every executor, so leases, staging, fault policy and
    decision records have one owner (and one ``query_id`` to stamp).
    """

    scheduler: MultiGpuScheduler
    pinned: PinnedMemoryPool
    monitor: PerformanceMonitor
    catalog: Optional[Catalog] = None
    pipeline: Optional[PipelineSpec] = None
    #: Prices and accounts the shard waves' contended transfers.
    interconnect: Optional[Interconnect] = None
    #: Engine callback invoked with the lost device ids after a shard
    #: wave saw device loss — rewrites the catalog's shard maps.
    rebalance: Optional[Callable[[list], None]] = None
    query_id: str = ""

    @property
    def tracer(self):
        return self.monitor.tracer

    @property
    def catalog_version(self) -> int:
        """The DDL version cached segments are keyed on."""
        return self.catalog.version if self.catalog is not None else 0

    @property
    def caching(self) -> bool:
        """Whether any device has an enabled column cache."""
        return any(d.cache is not None and d.cache.enabled
                   for d in self.scheduler.devices)

    @property
    def device_capacity(self) -> int:
        """Memory of the largest card: the most one piece may need."""
        return max((d.memory.capacity for d in self.scheduler.devices),
                   default=0)

    def split(
        self,
        operator: str,
        ctx: OperatorContext,
        terms: Callable[[], SplitTerms],
        across: Optional[str] = None,
    ) -> tuple[Optional[SplitPlan], str]:
        """Should ``operator`` split — in time, or across devices?

        ``across`` names the table whose shard map homes the pieces of a
        split in space; without it an over-memory job may stream through
        the cards as pieces in time.  Returns ``(plan, reason)``: the
        plan to run, or ``None`` with the gate's refusal.  A candidate
        its knob (``partition_enabled`` / ``shard_enabled``) filters out
        is not enumerated: ``terms`` is never built, nothing is priced
        or traced, the reason is empty.  Otherwise the terms are priced,
        judged rival by rival, and the verdict lands as a
        ``pathselect.*`` instant either way, so EXPLAIN ANALYZE can show
        why a query did or did not split.
        """
        config = ctx.config
        scheduler = self.scheduler
        spec = scheduler.devices[0].spec
        tracer = self.tracer
        if across is None:
            if not config.partition_enabled:
                return None, ""
            plan = price(
                operator, terms(), spec,
                capacity_bytes=self.device_capacity,
                max_pieces=config.max_partitions,
                device_count=scheduler.device_count,
            )
            shown = plan or _UNPRICED
            gpu, cpu = shown.seconds, shown.rival_seconds("cpu")
            verdict = judge(
                "partitioned gpu", gpu, shown.rivals,
                f"{shown.pieces} partitions: gpu~{gpu * 1e3:.3f}ms < "
                f"cpu~{cpu * 1e3:.3f}ms "
                f"(merge ~{shown.merge_seconds * 1e3:.3f}ms)",
                refused=None if plan else
                "no admissible partition count: a single partition "
                "still exceeds device memory",
            )
            tracer.instant(
                PARTITION_GATE,
                operator=operator, partition=verdict.taken,
                partitions=shown.pieces,
                working_set=int(shown.working_set_bytes),
                capacity=int(shown.capacity_bytes),
                gpu_seconds=gpu, cpu_seconds=cpu,
                merge_seconds=shown.merge_seconds, reason=verdict.reason,
            )
        else:
            if not config.shard_enabled:
                return None, ""
            plan = price(
                operator, terms(), spec,
                devices=home_devices(scheduler, self.catalog, across),
                interconnect=self.interconnect,
            )
            shown = plan or _UNPRICED
            gpu = shown.seconds
            single = shown.rival_seconds("single-device")
            verdict = judge(
                "sharded", gpu, shown.rivals,
                f"{shown.pieces} shards on devices {shown.devices}: "
                f"gpu~{gpu * 1e3:.3f}ms < single-device"
                f"~{single * 1e3:.3f}ms "
                f"(exchange ~{shown.exchange_seconds * 1e3:.3f}ms)",
                refused=None if plan else
                "fewer than two healthy home devices: whole-job dispatch",
            )
            tracer.instant(
                SHARD_GATE,
                operator=operator, shard=verdict.taken,
                shards=shown.pieces, devices=list(shown.devices),
                gpu_seconds=gpu, single_seconds=single,
                cpu_seconds=shown.rival_seconds("cpu"),
                exchange_seconds=shown.exchange_seconds,
                stall_seconds=shown.stall_seconds, reason=verdict.reason,
            )
        return (plan if verdict.taken else None), verdict.reason

    def record(
        self,
        operator: str,
        path: str,
        reason: str,
        kernel: Optional[str] = None,
        device_id: int = -1,
    ) -> None:
        """Record one offload decision: an ``offload.decision`` instant
        (the monitor's record of it) plus its registry counters.

        ``kernel`` is passed (``""`` for "none chosen") only by the
        operators that choose one — group-by and the fused chain; sort
        and join decisions carry no kernel field at all.
        """
        monitor = self.monitor
        chosen = {} if kernel is None else {"kernel": kernel}
        monitor.tracer.instant(
            DECISION,
            operator=operator,
            path=path,
            reason=reason,
            **chosen,
            query_id=self.query_id,
            device_id=device_id,
        )
        monitor.registry.counter(
            "repro_offload_decisions_total",
            "Path-selection outcomes by operator and path",
            labelnames=("operator", "path"),
        ).labels(operator=operator, path=path).inc()
        if path in PATH_COUNTERS:
            monitor.count(PATH_COUNTERS[path])

    def launch(self, operator: str, ctx: OperatorContext, piece: Piece):
        """Run one lone piece; its outcome, or ``None`` to fall back.

        The cost event lands at once, charged the launch's full
        ``total_seconds``, outside any parallel group.
        """
        return Wave(self, operator, ctx).launch(piece)

    @contextmanager
    def wave(
        self,
        operator: str,
        ctx: OperatorContext,
        plan: SplitPlan,
        piece_bytes: Sequence[int] = (),
    ) -> Iterator["Wave"]:
        """A wave of pieces streaming through the devices together.

        ``plan`` is the :class:`~repro.gpu.partition.SplitPlan` being
        run.  When it names home devices (pieces in space),
        ``piece_bytes[s]`` is what shard ``s`` stages, which prices the
        whole H2D wave at the switch-contended bandwidth before anything
        launches; pieces in time ignore it.  Each launch is charged only
        its *exposed* makespan growth on its device; the events flush,
        grouped by per-device rank, when the block exits.
        """
        wave = Wave(self, operator, ctx, plan, piece_bytes)
        yield wave
        wave.close()


class Wave:
    """The pieces of one operator's device work, lone or many."""

    def __init__(
        self,
        dispatch: Dispatcher,
        operator: str,
        ctx: OperatorContext,
        plan: Optional[SplitPlan] = None,
        piece_bytes: Sequence[int] = (),
    ) -> None:
        self.dispatch = dispatch
        self.operator = operator
        self.ctx = ctx
        self.plan = plan
        # Home devices: empty for a lone piece and for pieces in time.
        self.homes = plan.devices if plan is not None else ()
        self.legs = ()
        if self.homes:
            self.legs = dispatch.interconnect.wave_legs(
                [(self._home(s), n) for s, n in enumerate(piece_bytes)]
            )
        # The instant family a traced wave's pieces and summary use.
        self._part = ""
        if plan is not None:
            self._part = "shard" if self.homes else "partition"
        self.gpu_parts = self.cpu_parts = self.rerouted = 0
        self._stream = PartitionStreamState()
        self._device_seq: dict[int, int] = {}
        self._groups: list[int] = []
        self._events: list[CostEvent] = []
        self._lost: set[int] = set()

    def _home(self, index: int) -> int:
        return self.homes[index % len(self.homes)]

    @property
    def stall_seconds(self) -> float:
        """Switch-contention stall summed over the wave's H2D legs."""
        return sum(leg.stall_seconds for leg in self.legs)

    def launch(self, piece: Piece):
        """Lease, stage, launch; the outcome, or ``None`` to fall back.

        A piece with a home device tries it first and, when that device
        fails under it, any other admissible device before giving up.
        Pinned-pool exhaustion and :class:`Declined` end the piece
        without a second try; only a device failure feeds the breaker.
        """
        dispatch = self.dispatch
        scheduler = dispatch.scheduler
        monitor = dispatch.monitor
        piece.fallback = f"no GPU could reserve {piece.memory} bytes"
        segments = piece.segments() if dispatch.caching else ()
        preferences = [None]
        if self.homes:
            preferences = [self._home(piece.index), None]
        for prefer in preferences:
            lease = scheduler.try_acquire(
                piece.memory,
                tag=piece.tag,
                affinity=[s.key for s in segments],
                prefer_device=prefer,
            )
            if lease is None:
                break
            device = lease.device
            try:
                if piece.on_lease is not None:
                    piece.on_lease(device.device_id)
                # Column-cache probe on the leased device: resident
                # segments skip both the MEMCPY into pinned staging and
                # the PCIe copy.
                cache = device.cache
                caching = cache is not None and cache.enabled
                hit_bytes = 0
                missed: list[StagedSegment] = []
                if caching:
                    for segment in segments:
                        if cache.lookup(segment.key):
                            hit_bytes += segment.nbytes
                        else:
                            missed.append(segment)
                bytes_in = effective_transfer_bytes(piece.staged, hit_bytes)
                kernel = piece.run(bytes_in)
                launch = streamed_launch(
                    device,
                    dispatch.pinned,
                    kernel=kernel.name,
                    kernel_seconds=kernel.seconds,
                    reservation=lease.reservation,
                    rows=piece.rows,
                    bytes_in=bytes_in,
                    bytes_out=kernel.bytes_out,
                    pinned=True,
                    pipeline=dispatch.pipeline,
                    stages=kernel.stages,
                )
                self._charge(piece, lease, launch, bytes_in, kernel.bytes_out)
            except Declined as declined:
                piece.fallback = str(declined)
                break
            except PinnedMemoryError as exc:
                # Host-side staging exhaustion: no device misbehaved, so
                # the circuit breaker stays out of it.
                monitor.record_fault_fallback(self.operator, exc)
                piece.faults += 1
                piece.fallback = "pinned staging pool exhausted"
                break
            except GpuError as exc:
                # Launch failure / device loss / allocation fault: feed
                # the circuit breaker; the piece reroutes or falls back
                # (guaranteed degradation — results must not change).
                scheduler.record_failure(lease)
                if not device.alive and self.homes:
                    self._lost.add(device.device_id)
                monitor.record_fault_fallback(
                    self.operator, exc, device.device_id
                )
                piece.faults += 1
                piece.device_id = device.device_id
                piece.fallback = f"gpu failure: {exc}"
                self.rerouted += 1
                continue
            else:
                scheduler.record_success(lease)
            finally:
                scheduler.release(lease)
            # Admit the freshly staged segments now that the piece's own
            # reservation has been returned (insert failures are harmless
            # — the cache simply stays cold for those segments).
            if caching:
                for segment in missed:
                    cache.insert(segment.key, segment.nbytes)
                for segment in kernel.resident():
                    if segment.key not in cache:
                        cache.insert(segment.key, segment.nbytes)
            piece.device_id = device.device_id
            self._note_part(piece, "gpu", device.device_id)
            return kernel.outcome
        self._note_part(piece, "cpu")
        return None

    def _charge(
        self,
        piece: Piece,
        lease: GpuLease,
        launch,
        bytes_in: int,
        bytes_out: int,
    ) -> None:
        """Account one launch: the single-threaded GPU cost event — the
        dispatching thread blocks while every other core is freed."""
        device_id = lease.device.device_id
        event = dict(
            op="GPU-" + self.operator.upper(),
            rows=piece.rows,
            cpu_seconds=DISPATCH_SECONDS,
            max_degree=1,
            gpu_memory_bytes=lease.reservation.nbytes,
            device_id=device_id,
        )
        if self.plan is None:
            self.ctx.ledger.add(
                CostEvent(gpu_seconds=launch.total_seconds, **event)
            )
            return
        h2d_seconds = launch.transfer_in_seconds
        if self.homes:
            # The leg left with the whole wave: book it, and its share of
            # the switch contention, on the device's link.
            interconnect = self.dispatch.interconnect
            stall = self.legs[piece.index].stall_seconds
            h2d_seconds += stall
            interconnect.record_transfer(
                device_id, bytes_in, h2d_seconds, stall
            )
            interconnect.record_transfer(
                device_id, bytes_out, launch.transfer_out_seconds
            )
        # Feed the launch through its device's piece-level pipeline:
        # only the makespan growth is charged, so H2D of piece k+1 hides
        # under the kernel of piece k and the summed events equal the
        # streamed makespan.
        exposed = self._stream.advance(
            device_id,
            h2d_seconds,
            launch.kernel_seconds,
            launch.transfer_out_seconds,
        )
        # Same-rank pieces on *different* devices share a group and
        # overlap (section 2.2); same-device pieces keep distinct groups
        # — their overlap is already folded into ``exposed``.
        rank = self._device_seq.get(device_id, 0)
        self._device_seq[device_id] = rank + 1
        if rank == len(self._groups):
            self._groups.append(self.ctx.ledger.claim_parallel_group())
        self._events.append(
            CostEvent(
                gpu_seconds=exposed,
                parallel_group=self._groups[rank],
                **event,
            )
        )

    def _note_part(
        self, piece: Piece, target: str, device_id: int = -1
    ) -> None:
        if target == "gpu":
            self.gpu_parts += 1
        else:
            self.cpu_parts += 1
        if self._part:
            self.dispatch.tracer.instant(
                self._part + ".part",
                operator=self.operator,
                index=piece.index,
                rows=int(piece.rows),
                target=target,
                device_id=device_id,
                query_id=self.dispatch.query_id,
            )

    def close(self) -> None:
        """Flush the wave's events so same-rank pieces sit adjacent, and
        report any lost home devices for one shard-map rebalance."""
        self._events.sort(key=lambda e: e.parallel_group)
        self.ctx.ledger.extend(self._events)
        if self._lost and self.dispatch.rebalance is not None:
            self.dispatch.rebalance(sorted(self._lost))

    def report(
        self,
        rows: int,
        merge_seconds: float,
        groups: int = 0,
        exchange_seconds: float = 0.0,
        exchange_bytes: int = 0,
    ) -> None:
        """Emit the wave's ``partition.exec`` / ``shard.exec`` summary
        (what EXPLAIN ANALYZE's partition and shard sections read)."""
        tracer = self.dispatch.tracer
        plan = self.plan
        if not self.homes:
            tracer.instant(
                "partition.exec",
                operator=self.operator,
                partitions=plan.pieces,
                gpu_partitions=self.gpu_parts,
                cpu_partitions=self.cpu_parts,
                rows=rows,
                groups=groups,
                merge_seconds=merge_seconds,
                working_set=plan.working_set_bytes,
                capacity=plan.capacity_bytes,
                query_id=self.dispatch.query_id,
            )
            return
        tracer.instant(
            "shard.exec",
            operator=self.operator,
            shards=plan.pieces,
            gpu_shards=self.gpu_parts,
            cpu_shards=self.cpu_parts,
            rerouted=self.rerouted,
            devices=list(plan.devices),
            rows=rows,
            groups=groups,
            merge_seconds=merge_seconds,
            exchange_seconds=exchange_seconds,
            exchange_bytes=exchange_bytes,
            stall_seconds=self.stall_seconds,
            nvlink=self.dispatch.interconnect.nvlink_enabled,
            query_id=self.dispatch.query_id,
        )
