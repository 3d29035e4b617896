"""Split planning: one plan value and one price, in time and in space.

The paper's Figure-3 T3 verdict sends every group-by whose working set
exceeds device memory to the CPU ("in our current implementation, all of
the large queries are processed in the CPU"), and its section-2.2
scheduler hands each whole job to *one* card.  This module prices the
two ways past that: pieces *in time* — device-sized partitions streamed
back-to-back through the cards, the generalisation of the stream
pipeline's transfer chunking (:mod:`repro.gpu.streams`) from one
launch's staged bytes to one operator's whole input — and pieces *in
space*, one shard per healthy home device (:mod:`repro.gpu.shard`).

Both are one :class:`SplitPlan` priced by one :func:`price` from the
operator's own :class:`SplitTerms`; the plan keeps every rival's
predicted seconds for the gate that judges it
(:meth:`repro.core.dispatch.Dispatcher.split`).  The model is laid out
in ``docs/cost_model.md`` ("How a split is priced and judged").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.config import GpuSpec
from repro.gpu.interconnect import Interconnect
from repro.gpu.streams import DISPATCH_SECONDS, FlowShop
from repro.gpu.transfer import transfer_seconds


#: The split gates' instants (emitted by ``Dispatcher.split``) and the
#: offload-decision paths a taken plan runs as; ``repro.obs.profile``
#: reads both.
PARTITION_GATE, SHARD_GATE = "pathselect.partition", "pathselect.shard"
PARTITIONED_PATH, SHARDED_PATH = "gpu-partitioned", "gpu-sharded"


class PartitionStreamState:
    """One :class:`~repro.gpu.streams.FlowShop` per device, stepped
    across partition launches.

    The dispatcher streams partitions through each device back-to-back;
    :meth:`advance` returns the launch's incremental contribution to its
    device's makespan — partition k+1's host->device copy hides under
    partition k's kernel, and only the exposed remainder is charged — so
    the per-partition cost events on one device sum exactly to that
    device's overlapped makespan.
    """

    def __init__(self) -> None:
        self._devices: dict[int, FlowShop] = {}

    def advance(self, device_id: int, h2d_seconds: float,
                kernel_seconds: float, d2h_seconds: float) -> float:
        """Feed one partition launch through its device's pipeline.

        Returns the device-resident seconds *exposed* by this launch:
        the growth of the device's overall makespan after overlapping
        the copies with neighbouring partitions' kernel slices.
        """
        shop = self._devices.get(device_id)
        if shop is None:
            shop = self._devices[device_id] = FlowShop()
        makespan = shop.d2h_free
        shop.push(h2d_seconds, kernel_seconds, d2h_seconds)
        return max(0.0, shop.d2h_free - makespan)


@dataclass(frozen=True)
class Rival:
    """An alternative a split must strictly beat: its predicted seconds
    and the phrase the refusal prints when it is not beaten."""

    label: str
    seconds: float
    refusal: str


@dataclass(frozen=True)
class SplitPlan:
    """One operator split into pieces, priced against its rivals.

    ``devices`` are the pieces' home devices — empty for a split in
    time, which is how every reader tells the two axes apart.
    ``seconds`` is the predicted wall clock of the split execution;
    ``rivals`` are what it is judged against, in order — the stock CPU
    chain in time; the same job whole on one device, then the CPU chain,
    in space.  Merge, exchange and switch-contention stall are broken
    out so EXPLAIN ANALYZE can show what each costs on its own.
    """

    operator: str
    pieces: int
    rows: int
    devices: tuple[int, ...]
    seconds: float
    rivals: tuple[Rival, ...]
    merge_seconds: float
    exchange_seconds: float = 0.0
    stall_seconds: float = 0.0
    working_set_bytes: int = 0
    capacity_bytes: int = 0
    reason: str = ""

    @property
    def path(self) -> str:
        """The offload-decision path this plan runs as."""
        return SHARDED_PATH if self.devices else PARTITIONED_PATH

    def rival_seconds(self, label: str) -> float:
        """Predicted seconds of the rival called ``label`` (0 if none)."""
        return next((r.seconds for r in self.rivals if r.label == label),
                    0.0)


@dataclass(frozen=True)
class PieceTerms:
    """An operator's own numbers at one piece count.

    ``kernel`` lists the piece's kernel-second addends; :func:`price`
    sums them onto the launch overhead in order (kept apart so every
    predicted float keeps the association it has always had).
    ``host_seconds`` and ``merge_seconds`` are wall clock
    (:meth:`~repro.blu.engine.OperatorContext.wall_seconds`).  ``reason``
    is how a split in time describes itself; one in space is described
    by its home devices.
    """

    staged_bytes: int
    result_bytes: int
    kernel: tuple[float, ...]
    host_seconds: float = 0.0
    merge_seconds: float = 0.0
    reason: str = ""


@dataclass(frozen=True)
class SplitTerms:
    """What an operator hands :func:`price`: only its own terms.

    ``piece(n)`` gives the numbers at ``n`` pieces (``piece(1)``, the
    whole job, prices the single-device rival); ``cpu_seconds`` is the
    CPU rival's wall clock; ``exchange_bytes`` is what a hash
    repartition moves between shards.  A split in time adds its
    admissibility test ``fits(n)`` and the analytic ``floor`` the search
    for the smallest admissible count starts from.
    """

    rows: int
    piece: Callable[[int], PieceTerms]
    cpu_seconds: float
    exchange_bytes: int = 0
    working_set_bytes: int = 0
    fits: Optional[Callable[[int], bool]] = None
    floor: int = 1


def groupby_working_set_bytes(rows: float, groups: float,
                              num_aggs: int) -> int:
    """Device bytes one group-by working set needs (staged + table + out).

    :func:`repro.workloads.cognos_rolap.estimate_gpu_memory_requirement`
    calls it on optimizer estimates, so the planner and the workload
    screen agree on which inputs are over-memory.
    """
    payload_bytes = 8 * max(1, num_aggs)
    staged = rows * (8 + payload_bytes)
    table = groups * 1.5 * (8 + payload_bytes)
    result = groups * (8 + payload_bytes)
    return int(staged + table + result)


def price(
    operator: str,
    terms: SplitTerms,
    spec: GpuSpec,
    *,
    capacity_bytes: int = 0,
    max_pieces: int = 0,
    device_count: int = 1,
    devices: Optional[Sequence[int]] = None,
    interconnect: Optional[Interconnect] = None,
) -> Optional[SplitPlan]:
    """Price splitting ``operator``; ``None`` when it cannot be split.

    Without ``devices`` the split is *in time*: the smallest piece count
    within ``max_pieces`` whose pieces fit a card (working sets are not
    perfectly linear in the count — the hash table's group share shrinks
    too — so it steps up from the analytic floor) streams through one
    flow shop, ``device_count`` cards draining the kernel slices
    data-parallel, the single dispatching thread paying one latency per
    device wave.  With ``devices`` it is *in space*: one piece per home
    device, each on its own flow shop with both copy legs at the switch-
    contended bandwidth (every shard's staging departs in one wave, so
    the host pays one dispatch latency), plus the exchange, with the
    whole job on one device as the first rival.  Fewer than two home
    devices, or a CPU-routed one, is no split at all.
    """
    rows = terms.rows
    overhead = spec.kernel_launch_overhead
    if devices is None:
        if rows <= 0 or capacity_bytes <= 0:
            return None
        pieces = max(1, min(terms.floor, max_pieces))
        while pieces <= max_pieces and not terms.fits(pieces):
            pieces += 1
        if pieces > max_pieces:
            return None
        homes = ()
        rivals = (Rival("cpu", terms.cpu_seconds,
                        "partitioning would not pay"),)
    else:
        homes, pieces = tuple(devices), len(devices)
        if rows <= 0 or pieces < 2 or any(d < 0 for d in homes):
            return None
        whole = terms.piece(1)
        single = transfer_seconds(whole.staged_bytes, spec) + overhead
        for addend in whole.kernel:
            single += addend
        single = (single + transfer_seconds(whole.result_bytes, spec)
                  + DISPATCH_SECONDS)
        rivals = (Rival("single-device", single,
                        "contention and merge outweigh the split"),
                  Rival("cpu", terms.cpu_seconds, "sharding would not pay"))

    own = terms.piece(pieces)
    kernel = overhead
    for addend in own.kernel:
        kernel += addend
    if homes:
        legs = interconnect.wave_legs([(d, own.staged_bytes) for d in homes])
        out_legs = interconnect.wave_legs(
            [(d, own.result_bytes) for d in homes])
        lanes = [[(leg.seconds, kernel, out.seconds)]
                 for leg, out in zip(legs, out_legs)]
        stall = sum(leg.stall_seconds for leg in legs) \
            + sum(leg.stall_seconds for leg in out_legs)
        exchange = interconnect.exchange_seconds(terms.exchange_bytes, pieces)
        waves = 1
        reason = (f"{pieces} shards of ~{-(-rows // pieces)} rows across "
                  f"devices {homes}")
    else:
        cards = max(1, device_count)
        lanes = [[(transfer_seconds(own.staged_bytes, spec), kernel / cards,
                   transfer_seconds(own.result_bytes, spec))] * pieces]
        stall = exchange = 0.0
        waves = -(-pieces // cards)
        reason = own.reason
    makespan = 0.0
    for lane in lanes:
        shop = FlowShop()
        for job in lane:
            shop.push(*job)
        makespan = max(makespan, shop.schedule().total_seconds)

    return SplitPlan(
        operator=operator,
        pieces=pieces,
        rows=rows,
        devices=homes,
        seconds=(own.host_seconds + makespan + waves * DISPATCH_SECONDS
                 + exchange + own.merge_seconds),
        rivals=rivals,
        merge_seconds=own.merge_seconds,
        exchange_seconds=exchange,
        stall_seconds=stall,
        working_set_bytes=0 if homes else terms.working_set_bytes,
        capacity_bytes=0 if homes else capacity_bytes,
        reason=reason,
    )
