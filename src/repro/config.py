"""Hardware presets and cost-model calibration constants.

The paper's testbed is an IBM Power S824 (2 sockets, 24 cores at 3.92 GHz,
SMT-4 for 96 hardware threads, 512 GB RAM) with two NVIDIA Tesla K40 cards
(2880 CUDA cores, 12 GB GDDR5 each) attached over PCIe gen3.  We have no such
hardware, so every timing in this repository is *simulated*: operators and
kernels compute real results on numpy arrays and report durations derived
from the constants below.

All constants live here — and only here — so that the calibration that maps
our laptop-scale datasets onto the paper's reported shapes is auditable in
one place.  Rates are expressed per *row* or per *byte* so they scale with
the synthetic data volumes the workload generators produce.

Units: time in seconds (floats), sizes in bytes, rates in units/second.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional

if TYPE_CHECKING:   # runtime import would cycle: faults -> obs -> sim -> here
    from repro.faults.plan import FaultPlan


# ---------------------------------------------------------------------------
# Host machine model (IBM Power S824 analogue)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HostSpec:
    """CPU-side machine description used by the processor-sharing simulator."""

    name: str = "IBM Power S824 (simulated)"
    sockets: int = 2
    cores: int = 24
    smt: int = 4
    clock_ghz: float = 3.92
    ram_bytes: int = 512 * 1024**3
    # SMT scaling: running more threads than cores helps, with sharply
    # diminishing returns (calibrated against Table 3's degree sweep, where
    # degree 48 beats 24 by ~45% and 64 beats 48 by only ~8%).
    smt_efficiency: float = 0.6
    smt_decay: float = 30.0

    @property
    def hardware_threads(self) -> int:
        return self.cores * self.smt

    def effective_capacity(self, threads: int) -> float:
        """Core-equivalents delivered by ``threads`` software threads."""
        threads = max(0, min(threads, self.hardware_threads))
        if threads <= self.cores:
            return float(threads)
        extra = threads - self.cores
        bonus = self.smt_efficiency * (1.0 - math.exp(-extra / self.smt_decay))
        return self.cores * (1.0 + bonus)


# ---------------------------------------------------------------------------
# GPU device model (NVIDIA Tesla K40 analogue)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GpuSpec:
    """Static description of one simulated CUDA device.

    The shared-memory/L1 split is configurable per kernel launch exactly as
    on Kepler (section 4.3.2 configures 48 KB shared / 16 KB L1).
    """

    name: str = "NVIDIA Tesla K40 (simulated)"
    cuda_cores: int = 2880
    smx_count: int = 15
    shared_mem_per_smx: int = 64 * 1024
    device_memory_bytes: int = 12 * 1024**3
    max_concurrent_kernels: int = 32
    # PCIe gen3 x16 effective bandwidths (section 2.1.2: pinned transfers are
    # "more than 4X faster" than unpinned).
    pcie_pinned_bw: float = 12.0e9
    pcie_unpinned_bw: float = 2.8e9
    kernel_launch_overhead: float = 20e-6
    transfer_setup_overhead: float = 15e-6


# ---------------------------------------------------------------------------
# Cost model calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Throughput constants for the analytic timing model.

    CPU rates are per core; the engine divides work across the degree of
    parallelism it is granted and the simulator's processor-sharing pool
    decides how many cores a query actually receives.  GPU rates are for the
    whole device (the kernels internally model SMX occupancy and atomic
    contention on top of these base rates).
    """

    # --- CPU per-core rates (rows/second) -------------------------------
    cpu_scan_rate: float = 60e6            # predicate evaluation over a column
    cpu_decode_rate: float = 120e6         # dictionary decode / load
    cpu_hash_rate: float = 45e6            # hashing grouping keys
    cpu_groupby_rate: float = 7e6          # local hash table build (LGHT)
    cpu_merge_rate: float = 25e6           # merging local hash tables (per group)
    cpu_join_build_rate: float = 16e6      # hash-join build side
    cpu_join_probe_rate: float = 28e6      # probe side, build table in cache
    cpu_join_probe_rate_uncached: float = 9e6   # build table misses LLC
    cpu_cache_bytes: int = 32 * 1024 * 1024     # last-level cache per socket
    cpu_sort_rate: float = 6e6             # comparison sort, rows * log2(rows) factor applied
    cpu_partialkey_rate: float = 80e6      # generating 4-byte partial keys
    cpu_memcpy_rate: float = 4.5e9         # bytes/s, copy into pinned staging
    cpu_aggregate_rate_per_fn: float = 25e6  # per aggregation evaluator

    # --- GPU whole-device rates -----------------------------------------
    gpu_ht_insert_rate: float = 900e6      # hash-table insert probes/second
    gpu_ht_probe_rate: float = 4000e6      # read-only probe lookups/second
    gpu_atomic_agg_rate: float = 1600e6    # device-global atomic updates/second
    gpu_lock_agg_rate: float = 5e9         # plain updates under a held row lock
    gpu_lock_acquire_cost: float = 2.5e-9  # seconds per lock acquire/release pair
    gpu_shared_insert_rate: float = 2600e6 # shared-memory hash inserts/second
    gpu_shared_merge_rate: float = 700e6   # shared->global merge entries/second
    gpu_radix_sort_rate: float = 550e6     # 4-byte keys/second (Merrill radix)
    gpu_init_rate: float = 80e9            # bytes/s hash-table mask initialisation
    gpu_scan_rate: float = 2500e6          # rows/s for on-device scans
    # Decode and gather stream straight out of device memory (no predicate
    # evaluation), so they run at memory-bandwidth-bound value rates: BLU
    # bit-unpacking reads packed words sequentially; a join gather is
    # random access at a fraction of the sequential rate.
    gpu_decode_rate: float = 9e9           # values/s on-device BLU decode
    gpu_gather_rate: float = 8e9           # values/s random gather

    # --- contention model ------------------------------------------------
    atomic_contention_base: float = 1.0    # multiplier floor
    atomic_contention_slope: float = 0.08  # grows with rows/groups ratio (log scale)

    # --- CPU sort --------------------------------------------------------
    cpu_sort_job_threshold: int = 4096     # below this, sort jobs stay on CPU


@dataclass(frozen=True)
class Thresholds:
    """Path-selection thresholds of Figure 3 (section 4.1).

    T1: minimum input rows (and groups) for GPU offload to pay for itself.
    T2: minimum estimated groups for the GPU path.
    T3: maximum input rows before the working set no longer fits in device
        memory and the query is processed on the CPU (the paper's current
        prototype does not partition oversized group-bys).
    """

    t1_min_rows: int = 100_000
    t2_min_groups: int = 8
    t3_max_rows: int = 60_000_000
    sort_min_rows: int = 100_000
    small_groups_kernel_max_groups: int = 1024
    many_aggs_threshold: int = 5
    low_contention_ratio: float = 4.0


@dataclass(frozen=True)
class SystemConfig:
    """Complete simulated-system description: host + GPUs + calibration.

    ``faults`` optionally attaches a :class:`repro.faults.plan.FaultPlan`;
    when set, the accelerated engine arms a fault injector over the GPU
    substrate and enables the recovery policies (reservation retry,
    circuit breaker) described in ``docs/fault_injection.md``.

    ``cache_fraction`` carves that share of each device's memory out as
    the budget for the device-resident column cache
    (:mod:`repro.gpu.cache`, ``docs/gpu_cache.md``).  ``0.0`` disables
    caching entirely and restores the ship-every-launch transfer
    behaviour of the paper's prototype.

    ``pipeline_depth``/``chunk_bytes`` configure the stream pipeline
    (:mod:`repro.gpu.streams`, ``docs/gpu_streams.md``): a launch's
    staged input is split into at least ``pipeline_depth`` chunks of at
    most ``chunk_bytes`` each so host->device copies, kernel slices and
    device->host copies of neighbouring chunks overlap on the K40's
    separate compute and DMA engines.  ``pipeline_depth=1`` disables
    pipelining and reproduces the serial launch timings byte-identically.

    ``fusion_enabled`` turns on the fused GPU data path
    (:mod:`repro.gpu.fusion`, ``docs/fusion.md``): eligible
    filter->join->group-by chains execute as a *single* device launch
    with intermediate results resident on-device, instead of one launch
    (or CPU operator) per plan node.  ``False`` restores the strictly
    per-operator execution of the paper's prototype; results are
    bit-identical either way.

    ``partition_enabled`` turns on out-of-core partitioned execution
    (:mod:`repro.gpu.partition`, ``docs/out_of_core.md``): sorts and
    group-bys whose working sets exceed device memory — the Figure-3 T3
    verdict — split into device-sized partitions that stream through the
    cards on the three-engine pipeline and merge on the host, instead of
    falling back to the CPU chain.  ``False`` restores the paper's
    behaviour ("all of the large queries are processed in the CPU");
    results are bit-identical either way.  ``max_partitions`` caps how
    finely one operator may split — the planner declines (keeping the
    CPU fallback) when even that many partitions cannot fit the card.

    ``shard_enabled`` turns on sharded N-device execution
    (:mod:`repro.gpu.shard`, ``docs/scale_out.md``): a single group-by,
    join probe or sort splits across every healthy device along the
    catalog's shard map, each shard runs its own flow-shop pipeline on
    its home device, and an exchange + merge step (PR 9's renumber-merge
    / k-way stable merge) reassembles a byte-identical result.  ``False``
    (the default) keeps the paper's whole-job dispatch; every committed
    baseline outside ``BENCH_scale_out.json`` runs with sharding off.

    ``switch_bandwidth``/``nvlink_enabled``/``nvlink_bandwidth`` describe
    the interconnect topology (:mod:`repro.gpu.interconnect`): every
    device owns a PCIe gen3 x16 link into one shared switch whose uplink
    caps aggregate host bandwidth, so overlapping H2D/D2H waves contend;
    NVLink-class peer-to-peer (off by default, matching the K40 era)
    lets the sharded exchange bypass the host entirely.
    """

    host: HostSpec = field(default_factory=HostSpec)
    gpus: tuple[GpuSpec, ...] = field(default_factory=lambda: (GpuSpec(), GpuSpec()))
    cost: CostModel = field(default_factory=CostModel)
    thresholds: Thresholds = field(default_factory=Thresholds)
    faults: Optional["FaultPlan"] = None
    cache_fraction: float = 0.25
    pipeline_depth: int = 4
    chunk_bytes: int = 1 << 20
    fusion_enabled: bool = True
    partition_enabled: bool = True
    max_partitions: int = 64
    shard_enabled: bool = False
    #: Aggregate bandwidth (bytes/s) of the PCIe switch uplink shared by
    #: every device link; overlapping transfers divide it.
    switch_bandwidth: float = 48.0e9
    nvlink_enabled: bool = False
    #: Per-direction NVLink-class peer-to-peer bandwidth (bytes/s) used
    #: by the sharded exchange when ``nvlink_enabled`` is set.
    nvlink_bandwidth: float = 40.0e9
    #: Flight-recorder ring capacity in events (``repro.obs.recorder``,
    #: ``docs/observability.md``).  The recorder is accounting-only — it
    #: never advances simulated time — so this knob bounds host memory,
    #: not performance.
    recorder_capacity: int = 8192

    @property
    def gpu_count(self) -> int:
        return len(self.gpus)


# ---------------------------------------------------------------------------
# Execution knobs, as data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Knob:
    """One execution knob: everything any surface needs to know about it.

    ``key`` is the :class:`SystemConfig` field, the top-level key of a
    ``BENCH_*`` document and the argparse ``dest``; ``flag`` is the CLI
    spelling; ``parse`` / ``render`` convert between CLI text and the
    value (``parse(render(v)) == v``); ``off`` is the value at which the
    extension does not run at all — the paper's prototype — where one
    exists.  ``title`` is the knob's fragment of the ``repro bench``
    heading.  ``scale_out`` rows describe the N-device sweep and appear
    only on ``scale_out`` documents; ``device_counts`` is the one row
    that is a property of the sweep rather than a ``SystemConfig`` field,
    so it is never applied to, or read off, a config.
    """

    key: str
    flag: str
    parse: Callable[[str], Any]
    render: Callable[[Any], str]
    help: str
    metavar: Optional[str] = None
    off: Any = None
    title: str = ""
    scale_out: bool = False


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise ValueError(f"expected on or off, got {text!r}")
    return text == "on"


def _render_on_off(value: bool) -> str:
    return "on" if value else "off"


def _switch(flag: str, key: str, help: str, **row) -> Knob:
    """An on/off row (off is always the prototype's value)."""
    return Knob(key, flag, _on_off, _render_on_off, help,
                metavar="{on,off}", off=False, **row)


#: The knob table.  argparse registration, adopt-from-baseline, applying
#: to a config, a document's config identity, the mismatch hint and the
#: bench heading all iterate it: adding a knob is adding a row here
#: (plus the engine code that reads the ``SystemConfig`` field).
KNOBS: dict[str, Knob] = {row.key: row for row in (
    Knob("cache_fraction", "--cache-fraction", float, str,
         "device column-cache budget as a fraction of device memory "
         "(0 disables)", metavar="F", off=0.0, title=" cache={}"),
    Knob("pipeline_depth", "--pipeline-depth", int, str,
         "stream-pipeline chunks per launch (1 disables transfer/compute "
         "overlap)", metavar="N", off=1, title=" pipeline={}"),
    Knob("chunk_bytes", "--chunk-bytes", int, str,
         "max bytes per pipelined chunk", metavar="B", title="x{}B"),
    _switch("--fusion", "fusion_enabled",
            "fuse filter/join/group-by chains into one kernel launch",
            title=" fusion={}"),
    _switch("--partition", "partition_enabled",
            "out-of-core partitioned execution of over-memory "
            "sorts/group-bys (off restores the paper's T3 CPU fallback)",
            title=" partition={}"),
    Knob("max_partitions", "--max-partitions", int, str,
         "cap on how finely one over-memory operator may split"),
    Knob("device_counts", "--devices",
         lambda text: [int(n) for n in text.split(",")],
         lambda counts: ",".join(str(n) for n in counts),
         "scale_out only: device counts to sweep (default 1,2,4,8)",
         metavar="N,N,...", scale_out=True),
    _switch("--shard", "shard_enabled",
            "scale_out only: shard fact tables across the devices "
            "(default on; off measures the whole-job dispatch rival)",
            title="shard={}", scale_out=True),
    _switch("--nvlink", "nvlink_enabled",
            "scale_out only: NVLink-class peer-to-peer exchange instead "
            "of the host bounce (default on)",
            title=" nvlink={}", scale_out=True),
    Knob("switch_bandwidth", "--switch-bandwidth", float, "{:g}".format,
         "scale_out only: shared PCIe switch uplink bytes/s (the "
         "committed baseline uses 96e9 — a gen4-class switch)",
         metavar="B", title=" switch={} B/s", scale_out=True),
)}


def register_knobs(parser, keys: Optional[Iterable[str]] = None) -> None:
    """Add one ``default=None`` argparse option per knob row (unset means
    "the config's value, or the baseline's on ``--compare``")."""
    for row in map(KNOBS.get, KNOBS if keys is None else keys):
        parser.add_argument(row.flag, dest=row.key, type=row.parse,
                            default=None, metavar=row.metavar,
                            help=row.help)


def chosen_knobs(args, baseline: Optional[Mapping] = None) -> dict:
    """The knob values a run is pinned to: what the CLI set, else what
    the baseline being compared against recorded — a deterministic
    simulation is only comparable at the baseline's exact configuration.
    """
    chosen = {}
    for row in KNOBS.values():
        value = getattr(args, row.key, None)
        if value is None and baseline is not None:
            value = baseline.get(row.key)
        if value is not None:
            chosen[row.key] = value
    return chosen


def apply_knobs(config: SystemConfig, values: Mapping) -> SystemConfig:
    """``config`` with every ``SystemConfig`` knob in ``values`` set."""
    return dataclasses.replace(config, **{
        key: value for key, value in values.items()
        if key in SystemConfig.__dataclass_fields__})


def knob_values(config: SystemConfig, scale_out: bool = False) -> dict:
    """The config identity a ``BENCH_*`` document records: one entry per
    knob row that is a config field (``scale_out`` rows on request)."""
    return {row.key: getattr(config, row.key) for row in KNOBS.values()
            if hasattr(config, row.key) and (scale_out or not row.scale_out)}


def knob_title(values: Mapping, scale_out: bool = False) -> str:
    """The heading fragments of the ``scale_out`` (or other) rows."""
    return "".join(row.title.format(row.render(values[row.key]))
                   for row in KNOBS.values()
                   if row.title and row.scale_out == scale_out)


def paper_testbed() -> SystemConfig:
    """The configuration of section 5: S824 + 2x K40."""
    return SystemConfig()


def paper_prototype() -> SystemConfig:
    """The section-5 testbed running only what the paper's prototype ran:
    every knob row at its ``off`` value — no column cache, no stream
    pipeline, no fusion, no out-of-core partitioning, no sharding, no
    peer-to-peer exchange.  What "every extension off" means is defined
    here and nowhere else."""
    return apply_knobs(SystemConfig(), {
        row.key: row.off for row in KNOBS.values()
        if row.off is not None})


def single_gpu_testbed() -> SystemConfig:
    """Same host with a single K40 (used by ablation benches)."""
    return SystemConfig(gpus=(GpuSpec(),))


def cpu_only_testbed() -> SystemConfig:
    """Baseline DB2 BLU configuration: no GPUs installed."""
    return SystemConfig(gpus=())


def chaos_testbed(plan: Optional["FaultPlan"] = None) -> SystemConfig:
    """The paper testbed under a lossy fault plan (chaos-run default)."""
    from repro.faults.plan import FaultPlan

    return SystemConfig(faults=plan or FaultPlan.lossy())
