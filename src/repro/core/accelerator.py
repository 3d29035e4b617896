"""Public engine: DB2 BLU on a machine that may have GPUs.

:class:`GpuAcceleratedEngine` is a :class:`repro.blu.engine.BluEngine`
that owns the simulated devices, the pinned host memory pool, the
multi-GPU scheduler, the kernel moderator and the integrated performance
monitor.  With GPUs in its config it installs the hybrid group-by / sort
/ join executors (Figures 2 and 3) in the engine's executor hooks; with
``gpus=()`` it installs none, so the stock Figure-1 chains run.  "No
GPUs" is a configuration, not a class: :func:`make_engine` builds both
arms of every section-5 ratio from one config, the baseline as the same
config with ``gpus=()``.

Typical use::

    from repro import make_engine, paper_testbed

    engine = make_engine(catalog, config=paper_testbed(), gpu=True)
    result = engine.execute_sql("SELECT ... GROUP BY ...")
    print(result.elapsed_ms, result.profile.offloaded)
    print(engine.monitor.report())
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.blu.catalog import Catalog
from repro.blu.engine import BluEngine, OperatorContext
from repro.blu.plan import PlanNode
from repro.blu.table import Table
from repro.config import SystemConfig, paper_testbed
from repro.core.dispatch import Dispatcher
from repro.core.hybrid_groupby import HybridGroupByExecutor
from repro.core.hybrid_join import HybridJoinExecutor
from repro.core.hybrid_sort import HybridSortExecutor
from repro.core.moderator import GpuModerator, LearningModerator
from repro.core.monitoring import PerformanceMonitor
from repro.core.scheduler import MultiGpuScheduler
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.policies import RetryPolicy
from repro.gpu.cache import DeviceColumnCache
from repro.gpu.device import GpuDevice, make_devices
from repro.gpu.fusion import FusedExecutor
from repro.gpu.interconnect import Interconnect
from repro.gpu.pinned import PinnedMemoryPool
from repro.gpu.shard import build_shard_map
from repro.gpu.streams import PipelineSpec
from repro.obs.export import chrome_trace, prometheus_text
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.tracing import Tracer
from repro.timing import TimedResult

_DEFAULT_PINNED_POOL = 2 * 1024**3      # registered once at start-up


class GpuAcceleratedEngine(BluEngine):
    """DB2 BLU with (or, at ``gpus=()``, without) the paper's GPUs."""

    def __init__(
        self,
        catalog: Catalog,
        config: Optional[SystemConfig] = None,
        race_kernels: bool = False,
        learning_moderator: bool = False,
        enable_join_offload: bool = False,
        pinned_pool_bytes: int = _DEFAULT_PINNED_POOL,
        default_degree: int = 48,
    ) -> None:
        self.config = config or paper_testbed()
        self.devices: list[GpuDevice] = make_devices(self.config.gpus)
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.scheduler = MultiGpuScheduler(self.devices,
                                           metrics=self.registry)
        # Flight recorder (docs/observability.md): always-on bounded
        # ring over spans, counter deltas, dispatch decisions and
        # breaker edges; accounting-only, so simulated timings are
        # byte-identical with it attached.
        self.recorder = FlightRecorder(
            capacity=self.config.recorder_capacity,
            clock=self.tracer.clock,
            metrics=self.registry,
        )
        self.recorder.attach_tracer(self.tracer)
        self.recorder.attach_registry(self.registry)
        self.recorder.attach_scheduler(self.scheduler)
        self.pinned = PinnedMemoryPool(pinned_pool_bytes)
        self.monitor = PerformanceMonitor(self.devices,
                                          registry=self.registry,
                                          tracer=self.tracer)
        # Device-resident column cache (docs/gpu_cache.md): each device
        # gets a budget carved from its memory as per-entry ``cache``
        # reservations; 0 disables and restores ship-every-launch.
        fraction = self.config.cache_fraction
        if not 0.0 <= fraction < 1.0:
            raise ValueError(
                f"cache_fraction must be in [0, 1), got {fraction}")
        if fraction > 0.0:
            for device in self.devices:
                device.cache = DeviceColumnCache(
                    device.memory,
                    budget_bytes=int(device.memory.capacity * fraction),
                    device_id=device.device_id,
                    tracer=self.tracer,
                    metrics=self.registry,
                )
        # Stream pipeline (docs/gpu_streams.md): every first-touch launch
        # chunks its staged input so PCIe copies overlap kernel slices;
        # depth 1 keeps the serial launch path byte-identically.
        self.pipeline = PipelineSpec(
            depth=self.config.pipeline_depth,
            chunk_bytes=self.config.chunk_bytes,
        ).validate()
        # Fault injection (docs/fault_injection.md): the config's plan; an
        # empty plan disarms.  Without GPUs it is inert: every fault site
        # is a device or pinned-pool seam the stock chains never reach.
        plan = self.config.faults
        self.faults: Optional[FaultPlan] = (
            plan if plan is not None and plan.active else None)
        self.injector: Optional[FaultInjector] = None
        self.scheduler.tracer = self.tracer
        if self.faults is not None:
            self.injector = FaultInjector(self.faults,
                                          metrics=self.registry,
                                          tracer=self.tracer)
            for device in self.devices:
                device.attach_injector(self.injector)
            self.pinned.injector = self.injector
            # §2.1.1 option 1 ("wait until the resources become free"):
            # transient reservation failures retry with backoff before the
            # executors take option 2, the CPU fallback.
            self.scheduler.retry_policy = RetryPolicy()
        # Scale-out sharding (docs/scale_out.md): the modelled PCIe/NVLink
        # interconnect prices and accounts every sharded transfer wave;
        # when sharding is on, each fact table (T1-or-larger) gets a
        # catalog shard map over the healthy devices — versioned like
        # DDL, so registering or rebalancing one invalidates the
        # device column cache.
        self.interconnect = Interconnect.from_config(self.config,
                                                     metrics=self.registry)
        if self.config.shard_enabled:
            healthy = self.scheduler.healthy_device_ids()
            if len(healthy) >= 2:
                for name in catalog.table_names():
                    table = catalog.table(name)
                    if table.num_rows >= self.config.thresholds.t1_min_rows:
                        catalog.register_shard_map(
                            build_shard_map(name, healthy))
        # One dispatch site (docs/architecture.md): leases, staging,
        # fault policy, decision records and the "should this operator
        # split?" question (which reads the partition / shard knobs off
        # the config) have a single owner, shared by every executor
        # below.
        self.dispatch = Dispatcher(
            scheduler=self.scheduler,
            pinned=self.pinned,
            monitor=self.monitor,
            catalog=catalog,
            pipeline=self.pipeline,
            interconnect=self.interconnect,
            rebalance=self._rebalance_shards,
        )
        super().__init__(catalog, config=self.config,
                         default_degree=default_degree, tracer=self.tracer)
        self.moderator: Optional[GpuModerator] = None
        if self.devices:
            self._install_hybrid_executors(
                race_kernels, learning_moderator, enable_join_offload)

    def _install_hybrid_executors(self, race_kernels: bool,
                                  learning_moderator: bool,
                                  enable_join_offload: bool) -> None:
        """Put the hybrid executors (Figures 2 and 3) in the engine's
        hooks.  The moderator and fusion's estimate read ``config.gpus[0]``,
        so a config without GPUs gets none and keeps the stock Figure-1
        chains :class:`BluEngine` installed."""
        kind = LearningModerator if learning_moderator else GpuModerator
        self.moderator = kind(self.config.cost, self.config.thresholds,
                              smx_count=self.config.gpus[0].smx_count)
        self.moderator.tracer = self.tracer
        thresholds = self.config.thresholds
        self.groupby_executor = HybridGroupByExecutor(
            dispatch=self.dispatch,
            moderator=self.moderator,
            thresholds=thresholds,
            race_kernels=race_kernels,
        )
        self.sort_executor = HybridSortExecutor(dispatch=self.dispatch,
                                                thresholds=thresholds)
        if enable_join_offload:
            self.join_executor = HybridJoinExecutor(dispatch=self.dispatch,
                                                    thresholds=thresholds)
        # Fused data path (docs/fusion.md): recognised filter->join->
        # group-by chains run as one device launch; every failure (and a
        # declined decision) falls back to the per-operator executors
        # above, so fusion_enabled=False and fusion-degraded runs are
        # bit-identical to this engine's stock routing.
        if self.config.fusion_enabled:
            self.fused_executor = FusedExecutor(groupby=self.groupby_executor,
                                                join=self.join_executor)
        self.rank_order_executor = self._route_rank_order

    def _rebalance_shards(self, lost_device_ids: list) -> None:
        """Rewrite every registered shard map after device loss.

        Executors call this once a shard reroute observes a dead home
        device.  Each map drops the lost devices and re-registers, which
        bumps the catalog version — the same invalidation path as DDL —
        so cached shard segments keyed on the old placement die with it.
        """
        catalog = self.catalog
        for shard_map in list(catalog.shard_maps()):
            rebalanced = shard_map
            for device_id in lost_device_ids:
                rebalanced = rebalanced.without_device(device_id)
            if rebalanced.devices != shard_map.devices:
                catalog.register_shard_map(rebalanced)
        self.tracer.instant(
            "shard.rebalance", lost=list(lost_device_ids),
            maps=len(catalog.shard_maps()),
            catalog_version=catalog.version,
        )

    def _route_rank_order(self, table: Table, keys, ctx: OperatorContext):
        # The sort RANK() drives rides the hybrid sort's offload path.  A
        # bound ``self.sort_executor.rank_order`` would miss a wrapper
        # installed on the class later; the other hooks need no such
        # route, as ``__call__`` is looked up on the type at every call.
        return self.sort_executor.rank_order(table, keys, ctx)

    def execute_plan(self, plan: PlanNode, query_id: Optional[str] = None,
                     degree: Optional[int] = None) -> TimedResult:
        """:meth:`BluEngine.execute_plan`, with the query id threaded
        through the offload decisions and the profile kept by the
        monitor.  ``execute_sql`` reaches it through the base class."""
        self.dispatch.query_id = query_id or ""
        result = super().execute_plan(plan, query_id=query_id, degree=degree)
        self.monitor.record_profile(result.profile)
        return result

    def explain_decisions(self, sql: str, degree: Optional[int] = None) -> str:
        """Run ``sql`` and render the plan, the offload decisions the hybrid
        executors took, and the per-event cost trace — the paper's
        monitoring view for a single query."""
        plan_text = self.explain_sql(sql)
        result, profile = self.profile_sql(sql, query_id="explain",
                                           degree=degree)
        lines = ["== plan ==", plan_text, "", "== offload decisions =="]
        if not profile.decisions:
            lines.append("(none — no offloadable operators)")
        for d in profile.decisions:
            kernel = f" kernel={d.kernel}" if d.kernel else ""
            device = f" device={d.device_id}" if d.device_id >= 0 else ""
            lines.append(f"{d.operator:8} -> {d.path:{16}}{kernel}{device}"
                         f"  ({d.reason})")
        lines.append("")
        lines.append("== cost trace ==")
        for e in result.profile.events:
            gpu = (f"  gpu={e.gpu_seconds * 1e3:.3f}ms "
                   f"mem={e.gpu_memory_bytes / 1e6:.2f}MB "
                   f"dev={e.device_id}") if e.uses_gpu else ""
            lines.append(f"{e.op:12} rows={e.rows:>9} "
                         f"cpu={e.cpu_seconds * 1e3:8.3f}ms-core "
                         f"deg={e.max_degree:>3}{gpu}")
        lines.append("")
        lines.append(f"elapsed: {result.elapsed_ms:.3f} simulated ms "
                     f"(offloaded: {result.profile.offloaded})")
        return "\n".join(lines)

    def profile_sql(self, sql: str, query_id: str = "profile",
                    degree: Optional[int] = None):
        """Run ``sql`` and build its attributed EXPLAIN ANALYZE profile.

        Returns ``(result, profile)`` where ``profile`` is a
        :class:`repro.obs.profile.QueryProfile` over the query's span
        tree, offload decisions included.
        """
        from repro.obs.profile import build_profile

        result = self.execute_sql(sql, query_id=query_id, degree=degree)
        return result, build_profile(self.tracer, query_id=query_id)

    def explain_analyze(self, sql: str, query_id: str = "profile",
                        degree: Optional[int] = None) -> str:
        """The EXPLAIN ANALYZE text report for one query."""
        _result, profile = self.profile_sql(sql, query_id=query_id,
                                            degree=degree)
        return profile.to_text()

    # ------------------------------------------------------------------
    # Observability exports
    # ------------------------------------------------------------------

    def cache_stats(self) -> list[dict]:
        """Per-device column-cache counters (empty when caching is off)."""
        return [
            device.cache.stats()
            for device in self.devices
            if device.cache is not None
        ]

    def stats_snapshot(self) -> dict:
        """One JSON-ready engine health snapshot for every CLI surface.

        ``repro monitor --json`` and ``repro cache-stats --json`` both
        render from this dict, so the commands cannot
        drift apart on which counters they expose.  ``counters``
        flattens every counter/gauge series to a Prometheus-style
        ``name{label=value}`` key; ``pipeline`` breaks out per-device
        stream-overlap savings; ``cache`` is :meth:`cache_stats`;
        ``interconnect`` is the per-link bytes/busy/stall totals from
        the modelled PCIe/NVLink topology (docs/scale_out.md).
        """
        counters: dict[str, float] = {}
        for metric in self.registry.collect():
            if not isinstance(metric, (Counter, Gauge)):
                continue
            for labels, value in metric.samples():
                if labels:
                    body = ",".join(f"{k}={v}" for k, v in labels.items())
                    key = f"{metric.name}{{{body}}}"
                else:
                    key = metric.name
                counters[key] = value
        pipeline: dict[str, float] = {}
        overlap = self.registry.get("repro_overlap_saved_seconds_total")
        if overlap is not None:
            for labels, value in overlap.samples():
                pipeline[str(labels.get("device", "?"))] = value
        return {
            "queries": len(self.monitor.profiles),
            "counters": counters,
            "cache": self.cache_stats(),
            "pipeline": pipeline,
            "interconnect": self.interconnect.snapshot(),
            "devices": [
                {
                    "device_id": device.device_id,
                    "memory_capacity": device.memory.capacity,
                    "memory_reserved": device.memory.reserved,
                    "memory_peak_reserved": device.memory.peak_reserved,
                }
                for device in self.devices
            ],
            "quarantined": self.scheduler.quarantined_devices(),
        }

    def dump_flight_record(self, out_dir: str = ".",
                           stem: str = "flight_record") -> dict:
        """Snapshot the flight recorder and write JSONL + HTML files.

        Returns ``{"jsonl": path, "html": path, "events": n,
        "dropped": n}``; feed the JSONL path to ``repro postmortem``
        for the correlated causal-timeline report.
        """
        snap = self.recorder.snapshot(trigger="manual")
        jsonl = snap.write_jsonl(f"{out_dir}/{stem}.jsonl")
        html = snap.write_html(f"{out_dir}/{stem}.html")
        return {
            "jsonl": jsonl,
            "html": html,
            "events": len(snap.events),
            "dropped": snap.dropped,
        }

    def chrome_trace(self) -> dict:
        """Every span recorded so far as Chrome trace-event JSON."""
        return chrome_trace(self.tracer.spans)

    def prometheus(self) -> str:
        """The metrics registry in Prometheus text exposition format."""
        return prometheus_text(self.registry)


def make_engine(catalog: Catalog, config: Optional[SystemConfig] = None,
                gpu: bool = True, **kwargs) -> GpuAcceleratedEngine:
    """The engine for ``config``, or for the same machine without its GPUs.

    ``gpu=False`` is ``config`` with ``gpus=()``: stock DB2 BLU on the
    caller's host, cost model and thresholds, so both arms of a GPU-on /
    GPU-off ratio differ in nothing but the devices.
    """
    config = config or paper_testbed()
    return GpuAcceleratedEngine(
        catalog, config if gpu else dataclasses.replace(config, gpus=()),
        **kwargs)
