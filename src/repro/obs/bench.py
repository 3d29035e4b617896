"""Benchmark baselines and the regression gate (``repro bench``).

The ROADMAP's goal — "as fast as the simulated hardware allows" — is
unenforceable without a committed trajectory.  This harness wraps
:class:`repro.workloads.driver.WorkloadDriver` to run the named query
classes of one workload, reduces each class to per-class p50/p95
simulated latency, bytes moved over PCIe, and GPU-offload ratio, and
writes the result as a ``BENCH_<workload>.json`` baseline.  Because the
whole engine runs on simulated time, a clean re-run reproduces the
baseline *exactly*; any drift is a real behaviour change, and
``repro bench --compare`` turns drift beyond a configurable tolerance
into a non-zero exit for CI.

Baselines live in ``benchmarks/baselines/`` and are updated on purpose
(see ``docs/api.md`` for the workflow), never silently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from repro.config import KNOBS, apply_knobs, knob_values
from repro.gpu.partition import PARTITIONED_PATH
from repro.obs.baseline import (
    LOWER,
    BenchError,
    Comparison,
    Document,
    _relative_delta,
    compare,
    row_dict,
)
from repro.obs.hist import StreamingHistogram
from repro.workloads.bdinsights import queries_by_category
from repro.workloads.cognos_rolap import screen_queries
from repro.workloads.datagen import generate_database, scaled_config
from repro.workloads.driver import WorkloadDriver
from repro.workloads.query import QueryCategory, WorkloadQuery

#: Baseline file schema version (bump when the JSON shape changes).
BASELINE_FORMAT = 1

#: Workloads the harness knows how to enumerate.  ``over_memory`` is the
#: out-of-core class: the Cognos ROLAP queries whose working sets exceed
#: simulated device memory — the Figure-3 T3 verdict — which the
#: partition planner (``repro.gpu.partition``) must keep on the GPU.
#: ``scale_out`` is the N-device sweep: the BD Insights complex class at
#: 1/2/4/8 simulated devices with sharded execution on, one class per
#: device count (:func:`run_scale_out`; ``docs/scale_out.md``).
WORKLOADS = ("bd_insights", "cognos_rolap", "over_memory", "scale_out")

#: Device counts the ``scale_out`` sweep runs, smallest first.  The
#: 1-device run is the speedup denominator CI gates against.
SCALE_OUT_DEVICES = (1, 2, 4, 8)

#: Default committed-baseline location for a workload.
BASELINE_DIR = os.path.join("benchmarks", "baselines")


def baseline_path(workload: str, directory: str = BASELINE_DIR) -> str:
    """``benchmarks/baselines/BENCH_<workload>.json``."""
    return os.path.join(directory, f"BENCH_{workload}.json")


def workload_classes(
    workload: str, driver: WorkloadDriver,
    classes: Optional[Sequence[str]] = None,
) -> dict[str, list[WorkloadQuery]]:
    """The named query classes of ``workload``, in a stable order,
    restricted to ``classes`` when given — the one class filter behind
    ``bench`` and ``serve-bench``.

    ``cognos_rolap`` is pre-screened against the driver's GPU engine the
    way section 5.1.2 screened against the K40's memory: only the
    queries that fit the device participate.
    """
    if workload == "bd_insights":
        available = {
            category.value: queries_by_category(category)
            for category in (QueryCategory.SIMPLE, QueryCategory.INTERMEDIATE,
                             QueryCategory.COMPLEX)
        }
    elif workload in ("cognos_rolap", "over_memory"):
        runnable, oversized = screen_queries(driver.gpu_engine)
        available = ({"rolap": runnable} if workload == "cognos_rolap"
                     else {"over_memory": oversized})
    elif workload == "scale_out":
        raise BenchError(
            "scale_out builds one engine per device count; run it via "
            "run_scale_out(), not run_workload()")
    else:
        raise BenchError(
            f"unknown workload {workload!r} (expected one of {WORKLOADS})")
    unknown = [c for c in classes or () if c not in available]
    if unknown:
        raise BenchError(
            f"unknown class(es) {unknown} for {workload!r}; "
            f"available: {sorted(available)}")
    return {name: queries for name, queries in available.items()
            if not classes or name in classes}


def percentile(values: Sequence[float], q: float) -> float:
    """Bucketed nearest-rank percentile, deterministic and order-free.

    Routed through :class:`repro.obs.hist.StreamingHistogram` so the
    serial bench path and the serving sweep report percentiles from the
    *same* bucketed estimator: the result is the upper bound of the
    log-spaced bucket holding the rank-``q`` sample (within 1% of the
    exact sample value), identical no matter how many values stream in
    or in what order.
    """
    if not values:
        return 0.0
    hist = StreamingHistogram()
    hist.observe_many(values)
    return hist.quantile(q)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryStat:
    """One query's benchmark measurement."""

    query_id: str
    cls: str
    elapsed_ms: float
    offloaded: bool
    bytes_moved: int
    checksum: str = ""
    kernel_launches: int = 0

    def to_dict(self) -> dict:
        return {"class": self.cls,
                **row_dict(self, drop=("query_id", "cls"))}


@dataclass(frozen=True)
class ClassStat:
    """Per-class aggregate: the numbers the regression gate judges."""

    cls: str
    queries: int
    p50_ms: float
    p95_ms: float
    total_ms: float
    bytes_moved: int
    gpu_offload_ratio: float
    kernel_launches: int = 0

    def to_dict(self) -> dict:
        return row_dict(self, drop=("cls",))


@dataclass
class BenchResult(Document):
    """One full harness run over a workload's classes.

    As a :class:`~repro.obs.baseline.Document` family: latency moves on
    p50 and p95 fail in both directions; bytes-moved growth and
    offload-ratio drops are warnings — they often *explain* a latency
    failure but can legitimately move when thresholds are retuned;
    result checksums must match exactly when both sides carry them — a
    perf knob is never allowed to change an answer.
    """

    missing = ("no baseline at {path} — run `repro bench <workload> "
               "--update` and commit the file")
    rows = "classes"
    count = ("queries", "query")
    metrics = {"p50_ms": LOWER, "p95_ms": LOWER}
    regressed = ("regressed {pct:.1f}% ({ref:.3f} -> {value:.3f} ms, "
                 "tolerance {tol:.0f}%)")
    improved = ("improved {pct:.1f}% ({ref:.3f} -> {value:.3f} ms, "
                "tolerance {tol:.0f}%) — baseline is stale; run "
                "`repro bench {workload} --update` and commit the "
                "refreshed file")
    knob_flags = True

    workload: str
    scale: float
    seed: int
    degree: int
    #: Knob key -> value (:func:`repro.config.knob_values`): the run's
    #: config identity, serialised at the document's top level.  The
    #: scale-out rows appear only on ``scale_out`` runs, so every other
    #: baseline's byte-frozen JSON shape is untouched.
    config: dict = field(default_factory=dict)
    classes: dict[str, ClassStat] = field(default_factory=dict)
    queries: dict[str, QueryStat] = field(default_factory=dict)
    #: Attributed per-query profile dumps (``QueryProfile.to_dict``).
    #: Deliberately NOT part of :meth:`to_dict` — the BENCH_* baseline
    #: format is byte-frozen; these go to the PROFILE_* sidecar that
    #: ``repro bench --update`` writes next to it (see repro.obs.diff).
    profiles: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "format": BASELINE_FORMAT,
            "workload": self.workload,
            "scale": self.scale,
            "seed": self.seed,
            "degree": self.degree,
            **self.config,
            "classes": {name: stat.to_dict()
                        for name, stat in sorted(self.classes.items())},
            "queries": {qid: stat.to_dict()
                        for qid, stat in sorted(self.queries.items())},
        }

    @staticmethod
    def row_warnings(label: str, row: dict, base: dict,
                     tolerance: float) -> list[str]:
        warnings = []
        ref_bytes = int(base.get("bytes_moved", 0))
        if _relative_delta(row["bytes_moved"], ref_bytes) > tolerance:
            warnings.append(f"{label}: bytes moved grew {ref_bytes} -> "
                            f"{row['bytes_moved']}")
        ref_ratio = float(base.get("gpu_offload_ratio", 0.0))
        if row["gpu_offload_ratio"] < ref_ratio - 1e-9:
            warnings.append(
                f"{label}: GPU-offload ratio dropped {ref_ratio:.3f} -> "
                f"{row['gpu_offload_ratio']:.3f}")
        return warnings

    def finish(self, out: Comparison, baseline: dict,
               tolerance: float) -> None:
        base_queries = baseline.get("queries", {})
        for qid in sorted(set(base_queries) & set(self.queries)):
            base_ck = str(base_queries[qid].get("checksum", ""))
            cur_ck = self.queries[qid].checksum
            # Only judged when both sides recorded one (older baselines
            # predate checksums); any mismatch means the answers changed.
            if base_ck and cur_ck and base_ck != cur_ck:
                out.failures.append(
                    f"{qid}: result checksum changed "
                    f"({base_ck} -> {cur_ck}) — query answers differ")
        if set(base_queries) != set(self.queries):
            missing = sorted(set(base_queries) - set(self.queries))
            new = sorted(set(self.queries) - set(base_queries))
            # A subset run (CI's small query set) is fine; a *different* set
            # at full coverage means the workload itself changed.
            if new:
                out.failures.append(
                    f"query set changed: new {new}, missing {missing}")
        else:
            out.notes += _worst_query_regressions(self, baseline, tolerance)


def _measure_class(
    result: BenchResult,
    driver: WorkloadDriver,
    cls: str,
    queries: Sequence[WorkloadQuery],
    *,
    prefix: str = "",
    slowdown: float = 1.0,
    slow_component: Optional[str] = None,
    verify_cpu: bool = False,
) -> None:
    """Measure one class through ``driver``'s GPU engine into ``result``.

    ``slowdown`` multiplies every measured latency — a self-test hook
    that lets CI (and the acceptance test) prove the gate actually trips
    on a regression without planting one in the engine.
    ``slow_component`` narrows the injected slowdown to one attribution
    component (``kernel``, ``cpu``, ``transfer_in``, ...): the latency
    grows by that component's share times ``(slowdown - 1)`` and the
    collected profile dump scales only that bucket, so ``--compare
    --explain`` must attribute the whole delta to it — the attributable
    variant of the self-test.  ``verify_cpu`` checksums every answer
    against the stock CPU engine and raises :class:`BenchError` on the
    first divergence, so a run that completes *is* the byte-identity
    gate, independent of any committed baseline.
    """
    from repro.obs.diff import scale_profile_dict

    latencies: list[float] = []
    cls_bytes = 0
    cls_launches = 0
    offloaded = 0
    for query in queries:
        profile = driver.profile(query, gpu=True)
        attributed = _attributed_profile(driver, query.query_id)
        elapsed = driver.elapsed_ms(query, gpu=True)
        if slow_component is not None:
            duration = float(attributed.get("duration_seconds", 0.0))
            share = (
                float(attributed.get("component_totals", {})
                      .get(slow_component, 0.0)) / duration
                if duration else 0.0
            )
            elapsed *= 1.0 + (slowdown - 1.0) * share
            attributed = scale_profile_dict(
                attributed, slowdown, component=slow_component)
        elif slowdown != 1.0:
            elapsed *= slowdown
            attributed = scale_profile_dict(attributed, slowdown)
        checksum = driver.result_checksum(query, gpu=True)
        qid = prefix + query.query_id
        if verify_cpu:
            cpu_checksum = driver.result_checksum(query, gpu=False)
            if checksum != cpu_checksum:
                raise BenchError(
                    f"{qid}: GPU result checksum {checksum} != CPU engine "
                    f"{cpu_checksum} — the accelerated path changed an "
                    "answer")
        result.profiles[qid] = attributed
        # PCIe bytes in + out and device launches of the traced run.  One
        # fused chain is one launch however many plan operators ran in
        # it, so fusion-on runs launch strictly fewer kernels than
        # per-operator-GPU runs of the same queries.
        moved = attributed["bytes_in"] + attributed["bytes_out"]
        launches = len(attributed["occupancy"])
        latencies.append(elapsed)
        cls_bytes += moved
        cls_launches += launches
        offloaded += int(profile.offloaded)
        result.queries[qid] = QueryStat(
            query_id=qid, cls=cls, elapsed_ms=elapsed,
            offloaded=profile.offloaded, bytes_moved=moved,
            checksum=checksum, kernel_launches=launches)
    result.classes[cls] = ClassStat(
        cls=cls,
        queries=len(queries),
        p50_ms=percentile(latencies, 0.50),
        p95_ms=percentile(latencies, 0.95),
        total_ms=sum(latencies),
        bytes_moved=cls_bytes,
        gpu_offload_ratio=offloaded / len(queries) if queries else 0.0,
        kernel_launches=cls_launches,
    )


def run_workload(
    driver: WorkloadDriver,
    workload: str,
    scale: float,
    seed: int,
    classes: Optional[Sequence[str]] = None,
    **measure,
) -> BenchResult:
    """Run ``workload``'s classes through the driver's GPU engine.

    ``classes`` restricts the run to a subset (CI uses a small set);
    ``measure`` is handed to :func:`_measure_class` (``slowdown``,
    ``slow_component``, ``verify_cpu``).
    """
    result = BenchResult(workload=workload, scale=scale, seed=seed,
                         degree=driver.degree,
                         config=knob_values(driver.config))
    for cls, queries in workload_classes(workload, driver,
                                         classes).items():
        _measure_class(result, driver, cls, queries, **measure)
    return result


def run_scale_out(
    scale: float,
    seed: int,
    degree: int,
    knobs: Optional[Mapping] = None,
    slowdown: float = 1.0,
) -> BenchResult:
    """The N-device scale-out sweep (``docs/scale_out.md``).

    Runs the BD Insights complex class once per device count, each count
    on a freshly generated (hence identical) database with its own
    engine: class ``devices_<n>`` holds that count's latencies, query
    ids are prefixed ``d<n>:``.  ``knobs`` overrides the sweep's
    defaults — ``device_counts`` 1/2/4/8, ``shard_enabled`` and
    ``nvlink_enabled`` on.  Sharding is on for every multi-device count
    (the knob is inert at one device, so the 1-device class is the
    honest whole-job baseline either way).  Every answer is verified
    against the CPU engine at every device count.

    Fusion is pinned off: the fused single-launch chain runs whole on
    one device by design, and letting it absorb the join + group-by
    would quietly turn the sweep back into a single-device benchmark.
    """
    knobs = {"device_counts": SCALE_OUT_DEVICES, "shard_enabled": True,
             "nvlink_enabled": True, **(knobs or {}),
             "fusion_enabled": False}
    counts = sorted(set(int(n) for n in knobs["device_counts"]))
    if not counts or counts[0] < 1:
        raise BenchError(f"bad device counts {list(knobs['device_counts'])}"
                         ": need positive integers")
    result: Optional[BenchResult] = None
    for n in counts:
        catalog = generate_database(scale=scale, seed=seed)
        config = apply_knobs(
            scaled_config(catalog, gpus=n),
            {**knobs, "shard_enabled": knobs["shard_enabled"] and n > 1})
        driver = WorkloadDriver(catalog, config, degree=degree,
                                enable_join_offload=True)
        if result is None:
            result = BenchResult(
                workload="scale_out", scale=scale, seed=seed, degree=degree,
                config={**knob_values(config, scale_out=True),
                        "device_counts": counts,
                        "shard_enabled": knobs["shard_enabled"]})
        _measure_class(result, driver, f"devices_{n}",
                       queries_by_category(QueryCategory.COMPLEX),
                       prefix=f"d{n}:", slowdown=slowdown, verify_cpu=True)
    return result


def run_bench(
    workload: str,
    *,
    scale: float,
    seed: int,
    degree: int,
    knobs: Optional[Mapping] = None,
    classes: Optional[Sequence[str]] = None,
    join_offload: bool = False,
    flight_record: Optional[str] = None,
    slowdown: float = 1.0,
    **measure,
) -> tuple[BenchResult, Optional[WorkloadDriver]]:
    """Generate the database, build the driver and run one workload.

    The entry point behind ``repro bench`` and every side of a
    :data:`GATES` row.  Returns the result and the driver that produced
    it (``None`` for ``scale_out``, which builds one per device count).
    ``flight_record`` arms the engine's flight recorder to dump into
    that directory.
    """
    knobs = knobs or {}
    if workload == "scale_out":
        return run_scale_out(scale, seed, degree, knobs, slowdown), None
    catalog = generate_database(scale=scale, seed=seed)
    # The scale-out rows are not part of a class document's identity, so
    # they are not allowed to shape the run it records either.
    config = apply_knobs(scaled_config(catalog), {
        key: value for key, value in knobs.items()
        if not KNOBS[key].scale_out})
    driver = WorkloadDriver(catalog, config, degree=degree,
                            enable_join_offload=join_offload)
    if flight_record:
        os.makedirs(flight_record, exist_ok=True)
        driver.gpu_engine.recorder.dump_dir = flight_record
    return run_workload(driver, workload, scale, seed, classes,
                        slowdown=slowdown, **measure), driver


def scale_out_speedups(doc: dict) -> dict[int, float]:
    """Total-latency speedup of each device count over the 1-device run.

    Takes a scale-out document (``to_dict()`` or a loaded baseline) and
    returns ``{device_count: speedup}`` (1-device maps to 1.0).  Raises
    :class:`BenchError` when the 1-device class is missing — there is
    nothing honest to normalise against.
    """
    totals = {int(name.split("_", 1)[1]): float(stat.get("total_ms", 0.0))
              for name, stat in doc.get("classes", {}).items()
              if name.startswith("devices_")}
    base = totals.get(1, 0.0)
    if base <= 0.0:
        raise BenchError("no 1-device class to normalise speedups against")
    return {n: base / total if total > 0 else 0.0
            for n, total in sorted(totals.items())}


def _attributed_profile(driver: WorkloadDriver, query_id: str) -> dict:
    """The EXPLAIN ANALYZE dump of ``query_id``'s traced profiling run.

    Built post-hoc from the spans :meth:`WorkloadDriver.profile` already
    recorded, so collecting it adds no simulated time — the BENCH_*
    numbers are untouched; the dump feeds the PROFILE_* sidecar and
    ``--compare --explain``'s attribution.
    """
    from repro.obs.profile import build_profile

    return build_profile(driver.gpu_engine.tracer,
                         query_id=query_id).to_dict()


def _worst_query_regressions(current: BenchResult, baseline: dict,
                             tolerance: float, limit: int = 5) -> list[str]:
    """Context lines: the individual queries that moved the most."""
    rows = []
    for qid, stat in current.queries.items():
        base = baseline.get("queries", {}).get(qid)
        if not base:
            continue
        delta = _relative_delta(stat.elapsed_ms,
                                float(base.get("elapsed_ms", 0.0)))
        if delta > tolerance:
            rows.append((delta, qid, float(base["elapsed_ms"]),
                         stat.elapsed_ms))
    rows.sort(reverse=True)
    return [
        f"{qid}: {ref:.3f} -> {now:.3f} ms (+{delta * 100:.1f}%)"
        for delta, qid, ref, now in rows[:limit]
    ]


# ---------------------------------------------------------------------------
# The ablation matrix: workload x configuration -> expected relation
# ---------------------------------------------------------------------------
#
# Relations are plain functions over documents (the ``to_dict`` /
# committed-JSON shape), each returning its own verdict, so a test can
# hand them a synthetic pair.


def _total(doc: dict, metric: str):
    return sum(row[metric] for row in doc["classes"].values())


def _show(value) -> str:
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def strictly_lower(on: dict, other: dict, metric: str,
                   claim: str) -> Comparison:
    """``on`` totals strictly less ``metric`` over its classes than
    ``other``; ``claim`` is what it means when it does not."""
    out = Comparison()
    ours, theirs = _total(on, metric), _total(other, metric)
    out.notes.append(f"{metric}: {_show(ours)} against {_show(theirs)}")
    if ours >= theirs:
        out.failures.append(f"{claim}: {_show(ours)} >= {_show(theirs)}")
    return out


def same_answers(on: dict, other: dict, claim: str) -> Comparison:
    """Every query of ``other`` has ``on``'s result checksum."""
    out = Comparison()
    diverged = [qid for qid, query in other["queries"].items()
                if query["checksum"] != on["queries"][qid]["checksum"]]
    if diverged:
        out.failures.append(f"{claim}: {diverged}")
    return out


def ran_partitioned(profiles: Mapping[str, dict]) -> Comparison:
    """Every profiled query ran ``gpu-partitioned`` and none took the
    Figure-3 T3 verdict back to the CPU."""
    out = Comparison()
    bad = []
    for qid in sorted(profiles):
        paths = [d["path"] for d in profiles[qid]["offload_decisions"]]
        if PARTITIONED_PATH not in paths:
            bad.append(f"{qid}: never partitioned ({paths})")
        fallen = [p for p in paths if p in ("cpu-large", "cpu-fallback")]
        if fallen:
            bad.append(f"{qid}: T3 fallback {fallen}")
    if bad:
        out.failures.append("out-of-core gate: " + "; ".join(bad))
    else:
        out.notes.append(f"{len(profiles)} over-memory queries ran "
                         "partitioned, none fell back")
    return out


def speedup_floor(on: dict, committed: dict, devices: int = 4,
                  floor: float = 3.0) -> Comparison:
    """``devices`` devices are at least ``floor`` times faster than the
    *committed* 1-device run (a fresh denominator could hide a slide)."""
    out = Comparison()
    ratio = (committed["classes"]["devices_1"]["total_ms"]
             / on["classes"][f"devices_{devices}"]["total_ms"])
    out.notes.append(
        f"{devices}-device speedup over committed 1-device: {ratio:.2f}x")
    if ratio < floor:
        out.failures.append(
            f"scale-out gate: {devices}-device speedup {ratio:.2f}x < "
            f"{floor}x over the committed 1-device run")
    return out


def same_answers_across_counts(on: dict) -> Comparison:
    """One checksum per query over every device count of the ladder."""
    out = Comparison()
    by_query: dict[str, set] = {}
    for qid, query in on["queries"].items():
        by_query.setdefault(qid.split(":", 1)[1], set()).add(
            query["checksum"])
    diverged = sorted(q for q, sums in by_query.items() if len(sums) != 1)
    if diverged:
        out.failures.append(
            "scale-out gate: checksums diverged across device counts: "
            f"{diverged}")
    return out


class Side(NamedTuple):
    """One configuration of a gate besides the committed default."""

    knobs: Mapping
    #: Committed twin under :data:`BASELINE_DIR` the side must reproduce.
    twin: Optional[str] = None
    join_offload: bool = False


def _relation(check: Callable[..., Comparison], *inputs: str, **params):
    return lambda sides: check(*(sides[name] for name in inputs), **params)


@dataclass(frozen=True)
class Gate:
    """One row of the ablation matrix (``repro bench --gate <name>``).

    The ``on`` side is the workload at its committed identity —
    ``scale`` / ``seed`` / ``degree`` / ``knobs`` here must be those of
    ``BENCH_<workload>.json`` or the compare says so; every entry of
    ``sides`` overrides knobs on top of it.  ``relations`` take a
    mapping of side name -> document, plus ``committed`` (the primary
    baseline as loaded) and ``profiles`` (the ``on`` side's dumps).
    """

    name: str
    workload: str
    sides: Mapping[str, Side]
    relations: tuple[Callable[[Mapping], Comparison], ...]
    scale: float = 0.05
    seed: int = 7
    degree: int = 48
    knobs: Mapping = field(default_factory=dict)
    verify_cpu: bool = False


GATES: tuple[Gate, ...] = (
    Gate("cache", "bd_insights",
         {"off": Side({"cache_fraction": 0.0},
                      "BENCH_bd_insights_cache_off.json")},
         (_relation(strictly_lower, "on", "off", metric="bytes_moved",
                    claim="column cache elided no PCIe traffic"),)),
    Gate("overlap", "bd_insights",
         {"off": Side({"pipeline_depth": 1},
                      "BENCH_bd_insights_pipeline_off.json")},
         (_relation(strictly_lower, "on", "off", metric="total_ms",
                    claim="stream pipeline saved no simulated latency"),
          _relation(same_answers, "on", "off",
                    claim="pipelining changed query answers"))),
    # ``perop`` is the honest unfused reference: the same work on the
    # device, one launch per operator.
    Gate("fusion", "bd_insights",
         {"off": Side({"fusion_enabled": False},
                      "BENCH_bd_insights_fusion_off.json"),
          "perop": Side({"fusion_enabled": False}, join_offload=True)},
         (_relation(strictly_lower, "on", "perop", metric="bytes_moved",
                    claim="fusion elided no PCIe traffic vs per-operator "
                          "offload"),
          _relation(strictly_lower, "on", "perop", metric="kernel_launches",
                    claim="fusion saved no kernel launches"),
          _relation(strictly_lower, "on", "off", metric="total_ms",
                    claim="fusion saved no simulated latency"),
          _relation(same_answers, "on", "off",
                    claim="fusion changed answers vs fusion-off"),
          _relation(same_answers, "on", "perop",
                    claim="fusion changed answers vs per-op"))),
    Gate("out-of-core", "over_memory",
         {"off": Side({"partition_enabled": False},
                      "BENCH_over_memory_partition_off.json")},
         (_relation(ran_partitioned, "profiles"),
          _relation(strictly_lower, "on", "off", metric="total_ms",
                    claim="partitioned execution saved no simulated "
                          "latency"),
          _relation(same_answers, "on", "off",
                    claim="partitioning changed query answers")),
         verify_cpu=True),
    Gate("scale-out", "scale_out",
         {"off": Side({"shard_enabled": False},
                      "BENCH_scale_out_shard_off.json")},
         (_relation(speedup_floor, "on", "committed"),
          _relation(same_answers_across_counts, "on")),
         scale=0.4, seed=7, degree=64, knobs={"switch_bandwidth": 96e9}),
)


def run_gate(
    name: str,
    *,
    classes: Optional[Sequence[str]] = None,
    slowdown: float = 1.0,
    tolerance: float = 0.10,
    flight_record: Optional[str] = None,
) -> tuple[dict[str, tuple], Comparison]:
    """Run every side of gate ``name`` in this process and judge it.

    Each side with a committed file is compared against it with the one
    :func:`~repro.obs.baseline.compare`; then the row's relations are
    applied.  ``slowdown`` (the self-test hook) and ``flight_record``
    reach the ``on`` side only.  Returns ``{side: (result, driver)}``
    and the combined verdict.
    """
    gate = next((g for g in GATES if g.name == name), None)
    if gate is None:
        raise BenchError(f"unknown gate {name!r} (expected one of "
                         f"{[g.name for g in GATES]})")
    # Every committed file is loaded before anything runs: a missing
    # twin should not cost a minute-long ladder to find out.
    primary = baseline_path(gate.workload)
    baselines = {"on": (primary, BenchResult.load(primary))}
    for side_name, side in gate.sides.items():
        if side.twin:
            path = os.path.join(BASELINE_DIR, side.twin)
            baselines[side_name] = (path, BenchResult.load(path))
    runs: dict[str, tuple] = {}
    verdict = Comparison()
    for side_name, side in {"on": Side({}), **gate.sides}.items():
        on = side_name == "on"
        runs[side_name] = result, _driver = run_bench(
            gate.workload, scale=gate.scale, seed=gate.seed,
            degree=gate.degree, knobs={**gate.knobs, **side.knobs},
            classes=classes, join_offload=side.join_offload,
            flight_record=flight_record if on else None,
            slowdown=slowdown if on else 1.0,
            verify_cpu=gate.verify_cpu)
        if side_name in baselines:
            path, baseline = baselines[side_name]
            verdict.absorb(
                compare(result, baseline, tolerance, baseline_path=path),
                f"{os.path.basename(path)}: ")
    inputs = {side_name: result.to_dict()
              for side_name, (result, _driver) in runs.items()}
    inputs["committed"] = baselines["on"][1]
    inputs["profiles"] = runs["on"][0].profiles
    for relation in gate.relations:
        verdict.absorb(relation(inputs))
    return runs, verdict
