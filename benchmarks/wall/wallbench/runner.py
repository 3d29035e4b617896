"""One measured run of one workload in this (fresh) interpreter.

Set-up → timed passes → metrics.  With ``trace`` off every pass is
plain and the end-to-end metrics come out; with ``trace`` on, plain and
traced passes alternate (so the tracing overhead is measured inside one
process) and the per-layer metrics come out.  Counts and simulated
times are always read from the *first* timed pass: it exists however
many passes the time budget allows, so they repeat exactly.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

from wallbench import stats
from wallbench.spec import (
    PAPER_GAIN_PCT,
    QUICK_SCALE,
    ROOT,
    SCALE,
    end_to_end_rows,
    load_spec,
)
from wallbench.tracing import UNATTRIBUTED, SpanRecorder

#: Datagen + engine build is the noisiest part of set-up (one big
#: allocation burst), so it is done this many times and the median
#: counts; the warm-up and reference passes are sums over dozens of ops
#: already and run once.
SETUP_REPEATS = 3


@dataclass
class PassResult:
    """One pass over the op list."""

    op_ns: list[int]
    digests: list
    #: Self time per layer metric (traced passes only); the values add
    #: up to the pass's op spans, unattributed remainder included.
    self_ns: Optional[dict[str, int]] = None

    @property
    def wall_s(self) -> float:
        return sum(self.op_ns) / 1e9

    @property
    def sim_ms(self) -> float:
        return sum(d.sim_ms for d in self.digests)


@dataclass
class Snapshot:
    """Engine-side counts at one instant."""

    counters: dict[str, float]
    devices: list[dict]
    spans: int
    retained: int
    recorder_events: int
    recorder_dropped: int

    @classmethod
    def take(cls, workload) -> "Snapshot":
        engine = workload.engine
        snap = engine.stats_snapshot()
        recorder = engine.recorder
        return cls(
            counters=snap["counters"],
            devices=snap["devices"],
            spans=workload.span_count(),
            retained=len(engine.tracer.spans),
            recorder_events=recorder.dropped + len(recorder),
            recorder_dropped=recorder.dropped,
        )

    def total(self, name: str, **labels: str) -> float:
        """Sum of every series of counter ``name`` matching ``labels``."""
        want = {f"{k}={v}" for k, v in labels.items()}
        out = 0.0
        for key, value in self.counters.items():
            base, _, body = key.partition("{")
            if base == name and want <= set(body.rstrip("}").split(",")):
                out += value
        return out


@dataclass
class Setup:
    """Host seconds of each set-up segment."""

    import_s: float = 0.0
    datagen_s: list[float] = field(default_factory=list)
    build_s: list[float] = field(default_factory=list)
    warmup_s: float = 0.0
    reference_s: float = 0.0

    @property
    def total_s(self) -> float:
        build = statistics.median(
            d + b for d, b in zip(self.datagen_s, self.build_s))
        return self.import_s + build + self.warmup_s + self.reference_s


def typical_op_ns(passes: list[PassResult]) -> list[float]:
    """Each op's median host time over ``passes`` (ops keep their order).

    A burst of machine noise inflates a whole pass but hits any one op
    in few passes, so the per-op median sheds it where the median of
    pass totals would not.
    """
    return [statistics.median(samples)
            for samples in zip(*(p.op_ns for p in passes))]


def _seconds(fn: Callable[[], object]) -> tuple[float, object]:
    start = time.perf_counter_ns()
    out = fn()
    return (time.perf_counter_ns() - start) / 1e9, out


def run_pass(workload, recorder: Optional[SpanRecorder] = None) -> PassResult:
    """Run every op once; time only the call into the program."""
    # Imported here, not at the top: it pulls in ``repro``, and the
    # runner times that import as part of set-up.
    from wallbench.workloads import OpDigest

    op_ns: list[int] = []
    digests = []
    for op in workload.ops:
        op_id = workload.op_id(op)
        start = time.perf_counter_ns()
        try:
            if recorder is None:
                outcome = workload.run(op)
            else:
                with recorder.op(op_id):
                    outcome = workload.run(op)
        except Exception:
            # A failed op must not end the run: it is counted, reported
            # and turns the exit code non-zero.
            op_ns.append(time.perf_counter_ns() - start)
            traceback.print_exc()
            attempts = workload.attempts(op)
            digests.append(OpDigest(op_id, 0.0, "raised",
                                    attempted=attempts, failed=attempts))
            continue
        op_ns.append(time.perf_counter_ns() - start)
        digests.append(workload.digest(op, outcome))
    return PassResult(op_ns=op_ns, digests=digests)


def run_traced_pass(workload) -> tuple[PassResult, SpanRecorder]:
    recorder = SpanRecorder()
    with recorder.patched():
        result = run_pass(workload, recorder)
    result.self_ns = recorder.self_ns()
    return result, recorder


def sim_fingerprint(first: PassResult) -> str:
    """Hash of per-op simulated ms + checksums: equal iff sim unchanged."""
    digest = hashlib.sha256()
    for d in sorted(first.digests, key=lambda d: d.op_id):
        digest.update(repr((d.op_id, d.sim_ms, d.checksum)).encode())
    return digest.hexdigest()[:16]


def environment(scale: float, seed: int) -> dict:
    import numpy

    sha = "unknown"          # the driver's checkout is not a repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.platform(),
        "scale": scale,
        "seed": seed,
        "git_sha": sha,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_values(workload, setup: Setup, passes: list[PassResult],
                      failed_share: float) -> dict[str, float]:
    """Every end-to-end metric defined on this workload, by name."""
    from repro.bench.runner import gain_percent, speedup

    first = passes[0]
    typical = typical_op_ns(passes)
    op_ms = [ns / 1e6 for p in passes for ns in p.op_ns]
    cpu_sim_ms = sum(workload.cpu_sim_ms.values())
    values = {
        "setup_s": setup.total_s,
        "wall_pass_s": sum(typical) / 1e9,
        "wall_op_ms_p50": statistics.median(typical) / 1e6,
        "peak_rss_mb": stats.peak_rss_mb(),
        "sim_total_ms": first.sim_ms,
        "sim_speedup": speedup(cpu_sim_ms, first.sim_ms),
        "sim_gain_pct": gain_percent(cpu_sim_ms, first.sim_ms),
        "ops_failed_share": failed_share,
    }
    try:
        values["wall_op_ms_p90"] = stats.percentile(op_ms, 0.90)
    except stats.TooFewSamples:
        pass
    for d in first.digests:
        if d.serving.get("sessions") == 64:
            values["sim_p99_ms"] = d.serving["p99_ms"]
            values["sim_qph"] = d.serving["qph"]
    return values


def per_layer_values(workload, catalog, setup: Setup,
                     passes: list[PassResult], before: Snapshot,
                     after: Snapshot, calib_ms: float,
                     rss_growth_mb: float) -> dict[str, float]:
    """Every per-layer metric, by name (0 where the layer idles)."""
    from repro.blu.statistics import compute_column_stats

    first = passes[0]
    plain = [p for p in passes if p.self_ns is None]
    traced = [p for p in passes if p.self_ns is not None]
    attempted = sum(d.attempted for d in first.digests)

    def delta(name: str, **labels: str) -> float:
        return after.total(name, **labels) - before.total(name, **labels)

    def self_time(metric: str, unit_ns: float) -> float:
        return statistics.median(
            p.self_ns.get(metric, 0) for p in traced) / unit_ns

    stats_s, _ = _seconds(lambda: [
        compute_column_stats(column)
        for table in catalog for column in table.columns])

    values = {
        "workloads.import_s": setup.import_s,
        "workloads.datagen_s": statistics.median(setup.datagen_s),
        "workloads.datagen_rows": catalog.total_rows,
        "blu.stats_s": stats_s,
        "blu.rows_in": sum(d.rows_in for d in first.digests),
        "blu.cost_events": sum(d.cost_events for d in first.digests),
    }
    for metric in ("blu.parse_ms", "blu.annotate_ms", "blu.engine_self_ms",
                   "blu.scan_ms", "blu.join_ms", "blu.groupby_cpu_ms",
                   "blu.sort_cpu_ms", "blu.tail_ms", "core.groupby_ms",
                   "core.sort_ms", "core.join_ms", "core.monitor_ms",
                   "gpu.fused_ms", "gpu.kernel_groupby_ms",
                   "gpu.kernel_sort_ms", "gpu.kernel_join_ms",
                   "gpu.launch_ms"):
        values[metric] = self_time(metric, 1e6)
    values["sim.run_s"] = self_time("sim.run_s", 1e9)
    values["obs.serving_build_s"] = self_time("obs.serving_build_s", 1e9)

    # core: what the path selectors decided, and how often it stuck.
    decisions = {
        path: delta("repro_offload_decisions_total", path=path)
        for path in ("gpu", "gpu-partitioned", "gpu-sharded", "gpu-fused",
                     "cpu-small", "cpu-large")
    }
    fallbacks = (delta("repro_fault_fallbacks_total")
                 + delta("repro_reservation_fallbacks_total")
                 + delta("repro_sort_fallbacks_total"))
    offload_attempts = fallbacks + sum(
        n for path, n in decisions.items() if path.startswith("gpu"))
    values.update({
        "core.offload_ratio": sum(d.offloaded
                                  for d in first.digests) / attempted,
        "core.decisions_gpu": decisions["gpu"],
        "core.decisions_gpu_partitioned": decisions["gpu-partitioned"],
        "core.decisions_gpu_sharded": decisions["gpu-sharded"],
        "core.decisions_cpu_small": decisions["cpu-small"],
        "core.decisions_cpu_large": decisions["cpu-large"],
        "core.decisions_fused": delta("repro_fusion_chains_total"),
        "core.gpu_success_ratio": (1.0 - fallbacks / offload_attempts
                                   if offload_attempts else 1.0),
        "core.scheduler_grants": delta("repro_scheduler_grants_total"),
        "core.scheduler_rejections":
            delta("repro_scheduler_rejections_total"),
        "core.sort_jobs": delta("repro_sort_jobs_total"),
        "core.sort_duplicate_jobs":
            delta("repro_sort_duplicate_jobs_total"),
    })

    # gpu: simulated-side work of the device substrate.
    hits = delta("repro_cache_hits_total")
    lookups = hits + delta("repro_cache_misses_total")
    values.update({
        "gpu.launches": delta("repro_kernel_invocations_total"),
        "gpu.h2d_bytes": delta("repro_transfer_bytes_total",
                               direction="in"),
        "gpu.d2h_bytes": delta("repro_transfer_bytes_total",
                               direction="out"),
        "gpu.fusion_elided_bytes":
            delta("repro_fusion_elided_bytes_total"),
        "gpu.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "gpu.cache_evictions": delta("repro_cache_evictions_total"),
        "gpu.overflow_retries": delta("repro_overflow_retries_total"),
        "gpu.link_bytes": delta("repro_link_bytes_total"),
        "gpu.link_stall_s": delta("repro_link_stall_seconds_total"),
        "gpu.sim_kernel_s": delta("repro_kernel_seconds_total"),
        "gpu.sim_transfer_s": delta("repro_transfer_seconds_total"),
        "gpu.sim_overlap_saved_s":
            delta("repro_overlap_saved_seconds_total"),
        "gpu.mem_highwater_frac": max(
            d["memory_peak_reserved"] / d["memory_capacity"]
            for d in after.devices),
    })

    # sim + obs: the serving replay (all 0 on the SQL workloads).
    serving = [d.serving for d in first.digests if d.serving]
    for sessions in (8, 32, 64):
        per_request = [
            ns / 1e3 / d.serving["requests"]
            for p in plain for ns, d in zip(p.op_ns, p.digests)
            if d.serving.get("sessions") == sessions and
            d.serving["requests"]
        ]
        values[f"sim.us_per_request_{sessions}"] = (
            statistics.median(per_request) if per_request else 0.0)
    values.update({
        "sim.requests": sum(s["requests"] for s in serving),
        "sim.max_queue_depth": max(
            (s["max_queue_depth"] for s in serving), default=0),
        "sim.queue_wait_s": sum(s["queue_wait_s"] for s in serving),
        "obs.spans_per_op": (after.spans - before.spans) / attempted,
        "obs.spans_retained": after.retained,
        "obs.rss_growth_mb": rss_growth_mb,
        "obs.recorder_events":
            after.recorder_events - before.recorder_events,
        "obs.recorder_dropped":
            after.recorder_dropped - before.recorder_dropped,
    })

    # bench: the harness's own noise and blind spots.
    plain_s = sum(typical_op_ns(plain))
    traced_s = sum(typical_op_ns(traced))
    sims = [p.sim_ms for p in passes]
    values.update({
        "bench.calib_ms": calib_ms,
        "bench.trace_overhead_pct": 100.0 * (traced_s / plain_s - 1.0),
        "bench.unattributed_pct": 100.0 * sum(
            p.self_ns.get(UNATTRIBUTED, 0) for p in traced)
            / sum(sum(p.self_ns.values()) for p in traced),
        "bench.sim_pass_spread_ms": max(sims) - min(sims),
    })
    return values


def _declared(rows: list[dict], values: dict[str, float]) -> dict:
    """``{name: {value, unit}}`` for exactly the declared ``rows``."""
    return {row["name"]: {"value": float(values[row["name"]]),
                          "unit": row["unit"]}
            for row in rows}


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 quick: bool = False,
                 out_dir: Optional[Path] = None) -> dict:
    """Measure ``name`` once; returns the full result row."""
    spec = load_spec()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    scale = QUICK_SCALE if quick else SCALE
    calib_elements = (stats.QUICK_CALIB_ELEMENTS if quick
                      else stats.CALIB_ELEMENTS)
    calib_before = stats.calibrate_isolated(calib_elements)

    setup = Setup()
    setup.import_s, workloads = _seconds(
        lambda: (importlib.import_module("repro"),
                 importlib.import_module("wallbench.workloads"))[1])
    from repro.workloads.datagen import generate_database

    for _ in range(1 if quick else SETUP_REPEATS):
        workload = catalog = None     # free the previous build first
        gc.collect()
        workload = workloads.make_workload(name, seed, quick)
        datagen_s, catalog = _seconds(
            lambda: generate_database(scale=scale, seed=seed))
        build_s, _ = _seconds(lambda: workload.build(catalog))
        setup.datagen_s.append(datagen_s)
        setup.build_s.append(build_s)
    setup.warmup_s, _ = _seconds(workload.warm_up)
    setup.reference_s, _ = _seconds(workload.reference)
    rss_warm = stats.current_rss_mb()

    # Timed passes: plain only, or plain/traced alternating.
    passes: list[PassResult] = []
    first_trace: Optional[SpanRecorder] = None
    before = Snapshot.take(workload)
    after = before
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        if trace and len(passes) % 2 == 1:
            result, recorder = run_traced_pass(workload)
            first_trace = first_trace or recorder
        else:
            result = run_pass(workload)
        passes.append(result)
        if len(passes) == 1:
            after = Snapshot.take(workload)
        if time.perf_counter() >= deadline and (len(passes) >= 2
                                                or not trace):
            break

    rss_growth_mb = stats.current_rss_mb() - rss_warm
    calib_after = stats.calibrate_isolated(calib_elements)
    if calib_after > calib_before * (1.0 + stats.CALIB_DRIFT):
        # Tearing down a big heap (the serving replay's) slows the next
        # process for a moment; only a drift that persists is the machine.
        calib_after = min(calib_after,
                          stats.calibrate_isolated(calib_elements))
    noisy = abs(calib_after / calib_before - 1.0) > stats.CALIB_DRIFT
    attempted = sum(d.attempted for p in passes for d in p.digests)
    failed = sum(d.failed for p in passes for d in p.digests)

    row = {
        "workload": name,
        "trace": int(trace),
        "quick": quick,
        "env": environment(scale, seed),
        "passes": len(passes),
        "timed_ops": sum(len(p.op_ns) for p in passes),
        "ops_per_pass": len(workload.ops),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "noisy": noisy,
        "calib_ms": [calib_before, calib_after],
        "sim_fingerprint": sim_fingerprint(passes[0]),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup": asdict(setup),
    }
    if trace:
        values = per_layer_values(
            workload, catalog, setup, passes, before, after,
            (calib_before + calib_after) / 2.0, rss_growth_mb)
        unknown = set(values) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            raise KeyError(f"not in BENCHMARK.json per_layer: {unknown}")
        row["metrics"] = _declared(spec["per_layer"], values)
        if out_dir is not None:
            first_trace.write_chrome_trace(out_dir / f"trace_{name}.json")
    else:
        values = end_to_end_values(workload, setup, passes,
                                   failed / attempted)
        row["metrics"] = _declared(spec["end_to_end"], values)
        row["extras"] = _declared(
            [m for m in end_to_end_rows(spec, name)
             if m not in spec["end_to_end"] and m["name"] in values],
            values)
        if name in PAPER_GAIN_PCT:
            row["paper_reference"] = PAPER_GAIN_PCT[name]
    if out_dir is not None:
        with open(out_dir / f"{name}.trace{int(trace)}.json", "w") as f:
            json.dump(row, f, indent=1)
    return row


def print_row(row: dict) -> None:
    """Every metric by name with its unit, then the driver's one line."""
    env = row["env"]
    print(f"== {row['workload']}  trace={row['trace']}  seed={env['seed']}  "
          f"scale={env['scale']}  passes={row['passes']}  "
          f"timed_ops={row['timed_ops']}  "
          f"sim_fingerprint={row['sim_fingerprint']}"
          f"{'  NOISY' if row['noisy'] else ''}")
    for section in ("metrics", "extras"):
        for name, m in row.get(section, {}).items():
            print(f"  {name:30} {m['value']:>16.6f} {m['unit']}")
    if "paper_reference" in row:
        print(f"  sim_gain_pct paper reference: {row['paper_reference']} "
              "(shape only; the model is not validated on hardware)")
    print(json.dumps({"correct": row["correct"],
                      "attempted": row["attempted"],
                      "failed": row["failed"],
                      "metrics": row["metrics"]}))
