"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``sql``        run one SQL statement against the BD Insights database
``explain``    print the annotated plan for one SQL statement
``workload``   run a benchmark query class (simple/intermediate/complex/rolap)
               with and without GPU and print the comparison
``schema``     print the generated database's tables and sizes
``monitor``    run a workload slice and dump the integrated monitor report
               (``--json`` dumps the raw event list instead)
``trace``      run one SQL statement and export its span tree as a Chrome
               trace-event JSON file (open in chrome://tracing or Perfetto)
``metrics``    run the complex queries and print the metrics registry in
               Prometheus text format (or JSON)
``faults``     chaos run: execute a query class under an injected fault
               plan, verify results stay bit-identical to the CPU-only
               baseline, and print the injection/recovery summary
``profile``    run one SQL statement and print its EXPLAIN ANALYZE
               profile (per-operator CPU/transfer/kernel attribution,
               path verdicts, kernel races, device occupancy); ``--json``
               and ``--html`` export the same profile
``bench``      run a workload's query classes through the harness;
               ``--update`` writes the BENCH_<workload>.json baseline
               plus its PROFILE_<workload>.json attribution sidecar,
               ``--compare`` diffs against it and exits non-zero on any
               latency move beyond ``--tolerance`` (regression *or*
               stale-baseline improvement); ``--explain`` attributes a
               failing compare's delta to operator x phase x device via
               the profile sidecar; ``--slow-component`` stretches one
               attribution component (self-test for the explainer);
               one flag per row of ``repro.config.KNOBS`` overrides
               that execution knob (``--cache-fraction 0``,
               ``--pipeline-depth 1``, ``--fusion off``, ...); ``--out``
               saves the run's JSON without touching the baseline;
               ``--gate NAME`` instead runs one row of the ablation
               matrix (both sides, their committed files, the relation
               between them) and exits 0/1
``profile-diff`` structurally align two profile-bearing files (single
               ``profile --json`` dumps, PROFILE_* sidecars, or BENCH_*
               baselines) and attribute the end-to-end delta to
               operator x phase (cpu/transfer/kernel/launch/stall/
               queue) x device with exact sum-to-total accounting
``postmortem`` correlate a flight-record snapshot (``faults
               --flight-record``, or ``engine.dump_flight_record()``)
               into a causal timeline report: fault -> fallback ->
               breaker/quarantine -> cache invalidation -> queue
               pressure
``cache-stats`` run a query class and print per-device column-cache
               counters (hits, misses, evictions, resident bytes);
               ``--json`` dumps the full engine stats snapshot
``serve-bench`` run the concurrent-serving users-vs-throughput sweep
               (Table 3 shape); ``--update`` writes the
               BENCH_serving_sweep.json baseline, ``--compare`` gates
               against it both directions

Examples::

    python -m repro sql "SELECT ss_store_sk, COUNT(*) AS c \
        FROM store_sales GROUP BY ss_store_sk ORDER BY c DESC LIMIT 5"
    python -m repro workload complex --scale 0.05
    python -m repro explain "SELECT i_category, SUM(ss_net_paid) AS rev \
        FROM store_sales JOIN item ON ss_item_sk = i_item_sk \
        GROUP BY i_category"
    python -m repro trace "SELECT i_category, SUM(ss_net_paid) AS rev \
        FROM store_sales JOIN item ON ss_item_sk = i_item_sk \
        GROUP BY i_category" --out trace.json
    python -m repro metrics --format prom
    python -m repro faults --plan lossy --category complex
    python -m repro faults --plan "launch@0:p=1.0;reserve:p=0.5" \
        --trace chaos.json
    python -m repro profile "SELECT i_category, SUM(ss_net_paid) AS rev \
        FROM store_sales JOIN item ON ss_item_sk = i_item_sk \
        GROUP BY i_category ORDER BY rev DESC" --html profile.html
    python -m repro bench bd_insights --compare --explain
    python -m repro bench cognos_rolap --update
    python -m repro bench bd_insights --cache-fraction 0 --out run.json
    python -m repro bench --gate cache
    python -m repro profile-diff benchmarks/baselines/BENCH_bd_insights.json \
        run.json
    python -m repro faults --plan "device_loss@0:nth=1;device_loss@1:nth=1" \
        --flight-record chaos_out
    python -m repro postmortem chaos_out/flight_001_breaker_open.jsonl
    python -m repro cache-stats --category complex
    python -m repro serve-bench --compare
    python -m repro serve-bench --update --sessions 1,8,32,128
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Optional, Sequence

from repro.errors import WorkloadError


def _add_gate_arguments(parser, default_file: str) -> None:
    """The flags of the regression gate ``bench`` and ``serve-bench``
    share (consumed by :func:`_gated`)."""
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="baseline file (default benchmarks/baselines/"
                             f"{default_file})")
    parser.add_argument("--compare", action="store_true",
                        help="diff against the baseline; non-zero exit on "
                             "any move beyond --tolerance (regression or "
                             "stale-baseline improvement)")
    parser.add_argument("--update", action="store_true",
                        help="(re)write the baseline file from this run")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative tolerance for --compare "
                             "(default 0.10)")
    parser.add_argument("--classes", default=None,
                        help="comma-separated class subset "
                             "(e.g. simple,complex)")
    parser.add_argument("--degree", type=int, default=48,
                        help="driver degree (default 48)")
    parser.add_argument("--slowdown", type=float, default=1.0,
                        help="multiply measured latencies — a self-test "
                             "hook proving the gate trips (default 1.0)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write this run's result JSON to PATH "
                             "(independent of --update)")


def _build_parser() -> argparse.ArgumentParser:
    """Assemble the argparse tree for every subcommand."""
    from repro.config import register_knobs

    parser = argparse.ArgumentParser(
        prog="repro",
        description="DB2 BLU + GPU hybrid query processing (SIGMOD 2016 "
                    "reproduction)",
    )
    parser.add_argument("--scale", type=float, default=0.05,
                        help="database scale factor (default 0.05)")
    parser.add_argument("--seed", type=int, default=7,
                        help="data generator seed (default 7)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sql = sub.add_parser("sql", help="run one SQL statement")
    p_sql.add_argument("statement")
    p_sql.add_argument("--no-gpu", action="store_true",
                       help="use the stock CPU-only engine")
    p_sql.add_argument("--limit", type=int, default=20,
                       help="max rows to print (default 20)")

    p_explain = sub.add_parser("explain", help="print the annotated plan")
    p_explain.add_argument("statement")

    p_inspect = sub.add_parser(
        "inspect",
        help="run a statement and show plan + offload decisions + costs")
    p_inspect.add_argument("statement")

    p_workload = sub.add_parser("workload",
                                help="run a benchmark query class")
    p_workload.add_argument("category",
                            choices=["simple", "intermediate", "complex",
                                     "rolap"])

    sub.add_parser("schema", help="print the generated tables")

    p_monitor = sub.add_parser(
        "monitor", help="run the complex queries and dump the monitor")
    p_monitor.add_argument("--race", action="store_true",
                           help="race group-by kernels")
    p_monitor.add_argument("--json", metavar="PATH", nargs="?", const="-",
                           help="dump the raw event list as JSON to PATH "
                                "(bare --json prints it to stdout instead "
                                "of the text report)")

    p_trace = sub.add_parser(
        "trace", help="run one SQL statement and export a Chrome trace")
    p_trace.add_argument("statement")
    p_trace.add_argument("--out", default="trace.json", metavar="PATH",
                         help="Chrome trace-event output file "
                              "(default trace.json)")
    p_trace.add_argument("--jsonl", metavar="PATH",
                         help="also append raw spans as JSON lines")
    p_trace.add_argument("--query-id", default="trace",
                         help="query id stamped on the root span")

    p_metrics = sub.add_parser(
        "metrics", help="run the complex queries and print the metrics")
    p_metrics.add_argument("--format", choices=["prom", "json"],
                           default="prom",
                           help="Prometheus text (default) or JSON")
    p_metrics.add_argument("--race", action="store_true",
                           help="race group-by kernels")

    p_faults = sub.add_parser(
        "faults",
        help="chaos run: inject faults, verify CPU-baseline parity")
    p_faults.add_argument(
        "--plan", default="lossy",
        help='fault plan spec: "lossy", or rules like '
             '"launch@0:p=0.5;reserve:p=0.25;device_loss@1:nth=3" '
             '(see docs/fault_injection.md; default lossy)')
    p_faults.add_argument("--fault-seed", type=int, default=None,
                          help="injector RNG seed (default: plan default)")
    p_faults.add_argument("--category", default="complex",
                          choices=["simple", "intermediate", "complex"],
                          help="query class to run (default complex)")
    p_faults.add_argument("--trace", metavar="PATH",
                          help="also export the chaos run's Chrome trace")
    p_faults.add_argument("--flight-record", metavar="DIR",
                          help="write flight-record snapshots (JSONL + "
                               "HTML timeline) into DIR: breaker trips "
                               "auto-dump during the run, and a final "
                               "manual snapshot is always written")

    p_profile = sub.add_parser(
        "profile",
        help="run one SQL statement and print its EXPLAIN ANALYZE profile")
    p_profile.add_argument("statement")
    p_profile.add_argument("--degree", type=int, default=None,
                           help="intra-query parallelism (default: engine)")
    p_profile.add_argument("--query-id", default="profile",
                           help="query id stamped on the root span")
    p_profile.add_argument("--json", metavar="PATH", nargs="?", const="-",
                           help="dump the profile as JSON to PATH (bare "
                                "--json prints JSON instead of text)")
    p_profile.add_argument("--html", metavar="PATH",
                           help="also write a self-contained HTML timeline")

    p_bench = sub.add_parser(
        "bench",
        help="benchmark harness: write or compare a BENCH_* baseline")
    p_bench.add_argument("workload", nargs="?",
                         choices=["bd_insights", "cognos_rolap",
                                  "over_memory", "scale_out"])
    p_bench.add_argument("--gate", metavar="NAME",
                         help="instead of one workload, run a row of the "
                              "ablation matrix (repro.obs.bench.GATES: "
                              "cache, overlap, fusion, out-of-core, "
                              "scale-out) — every side in one process, "
                              "each compared against its committed file, "
                              "then the row's relations; exits 0/1")
    _add_gate_arguments(p_bench, "BENCH_<workload>.json")
    p_bench.add_argument("--explain", action="store_true",
                         help="with --compare: attribute the delta to "
                              "operator x phase x device via the "
                              "PROFILE_* sidecar instead of a bare "
                              "exit 1")
    p_bench.add_argument("--slow-component", default=None,
                         metavar="COMPONENT",
                         choices=["cpu", "transfer_in", "kernel",
                                  "transfer_out", "launch_overhead",
                                  "stall", "backoff", "queue_wait"],
                         help="confine --slowdown to one attribution "
                              "component — the self-test hook proving "
                              "--explain blames the right phase")
    register_knobs(p_bench.add_argument_group(
        "execution knobs",
        "one per row of repro.config.KNOBS; default: the config's value, "
        "or the baseline's on --compare"))
    p_bench.add_argument("--flight-record", metavar="DIR",
                         help="write flight-record snapshots (JSONL + "
                              "postmortem-ready) of the bench run into DIR")
    p_bench.add_argument("--join-offload", action="store_true",
                         help="route hash joins through the GPU per-operator "
                              "path (the fusion gate's unfused reference)")

    p_diff = sub.add_parser(
        "profile-diff",
        help="attribute the latency delta between two profile-bearing "
             "files to operator x phase x device")
    p_diff.add_argument("file_a", metavar="A",
                        help="baseline side: a profile JSON dump, "
                             "PROFILE_* sidecar, or BENCH_* baseline")
    p_diff.add_argument("file_b", metavar="B",
                        help="current side (same accepted formats)")

    p_pm = sub.add_parser(
        "postmortem",
        help="correlate a flight-record snapshot into a causal "
             "timeline report")
    p_pm.add_argument("snapshot", metavar="SNAPSHOT",
                      help="flight-record JSONL snapshot (from faults "
                           "--flight-record or engine."
                           "dump_flight_record())")
    p_pm.add_argument("--html", metavar="PATH",
                      help="also write the report as self-contained HTML")
    p_pm.add_argument("--json", action="store_true",
                      help="print the correlated report as JSON instead "
                           "of text")

    p_cache = sub.add_parser(
        "cache-stats",
        help="run a query class and print per-device column-cache stats")
    p_cache.add_argument("--category", default="complex",
                         choices=["simple", "intermediate", "complex"],
                         help="query class to run (default complex)")
    register_knobs(p_cache, ["cache_fraction"])
    p_cache.add_argument("--json", action="store_true",
                         help="print the engine stats snapshot as JSON "
                              "instead of a table")

    p_serve = sub.add_parser(
        "serve-bench",
        help="concurrent-serving sweep: write or compare the "
             "BENCH_serving_sweep.json baseline")
    p_serve.add_argument("workload", nargs="?", default="bd_insights",
                         choices=["bd_insights", "cognos_rolap"])
    _add_gate_arguments(p_serve, "BENCH_serving_sweep.json")
    p_serve.add_argument("--sessions", default=None, metavar="N,N,...",
                         help="comma-separated session ladder (default "
                              "1,8,32,128, or the baseline's ladder on "
                              "--compare)")
    p_serve.add_argument("--loops", type=int, default=None,
                         help="loops per session (default 1, or the "
                              "baseline's value on --compare)")
    p_serve.add_argument("--think-seconds", type=float, default=None,
                         metavar="S",
                         help="think time between a session's requests "
                              "(default 0, or the baseline's value on "
                              "--compare)")
    return parser


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Fixed-width text table (numbers right-aligned, 2-4 significant
    decimals)."""
    rendered_rows = [
        [_render_cell(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rendered_rows:
        lines.append("  ".join(
            cell.rjust(w) if _is_numeric(cell) else cell.ljust(w)
            for cell, w in zip(row, widths)
        ))
    return "\n".join(lines)


def _render_cell(cell) -> str:
    if isinstance(cell, float):
        if abs(cell) >= 1000:
            return f"{cell:,.1f}"
        return f"{cell:.3f}" if abs(cell) < 10 else f"{cell:.2f}"
    return str(cell)


def _is_numeric(cell: str) -> bool:
    stripped = cell.replace(",", "").replace("%", "").replace("x", "")
    try:
        float(stripped)
        return True
    except ValueError:
        return False


def _make_database(args):
    """Generate the scaled star-schema catalog and its config."""
    from repro.workloads.datagen import generate_database, scaled_config

    catalog = generate_database(scale=args.scale, seed=args.seed)
    return catalog, scaled_config(catalog)


def _print_result_table(table, limit: int) -> None:
    """Print up to ``limit`` result rows as an ASCII table."""
    data = table.to_pydict()
    headers = table.schema.names()
    rows = list(zip(*[data[h] for h in headers])) if headers else []
    print(format_table(headers, rows[:limit]))
    if len(rows) > limit:
        print(f"... ({len(rows) - limit} more rows)")


def cmd_sql(args) -> int:
    """``sql``: run one statement and print the result table."""
    from repro.core.accelerator import make_engine

    catalog, config = _make_database(args)
    engine = make_engine(catalog, config=config, gpu=not args.no_gpu)
    result = engine.execute_sql(args.statement, query_id="cli")
    _print_result_table(result.table, args.limit)
    print()
    mode = "CPU-only" if args.no_gpu else "GPU-accelerated"
    print(f"{mode}: {result.elapsed_ms:.3f} simulated ms "
          f"(offloaded: {result.profile.offloaded})")
    return 0


def cmd_explain(args) -> int:
    """``explain``: print the annotated logical plan."""
    from repro.core.accelerator import make_engine

    catalog, config = _make_database(args)
    engine = make_engine(catalog, config=config, gpu=False)
    print(engine.explain_sql(args.statement))
    return 0


def cmd_inspect(args) -> int:
    """``inspect``: run a statement, show plan + decisions + costs."""
    from repro.core.accelerator import GpuAcceleratedEngine

    catalog, config = _make_database(args)
    engine = GpuAcceleratedEngine(catalog, config=config)
    print(engine.explain_decisions(args.statement))
    return 0


def cmd_workload(args) -> int:
    """``workload``: run a query class with GPU on vs off."""
    from repro.workloads.bdinsights import queries_by_category
    from repro.workloads.cognos_rolap import screen_queries
    from repro.workloads.driver import WorkloadDriver
    from repro.workloads.query import QueryCategory

    catalog, config = _make_database(args)
    driver = WorkloadDriver(catalog, config)
    if args.category == "rolap":
        queries, oversized = screen_queries(driver.gpu_engine)
        print(f"(34-of-46 screen: {len(oversized)} queries exceed GPU "
              f"memory and are excluded)")
    else:
        queries = queries_by_category(QueryCategory(args.category))
    on = driver.run_serial(queries, gpu=True)
    off = driver.run_serial(queries, gpu=False)
    rows = []
    for a, b in zip(on, off):
        gain = (b.elapsed_ms - a.elapsed_ms) / b.elapsed_ms * 100 \
            if b.elapsed_ms else 0.0
        rows.append((a.query_id, f"{a.elapsed_ms:.3f}",
                     f"{b.elapsed_ms:.3f}", f"{gain:.1f}%",
                     "yes" if a.offloaded else "no"))
    print(format_table(
        ["query", "GPU on (ms)", "GPU off (ms)", "gain", "offloaded"],
        rows, title=f"{args.category} queries, scale {args.scale}"))
    total_on = sum(r.elapsed_ms for r in on)
    total_off = sum(r.elapsed_ms for r in off)
    gain = (total_off - total_on) / total_off * 100 if total_off else 0.0
    print(f"\nTOTAL: {total_on:.2f} vs {total_off:.2f} ms "
          f"({gain:+.2f}% with GPU)")
    return 0


def cmd_schema(args) -> int:
    """``schema``: print the generated tables and their sizes."""
    catalog, config = _make_database(args)
    rows = []
    for name in catalog.table_names():
        table = catalog.table(name)
        rows.append((name, table.num_rows, table.num_columns,
                     f"{table.encoded_nbytes / 1e6:.2f}"))
    print(format_table(["table", "rows", "columns", "MB"], rows,
                       title=f"BD Insights database, scale {args.scale}"))
    print(f"\nsimulated GPUs: {config.gpu_count} x "
          f"{config.gpus[0].device_memory_bytes / 1e6:.0f} MB, "
          f"T1={config.thresholds.t1_min_rows}, "
          f"T3={config.thresholds.t3_max_rows}")
    return 0


def cmd_monitor(args) -> int:
    """``monitor``: run the complex class and dump the monitor."""
    from repro.core.accelerator import GpuAcceleratedEngine
    from repro.workloads.bdinsights import queries_by_category
    from repro.workloads.query import QueryCategory

    catalog, config = _make_database(args)
    engine = GpuAcceleratedEngine(catalog, config=config,
                                  race_kernels=args.race)
    for query in queries_by_category(QueryCategory.COMPLEX):
        engine.execute_sql(query.sql, query_id=query.query_id)
    # The JSON surface carries the raw events plus the same
    # stats_snapshot() the other CLI surfaces render, so monitor and
    # cache-stats can never disagree on the engine's counters.
    payload = {
        "events": engine.monitor.export_events(),
        "stats": engine.stats_snapshot(),
    }
    if args.json == "-":
        import json

        print(json.dumps(payload, indent=1))
        return 0
    print(engine.monitor.report())
    if args.json:
        import json

        with open(args.json, "w") as f:
            json.dump(payload, f, indent=1)
        print(f"\nwrote {args.json}")
    return 0


def cmd_trace(args) -> int:
    """``trace``: run one statement and export a Chrome trace."""
    from repro.core.accelerator import GpuAcceleratedEngine
    from repro.obs.export import TraceLog, write_chrome_trace

    catalog, config = _make_database(args)
    engine = GpuAcceleratedEngine(catalog, config=config)
    result = engine.execute_sql(args.statement, query_id=args.query_id)
    write_chrome_trace(engine.tracer.spans, args.out)
    if args.jsonl:
        TraceLog(args.jsonl).write(engine.tracer.spans)
        print(f"wrote {len(engine.tracer.spans)} spans to {args.jsonl}")
    print(f"wrote {args.out}: {len(engine.tracer.spans)} spans, "
          f"{result.elapsed_ms:.3f} simulated ms "
          f"(offloaded: {result.profile.offloaded})")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    return 0


def cmd_metrics(args) -> int:
    """``metrics``: run the complex class, print the registry."""
    from repro.core.accelerator import GpuAcceleratedEngine
    from repro.workloads.bdinsights import queries_by_category
    from repro.workloads.query import QueryCategory

    catalog, config = _make_database(args)
    engine = GpuAcceleratedEngine(catalog, config=config,
                                  race_kernels=args.race)
    for query in queries_by_category(QueryCategory.COMPLEX):
        engine.execute_sql(query.sql, query_id=query.query_id)
    if args.format == "json":
        import json

        print(json.dumps(engine.registry.to_dict(), indent=1))
    else:
        print(engine.prometheus(), end="")
    return 0


def cmd_faults(args) -> int:
    """``faults``: chaos run with CPU-baseline parity checks."""
    import dataclasses

    from repro.faults import FaultPlan
    from repro.workloads.bdinsights import queries_by_category
    from repro.workloads.driver import WorkloadDriver
    from repro.workloads.query import QueryCategory

    plan = FaultPlan.parse(args.plan)
    if args.fault_seed is not None:
        plan = plan.with_seed(args.fault_seed)
    catalog, config = _make_database(args)
    driver = WorkloadDriver(catalog,
                            dataclasses.replace(config, faults=plan))
    engine = driver.gpu_engine
    if args.flight_record:
        import os

        os.makedirs(args.flight_record, exist_ok=True)
        # Breaker trips auto-dump into the directory as they happen; a
        # final manual snapshot follows the run.
        engine.recorder.dump_dir = args.flight_record
    queries = queries_by_category(QueryCategory(args.category))
    mismatched = driver.verify_parity(queries)

    print(f"fault plan: {plan.spec() or '(empty)'}  seed={plan.seed}")
    if engine.injector is not None:
        total = engine.injector.total_injected()
        print(f"faults injected: {total}")
        for site, count in sorted(engine.injector.injected.items()):
            print(f"  {site:12} x{count}")
    quarantined = engine.scheduler.quarantined_devices()
    if quarantined:
        print(f"quarantined devices: {quarantined}")
    print("\n-- recovery metrics --")
    interesting = ("repro_faults_injected_total",
                   "repro_fault_fallbacks_total",
                   "repro_reservation_retries_total",
                   "repro_gpu_failures_total",
                   "repro_gpu_quarantine_trips_total",
                   "repro_gpu_quarantined")
    for line in engine.prometheus().splitlines():
        if line.startswith(interesting):
            print(f"  {line}")
    if args.trace:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(engine.tracer.spans, args.trace)
        print(f"\nwrote {args.trace}: {len(engine.tracer.spans)} spans")
    if args.flight_record:
        auto = len(engine.recorder.snapshots)
        dumped = engine.dump_flight_record(args.flight_record)
        print(f"\nflight record: {auto} auto snapshot(s) in "
              f"{args.flight_record}/, final snapshot "
              f"{dumped['jsonl']} ({dumped['events']} events, "
              f"{dumped['dropped']} dropped)")
        print(f"correlate with: python -m repro postmortem "
              f"{dumped['jsonl']}")
    print()
    if mismatched:
        print(f"PARITY FAILED for {len(mismatched)}/{len(queries)} "
              f"queries: {', '.join(mismatched)}")
        return 1
    print(f"parity OK: {len(queries)} {args.category} queries match the "
          f"CPU-only baseline under the fault plan")
    return 0


def cmd_profile(args) -> int:
    """``profile``: print one statement's EXPLAIN ANALYZE."""
    from repro.core.accelerator import GpuAcceleratedEngine
    from repro.obs.profile import write_html

    catalog, config = _make_database(args)
    engine = GpuAcceleratedEngine(catalog, config=config)
    _result, profile = engine.profile_sql(
        args.statement, query_id=args.query_id, degree=args.degree)
    if args.json == "-":
        print(profile.to_json())
    else:
        print(profile.to_text())
        if args.json:
            with open(args.json, "w") as f:
                f.write(profile.to_json() + "\n")
            print(f"\nwrote {args.json}")
    if args.html:
        write_html(profile, args.html)
        print(f"wrote {args.html}")
    return 0


def _class_subset(args) -> Optional[list[str]]:
    return args.classes.split(",") if args.classes else None


def _gated(args, path: str, kind, run, after_update=None,
           explain=None) -> int:
    """The tail ``bench`` and ``serve-bench`` share: on ``--compare``
    load the committed document and adopt its run identity, ``run`` (and
    print) the workload, then ``--out`` / ``--update`` / ``--compare``."""
    from repro.obs.baseline import BenchError, compare

    baseline = None
    try:
        if args.compare:
            baseline = kind.load(path)
            # Deterministic simulation: a compare only means something at
            # the baseline's exact configuration, so adopt it.
            if (args.scale, args.seed) != (baseline["scale"],
                                           baseline["seed"]):
                print(f"note  using baseline config "
                      f"scale={baseline['scale']} seed={baseline['seed']} "
                      f"(overrides CLI)")
            args.scale, args.seed = baseline["scale"], baseline["seed"]
            args.degree = baseline["degree"]
        result = run(baseline)
    except BenchError as exc:
        print(f"FAIL  {exc}")
        return 1

    if args.out:
        result.write(args.out)
        print(f"wrote {args.out}")
    if args.update:
        result.write(path)
        print(f"wrote baseline {path}")
        if after_update is not None:
            after_update(result)
        return 0
    if args.compare:
        comparison = compare(result, baseline, tolerance=args.tolerance,
                             baseline_path=path)
        print(comparison.to_text())
        if explain is not None and not comparison.ok:
            explain(result)
        return 0 if comparison.ok else 1
    print(f"(dry run: --update writes {path}, --compare diffs against it)")
    return 0


def _print_bench(result, driver=None, flight_record=None) -> None:
    """One bench run's class table (and the flight-record note)."""
    from repro.config import knob_title
    from repro.obs import bench

    rows = [
        (cls, stat.queries, f"{stat.p50_ms:.3f}", f"{stat.p95_ms:.3f}",
         f"{stat.total_ms:.3f}", f"{stat.bytes_moved / 1e6:.2f}",
         f"{stat.gpu_offload_ratio * 100:.0f}%")
        for cls, stat in sorted(result.classes.items())
    ]
    print(format_table(
        ["class", "queries", "p50 ms", "p95 ms", "total ms",
         "MB moved", "offload"],
        rows, title=f"{result.workload}  scale={result.scale} "
                    f"seed={result.seed} degree={result.degree}"
                    + knob_title(result.config)))
    print()
    if result.workload == "scale_out":
        speedups = bench.scale_out_speedups(result.to_dict())
        print("speedup vs 1 device: " + "  ".join(
            f"{n}x={s:.2f}" for n, s in sorted(speedups.items())))
        print(f"({knob_title(result.config, scale_out=True)}; all GPU "
              f"results checksum-identical to the CPU engine)")
        print()
    if driver is not None and flight_record:
        engine = driver.gpu_engine
        dumped = engine.dump_flight_record(flight_record)
        print(f"flight record: {len(engine.recorder.snapshots)} auto "
              f"snapshot(s) in {flight_record}/, final snapshot "
              f"{dumped['jsonl']} ({dumped['events']} events)")
        print()


def cmd_bench(args) -> int:
    """``bench``: write, compare, or update a BENCH_* baseline — or run
    one ``--gate`` row of the ablation matrix."""
    from repro.config import chosen_knobs
    from repro.obs import bench, diff

    if (args.workload is None) == (args.gate is None):
        print("FAIL  give a workload or --gate NAME (exactly one)")
        return 1
    if args.gate:
        try:
            runs, verdict = bench.run_gate(
                args.gate, classes=_class_subset(args),
                slowdown=args.slowdown, tolerance=args.tolerance,
                flight_record=args.flight_record)
        except bench.BenchError as exc:
            print(f"FAIL  {exc}")
            return 1
        for side, (result, driver) in runs.items():
            print(f"== gate {args.gate}: {side} side ==")
            _print_bench(result, driver,
                         args.flight_record if side == "on" else None)
        print(verdict.to_text(ok=f"gate {args.gate} holds"))
        return 0 if verdict.ok else 1

    path = args.baseline or bench.baseline_path(args.workload)

    def run(baseline):
        result, driver = bench.run_bench(
            args.workload, scale=args.scale, seed=args.seed,
            degree=args.degree, knobs=chosen_knobs(args, baseline),
            classes=_class_subset(args), join_offload=args.join_offload,
            flight_record=args.flight_record, slowdown=args.slowdown,
            slow_component=args.slow_component)
        _print_bench(result, driver, args.flight_record)
        return result

    def write_sidecar(result):
        sidecar = diff.sidecar_path(path)
        diff.write_profile_sidecar(
            sidecar, result.profiles,
            meta={"workload": result.workload, "scale": result.scale,
                  "seed": result.seed, "degree": result.degree})
        print(f"wrote profile sidecar {sidecar}")

    def explain(result):
        print()
        try:
            doc = diff.ProfileSidecar.load(diff.sidecar_path(path))
        except diff.DiffError as exc:
            print(f"(cannot explain: {exc})")
        else:
            print(diff.explain_bench_delta(result.profiles,
                                           doc["profiles"]).to_text())

    return _gated(args, path, bench.BenchResult, run, write_sidecar,
                  explain if args.explain else None)


def cmd_profile_diff(args) -> int:
    """``profile-diff``: attribute the delta between two profiles."""
    from repro.obs import diff

    try:
        print(diff.diff_baselines(args.file_a, args.file_b))
    except diff.DiffError as exc:
        print(f"FAIL  {exc}")
        return 1
    return 0


def cmd_postmortem(args) -> int:
    """``postmortem``: causal timeline from a flight-record snapshot."""
    from repro.obs.postmortem import build_postmortem
    from repro.obs.recorder import FlightSnapshot

    try:
        snapshot = FlightSnapshot.load(args.snapshot)
    except (OSError, ValueError) as exc:
        print(f"FAIL  cannot load {args.snapshot}: {exc}")
        return 1
    report = build_postmortem(snapshot)
    # Write the artifact before printing: a consumer piping the text
    # through ``head`` closes stdout early, and the HTML should land
    # regardless.
    if args.html:
        report.write_html(args.html)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(report.to_text())
    if args.html:
        print(f"\nwrote {args.html}")
    return 0


def cmd_cache_stats(args) -> int:
    """``cache-stats``: per-device column-cache counters."""
    from repro.config import apply_knobs, chosen_knobs
    from repro.core.accelerator import GpuAcceleratedEngine
    from repro.workloads.bdinsights import queries_by_category
    from repro.workloads.query import QueryCategory

    catalog, config = _make_database(args)
    config = apply_knobs(config, chosen_knobs(args))
    engine = GpuAcceleratedEngine(catalog, config=config)
    for query in queries_by_category(QueryCategory(args.category)):
        engine.execute_sql(query.sql, query_id=query.query_id)
    stats = engine.cache_stats()
    if args.json:
        import json

        print(json.dumps(engine.stats_snapshot(), indent=1, sort_keys=True))
        return 0
    if not stats:
        print(f"column cache disabled "
              f"(cache_fraction={config.cache_fraction})")
        return 0
    rows = [
        (s["device_id"], f"{s['budget_bytes'] / 1e6:.2f}",
         f"{s['cached_bytes'] / 1e6:.2f}", s["entries"], s["hits"],
         s["misses"], f"{s['hit_rate'] * 100:.1f}%",
         f"{s['hit_bytes'] / 1e6:.2f}", s["evictions"],
         s["insert_failures"])
        for s in stats
    ]
    print(format_table(
        ["GPU", "budget MB", "cached MB", "entries", "hits", "misses",
         "hit rate", "elided MB", "evict", "ins-fail"],
        rows, title=f"column cache after {args.category} queries, "
                    f"cache_fraction={config.cache_fraction}"))
    elided = sum(s["hit_bytes"] for s in stats)
    print(f"\ntotal host->device transfer elided: {elided} B")
    return 0


def cmd_serve_bench(args) -> int:
    """``serve-bench``: the concurrent-serving sweep gate."""
    from repro.obs import serving
    from repro.workloads.datagen import generate_database, scaled_config

    def run(baseline):
        recorded = baseline or {}
        # Adopt the baseline's sweep shape unless the CLI overrides it.
        loops = args.loops if args.loops is not None \
            else recorded.get("loops", 1)
        think = args.think_seconds if args.think_seconds is not None \
            else recorded.get("think_seconds", 0.0)
        if args.sessions:
            sessions = [int(s) for s in args.sessions.split(",")]
        else:
            sessions = sorted(int(k) for k in recorded.get(
                "points", serving.DEFAULT_SESSIONS))
        catalog = generate_database(scale=args.scale, seed=args.seed)
        config = scaled_config(catalog)
        sweep, _ = serving.run_sweep(
            catalog, config,
            workload=recorded.get("workload", args.workload),
            scale=args.scale, seed=args.seed, degree=args.degree,
            classes=_class_subset(args), session_counts=sessions,
            loops=loops, think_seconds=think, slowdown=args.slowdown)
        print(sweep.to_text())
        print()
        return sweep

    return _gated(args, args.baseline or serving.SWEEP_BASELINE,
                  serving.SweepResult, run)


_COMMANDS = {
    "sql": cmd_sql,
    "explain": cmd_explain,
    "inspect": cmd_inspect,
    "workload": cmd_workload,
    "schema": cmd_schema,
    "monitor": cmd_monitor,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "faults": cmd_faults,
    "profile": cmd_profile,
    "bench": cmd_bench,
    "profile-diff": cmd_profile_diff,
    "postmortem": cmd_postmortem,
    "cache-stats": cmd_cache_stats,
    "serve-bench": cmd_serve_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: dispatch to the ``cmd_*`` handlers."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except WorkloadError as exc:    # e.g. ``--scale nan``: bad input, no bug
        print(f"FAIL  {type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
