#!/usr/bin/env python3
"""Two-clock benchmark: host wall-clock + simulated time, five workloads.

Suite (what a person runs; every workload in its own fresh interpreter,
first untraced for the end-to-end metrics, then traced for the
per-layer ones)::

    python benchmarks/wall/run.py [--workload W] [--seed 7] [--out DIR]
    python benchmarks/wall/run.py --quick        # smoke, < 30 s
    python benchmarks/wall/run.py --list         # straight from BENCHMARK.json

One run (what the driver runs; this process is the fresh interpreter,
the last stdout line is the result object)::

    python benchmarks/wall/run.py --workload W --seed N --seconds S --trace 0|1

See ``benchmarks/wall/README.md`` for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from wallbench import spec as benchspec  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="drives generate_database and the op order")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run in this process: 0 = end-to-end "
                             "metrics, 1 = per-layer metrics")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="where result rows and traces are written")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: scale 0.01, one pass per run")
    parser.add_argument("--list", action="store_true",
                        help="print workloads and metrics and exit")
    return parser.parse_args(argv)


def single_run(args: argparse.Namespace, seconds: float) -> int:
    """One workload, one mode, in this interpreter."""
    from wallbench.runner import print_row, run_workload

    row = run_workload(args.workload, seed=args.seed, seconds=seconds,
                       trace=bool(args.trace), quick=args.quick,
                       out_dir=args.out)
    print_row(row)
    return 0 if row["correct"] else 1


def suite(args: argparse.Namespace, spec: dict, seconds: float) -> int:
    """Untraced then traced child per workload; merge into RESULT files."""
    names = ([args.workload] if args.workload
             else benchspec.workload_names(spec))
    failures = []
    for name in names:
        rows = {}
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--out", str(args.out)]
            if args.quick:
                command.append("--quick")
            code = subprocess.run(command).returncode
            if code != 0:
                failures.append(f"{name} --trace {trace}: exit {code}")
            path = args.out / f"{name}.trace{trace}.json"
            if path.is_file():
                rows[trace] = json.loads(path.read_text())
        if len(rows) != 2:
            continue
        if rows[0]["sim_fingerprint"] != rows[1]["sim_fingerprint"]:
            failures.append(
                f"{name}: sim_fingerprint differs between the untraced "
                "and the traced run — tracing changed a simulated result")
        with open(args.out / f"RESULT_{name}.json", "w") as f:
            json.dump({"workload": name, "untraced": rows[0],
                       "traced": rows[1]}, f, indent=1)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"results in {args.out}")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = benchspec.load_spec()
    if args.list:
        print(benchspec.describe(spec))
        return 0
    if not (benchspec.ROOT / "src" / "repro" / "__init__.py").is_file():
        print("benchmarks/wall: no src/repro beside BENCHMARK.json — "
              "nothing to measure", file=sys.stderr)
        return 2
    if args.workload and args.workload not in benchspec.workload_names(spec):
        print(f"unknown workload {args.workload!r}; see --list",
              file=sys.stderr)
        return 2
    # One thread, before numpy loads: a BLAS/OpenMP pool would add
    # scheduler noise to a single-client closed loop.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(benchspec.ROOT / "src"))
    if args.seconds is not None:
        seconds = args.seconds
    else:
        seconds = 0.0 if args.quick else float(spec["run_seconds"])
    if args.trace is not None:
        if not args.workload:
            print("--trace needs --workload", file=sys.stderr)
            return 2
        return single_run(args, seconds)
    return suite(args, spec, seconds)


if __name__ == "__main__":
    sys.exit(main())
