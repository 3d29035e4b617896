#!/usr/bin/env python3
"""Verdict per (workload, metric) between two sets of benchmark results.

::

    python benchmarks/wall/compare.py A/ B/
    python benchmarks/wall/compare.py CHECKOUT_A CHECKOUT_B \\
        --pairs 10 --workload bd_rolap_offload --out DIR

``A/`` and ``B/`` hold ``RESULT_<workload>.json`` files (any depth; one
file = one run, as ``run.py --out`` writes them).  B is judged against
A: *worse* when B's median is beyond the metric's bound, *better* when
it improved by more than the run-to-run spread, *unresolved* when that
spread (quartile distance over median) is wider than the bound, *same*
otherwise.  ``sim_*`` metrics and counts repeat exactly, so they have
no spread: any difference is real.  Exit code 1 on any end-to-end
*worse*; per-layer rows are shown when they moved and never fail.

``--pairs N`` first *runs* N alternating A/B pairs of one workload from
two checkouts (choosing-metrics §8) and adds the pair count a claim
needs: a gain only counts when B wins nine tenths of the pairs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from wallbench import spec as benchspec  # noqa: E402
from wallbench.stats import quartiles  # noqa: E402


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """``{workload: [RESULT dict, ...]}`` for every run under a directory."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("RESULT_*.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], []).append(result)
    return runs


def metric_values(runs: list[dict], section: str, name: str) -> list[float]:
    """One value per run; end-to-end rows live in ``metrics`` or ``extras``."""
    out = []
    for run in runs:
        row = run[section]
        found = row["metrics"].get(name) or row.get("extras", {}).get(name)
        if found is not None:
            out.append(found["value"])
    return out


def judge(row: dict, a: list[float], b: list[float]) -> dict:
    """The verdict for one metric; ``a`` is the reference side."""
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    sign = 1.0 if row["better"] == "lower" else -1.0
    worse_by = sign * (med_b - med_a)          # > 0: B is worse
    scale = abs(med_a) or 1.0
    limit = (row["abs_bound"] if "abs_bound" in row
             else row["bound"] * scale)
    exact = benchspec.repeats_exactly(row)
    spread = 0.0 if exact else max(q3a - q1a, q3b - q1b)
    if spread > limit:
        verdict = "unresolved"
    elif worse_by > limit:
        verdict = "worse"
    elif exact:
        verdict = "better" if worse_by < 0 else "same"
    else:
        # One run a side has no spread; then only a move beyond the
        # bound counts as a gain.
        noise = spread if min(len(a), len(b)) >= 2 else limit
        verdict = "better" if -worse_by > noise else "same"
    return {"verdict": verdict, "a": med_a, "b": med_b,
            "n": (len(a), len(b)), "change": (med_b - med_a) / scale,
            "spread": spread / scale}


#: Per-layer rows carry no bound in ``BENCHMARK.json``; they are shown
#: (never gated) when a count changed at all or a time moved this much.
PER_LAYER_SHOW = 0.10


def compare(dir_a: Path, dir_b: Path, only: str | None = None) -> int:
    spec = benchspec.load_spec()
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    per_layer = [{**m, "bound": (0.0 if benchspec.repeats_exactly(m)
                                 else PER_LAYER_SHOW)}
                 for m in spec["per_layer"]
                 # bench.* describe the harness run, not the program.
                 if not m["name"].startswith("bench.")]
    worse = 0
    for workload in benchspec.workload_names(spec):
        if only and workload != only:
            continue
        if workload not in runs_a or workload not in runs_b:
            print(f"== {workload}: missing on one side, skipped")
            continue
        a, b = runs_a[workload], runs_b[workload]
        prints = ({r["untraced"]["sim_fingerprint"] for r in a},
                  {r["untraced"]["sim_fingerprint"] for r in b})
        print(f"== {workload}  runs {len(a)} vs {len(b)}  sim_fingerprint "
              f"{'equal' if prints[0] == prints[1] else 'DIFFERS'}")
        sections = (
            ("untraced", benchspec.end_to_end_rows(spec, workload), True),
            ("traced", per_layer, False),
        )
        for section, rows, gated in sections:
            for row in rows:
                va = metric_values(a, section, row["name"])
                vb = metric_values(b, section, row["name"])
                if not va or not vb:
                    continue
                v = judge(row, va, vb)
                if not gated and v["verdict"] in ("same", "unresolved"):
                    continue
                print(f"  {row['name']:30} {v['verdict']:10} "
                      f"{v['a']:>14.6g} -> {v['b']:<14.6g} {row['unit']:6} "
                      f"{v['change']:+8.2%}  spread {v['spread']:.2%}  "
                      f"n={v['n'][0]}/{v['n'][1]}"
                      f"{'' if gated else '  (per-layer, not gated)'}")
                worse += gated and v["verdict"] == "worse"
    print(f"{worse} end-to-end metric(s) worse")
    return 1 if worse else 0


def run_pairs(checkout_a: Path, checkout_b: Path, pairs: int, workload: str,
              seed: int, out: Path) -> tuple[Path, Path]:
    """Run ``pairs`` alternating A/B suite runs of one workload."""
    sides = {"A": checkout_a, "B": checkout_b}
    for i in range(pairs):
        for side in ("AB" if i % 2 == 0 else "BA"):
            command = [sys.executable,
                       str(sides[side] / "benchmarks" / "wall" / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--out", str(out / side / f"pair{i:02d}")]
            print("+", " ".join(command), flush=True)
            subprocess.run(command, check=True)
    return out / "A", out / "B"


def pair_wins(dir_a: Path, dir_b: Path, workload: str) -> None:
    """Per end-to-end metric: how many pairs B won (ties count for none)."""
    spec = benchspec.load_spec()
    a, b = load_runs(dir_a)[workload], load_runs(dir_b)[workload]
    print(f"== {workload}: pairs won by B (a gain needs >= 9 in 10 and a "
          "median move beyond A's quartile distance)")
    for row in benchspec.end_to_end_rows(spec, workload):
        va = metric_values(a, "untraced", row["name"])
        vb = metric_values(b, "untraced", row["name"])
        if not va or len(va) != len(vb):
            continue
        sign = 1.0 if row["better"] == "lower" else -1.0
        wins = sum(sign * (y - x) < 0 for x, y in zip(va, vb))
        losses = sum(sign * (y - x) > 0 for x, y in zip(va, vb))
        q1, med_a, q3 = quartiles(va)
        moved = abs(quartiles(vb)[1] - med_a) > (q3 - q1)
        claim = wins >= 0.9 * len(va) and moved
        print(f"  {row['name']:30} B wins {wins}/{len(va)}, loses {losses}; "
              f"gain {'supported' if claim else 'not supported'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="reference results (or checkout "
                                             "with --pairs)")
    parser.add_argument("b", type=Path, help="results judged against A")
    parser.add_argument("--workload", help="restrict to one workload")
    parser.add_argument("--pairs", type=int, default=0,
                        help="run N alternating A/B pairs first; A and B "
                             "are then checkouts, --workload is required")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "pairs",
                        help="where --pairs writes its runs")
    args = parser.parse_args(argv)
    dir_a, dir_b = args.a, args.b
    if args.pairs:
        if not args.workload:
            parser.error("--pairs needs --workload")
        dir_a, dir_b = run_pairs(args.a, args.b, args.pairs, args.workload,
                                 args.seed, args.out)
        pair_wins(dir_a, dir_b, args.workload)
    return compare(dir_a, dir_b, args.workload)


if __name__ == "__main__":
    sys.exit(main())
