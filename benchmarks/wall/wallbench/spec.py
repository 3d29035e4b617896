"""What the benchmark measures: ``BENCHMARK.json`` plus harness-only rows.

``BENCHMARK.json`` is the single source of workload and metric names;
``run.py --list`` prints straight from it so the file and the harness
cannot drift.  Its schema admits no extra keys and wants every
end-to-end metric on every workload and never 0, so the metrics of the
issue that exist on *some* workloads only (or must be 0) live in
:data:`EXTRA_END_TO_END`: the harness prints them by name wherever
they are defined and ``compare.py`` gates them, but they are not part
of the one-line result the driver reads.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Database scale of a measured run / of ``--quick`` and the self-tests.
SCALE = 0.05
QUICK_SCALE = 0.01
#: Query parallelism degree every workload runs at (Table 3's middle).
DEGREE = 48

#: Harness-only end-to-end rows.  ``bound`` is relative like the ones
#: in ``BENCHMARK.json``; ``abs_bound`` is in the metric's own unit
#: (percentage points).  ``workloads`` = where the metric is defined.
EXTRA_END_TO_END = [
    {"name": "wall_op_ms_p90", "unit": "ms", "better": "lower",
     "bound": 0.15, "workloads": ["bd_dashboard", "bd_rolap_offload"]},
    {"name": "sim_gain_pct", "unit": "%", "better": "higher",
     "abs_bound": 0.5, "workloads": None},
    {"name": "sim_p99_ms", "unit": "ms", "better": "lower",
     "bound": 0.01, "workloads": ["serving_replay"]},
    {"name": "sim_qph", "unit": "1/h", "better": "higher",
     "bound": 0.01, "workloads": ["serving_replay"]},
    {"name": "ops_failed_share", "unit": "ratio", "better": "lower",
     "abs_bound": 0.0, "workloads": None},
]

#: The paper's own figure for ``sim_gain_pct`` (shape reference only:
#: the cost model was never validated on hardware, and the defaults
#: here enable extensions the paper's prototype did not have).
PAPER_GAIN_PCT = {
    "bd_rolap_offload": "Fig. 5 BD complex ~20 %, Table 2 ROLAP 8.33 %",
}


def load_spec(path: Path = SPEC_PATH) -> dict:
    """Parse ``BENCHMARK.json``."""
    with open(path) as f:
        return json.load(f)


def workload_names(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


#: Units of per-layer metrics read from the engine's own registry or the
#: simulated clock: same seed, same value, to the last digit.
EXACT_UNITS = frozenset({"count", "bytes", "ratio", "sim_s", "sim_ms"})


def repeats_exactly(row: dict) -> bool:
    """Simulated-clock metrics and counts repeat exactly; host ones vary."""
    return (row["name"].startswith("sim_")
            or row["name"] == "ops_failed_share"
            or row["unit"] in EXACT_UNITS)


def end_to_end_rows(spec: dict, workload: str) -> list[dict]:
    """Declared + harness-only end-to-end rows defined on ``workload``."""
    extras = [m for m in EXTRA_END_TO_END
              if m["workloads"] is None or workload in m["workloads"]]
    return list(spec["end_to_end"]) + extras


def describe(spec: dict) -> str:
    """The ``--list`` text: workloads and metrics as the file has them."""
    lines = [f"command: {' '.join(spec['command'])}",
             f"run_seconds: {spec['run_seconds']}", "", "workloads:"]
    for w in spec["workloads"]:
        lines.append(f"  {w['name']:20} {w['why']}")
    lines += ["", "end_to_end (driver-gated, every workload):"]
    for m in spec["end_to_end"]:
        lines.append(f"  {m['name']:28} {m['unit']:8} {m['better']:7} "
                     f"bound {m['bound']:.0%}")
    lines += ["", "end_to_end (harness-gated, where defined):"]
    for m in EXTRA_END_TO_END:
        bound = (f"{m['abs_bound']} {m['unit']}" if "abs_bound" in m
                 else f"{m['bound']:.0%}")
        where = ", ".join(m["workloads"]) if m["workloads"] else "all"
        lines.append(f"  {m['name']:28} {m['unit']:8} {m['better']:7} "
                     f"bound {bound}  [{where}]")
    lines += ["", "per_layer (traced run):"]
    for m in spec["per_layer"]:
        lines.append(f"  {m['name']:28} {m['unit']:8} {m['better']}")
    return "\n".join(lines)
