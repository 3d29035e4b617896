"""Gate transcripts: every line the regression gate can print, pinned.

Three committed-document families go through one gate — a ``bench``
class document, the ``scale_out`` device ladder and the ``serve-bench``
session sweep.  For each, a tiny baseline is written with ``--update``
into a scratch directory, optionally edited on disk (a knob changed, a
ladder shortened, a checksum flipped, latencies scaled, the file
truncated or removed), and ``--compare`` is run against it through
:func:`repro.cli.main`.  A case is the sha256 of ``(exit code, stdout)``
with the scratch directory spelled ``<tmp>``.

Everything here drives the CLI only, so the same file runs unchanged on
either side of a refactor of the gate layer: the committed digests were
recorded at a68d066 (ba1dd51 plus the baseline refresh), *before* the
knob table, the one loader and the one two-sided compare replaced
``load_baseline`` / ``load_sweep_baseline`` / ``compare`` /
``compare_sweep``.  A refactor of the gate is correct exactly when this
file stays green un-re-recorded; a deliberate text change re-records
the cases it names (CHANGES.md lists them).

    python -m tests.obs.test_gate_transcripts            # re-record
    python -m tests.obs.test_gate_transcripts --dump ID  # one case
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from typing import Callable, Iterator, Optional

import pytest

from repro.cli import main

TRANSCRIPT_PATH = os.path.join(os.path.dirname(__file__),
                               "gate_transcripts.json")

SCALE = ["--scale", "0.01", "--seed", "3"]

#: family -> (baseline file name, the argv that runs it).
FAMILIES = {
    "bench": ("BENCH_bd_insights.json",
              ["bench", "bd_insights", "--classes", "complex"]),
    "scale_out": ("BENCH_scale_out.json",
                  ["bench", "scale_out", "--devices", "1,2"]),
    "sweep": ("BENCH_serving_sweep.json",
              ["serve-bench", "bd_insights", "--classes", "complex",
               "--sessions", "1,2"]),
}

Edit = Callable[[dict], None]


def _set(key: str, value) -> Edit:
    return lambda doc: doc.__setitem__(key, value)


def _scale_latencies(factor: float) -> Edit:
    """Scale every judged number of a baseline: seen from the compare, a
    baseline divided by 1.5 is a run slowed down 1.5x (``--slowdown``
    itself does not reach the scale-out ladder at the recording)."""
    def edit(doc: dict) -> None:
        for row in doc["classes"].values():
            for metric in ("p50_ms", "p95_ms", "total_ms"):
                row[metric] = round(row[metric] * factor, 6)
        for query in doc["queries"].values():
            query["elapsed_ms"] = round(query["elapsed_ms"] * factor, 6)
    return edit


def _flip_checksum(doc: dict) -> None:
    first = sorted(doc["queries"])[0]
    doc["queries"][first]["checksum"] = "deadbeefdeadbeef"


def _drop_last_point(doc: dict) -> None:
    del doc["points"][sorted(doc["points"], key=int)[-1]]


#: (family, case, edit of the written baseline, extra compare argv).
#: A knob case changes the *baseline's* value and pins the run's with
#: the knob's own flag, so the compare sees exactly that one mismatch.
CASES: list[tuple[str, str, Optional[Edit], list[str]]] = [
    ("bench", "clean", None, []),
    ("bench", "slow-1.5", None, ["--slowdown", "1.5"]),
    ("bench", "fast-0.5", None, ["--slowdown", "0.5"]),
    ("bench", "knob-cache_fraction", _set("cache_fraction", 0.125),
     ["--cache-fraction", "0.25"]),
    ("bench", "knob-pipeline_depth", _set("pipeline_depth", 2),
     ["--pipeline-depth", "4"]),
    ("bench", "knob-chunk_bytes", _set("chunk_bytes", 65536),
     ["--chunk-bytes", "1048576"]),
    ("bench", "knob-fusion_enabled", _set("fusion_enabled", False),
     ["--fusion", "on"]),
    ("bench", "knob-partition_enabled", _set("partition_enabled", False),
     ["--partition", "on"]),
    ("bench", "knob-max_partitions", _set("max_partitions", 8),
     ["--max-partitions", "64"]),
    ("bench", "two-knobs", lambda doc: doc.update(cache_fraction=0.0,
                                                  fusion_enabled=False),
     ["--cache-fraction", "0.25", "--fusion", "on"]),
    ("bench", "degree", _set("degree", 16), []),
    ("bench", "checksum", _flip_checksum, []),
    ("bench", "foreign-scale", _set("scale", 0.02), []),
    ("scale_out", "clean", None, []),
    ("scale_out", "slow-1.5", _scale_latencies(1 / 1.5), []),
    ("scale_out", "fast-0.5", _scale_latencies(2.0), []),
    ("scale_out", "ladder", _set("device_counts", [1, 2, 4]),
     ["--devices", "1,2"]),
    ("scale_out", "knob-shard_enabled", _set("shard_enabled", False),
     ["--shard", "on"]),
    ("scale_out", "knob-nvlink_enabled", _set("nvlink_enabled", False),
     ["--nvlink", "on"]),
    ("scale_out", "knob-switch_bandwidth", _set("switch_bandwidth", 96.0e9),
     ["--switch-bandwidth", "48e9"]),
    ("scale_out", "checksum", _flip_checksum, []),
    ("sweep", "clean", None, []),
    ("sweep", "slow-1.5", None, ["--slowdown", "1.5"]),
    ("sweep", "fast-0.5", None, ["--slowdown", "0.5"]),
    ("sweep", "knob-cache_fraction", _set("cache_fraction", 0.125), []),
    ("sweep", "knob-pipeline_depth", _set("pipeline_depth", 2), []),
    ("sweep", "loops", _set("loops", 2), ["--loops", "1"]),
    ("sweep", "think", _set("think_seconds", 0.5),
     ["--think-seconds", "0"]),
    ("sweep", "ladder", _drop_last_point, ["--sessions", "1,2"]),
    ("sweep", "foreign-scale", _set("scale", 0.02), []),
]
for _family in FAMILIES:
    CASES += [
        (_family, "missing", "missing", []),
        (_family, "malformed", "{not json", []),
        (_family, "wrong-format", '{"format": 99, "kind": "bench"}', []),
    ]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(SCALE + argv)
    return code, out.getvalue()


def transcripts() -> Iterator[tuple[str, str]]:
    """``(case id, transcript text)`` for every case, in table order."""
    with tempfile.TemporaryDirectory() as tmp:
        written: dict[str, str] = {}
        for family, (name, argv) in FAMILIES.items():
            path = os.path.join(tmp, family, name)
            _run(argv + ["--baseline", path, "--update"])
            with open(path) as f:
                written[family] = f.read()
        for family, case, edit, extra in CASES:
            name, argv = FAMILIES[family]
            path = os.path.join(tmp, family, name)
            if edit == "missing":
                os.remove(path)
            elif isinstance(edit, str):
                with open(path, "w") as f:
                    f.write(edit)
            else:
                doc = json.loads(written[family])
                if edit is not None:
                    edit(doc)
                with open(path, "w") as f:
                    json.dump(doc, f, indent=1, sort_keys=True)
            code, text = _run(argv + extra + ["--baseline", path,
                                              "--compare"])
            yield (f"{family}/{case}",
                   f"exit {code}\n" + text.replace(tmp, "<tmp>"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def recorded() -> dict[str, str]:
    with open(TRANSCRIPT_PATH) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def replayed() -> dict[str, str]:
    return dict(transcripts())


def test_gate_output_matches_the_recording(recorded, replayed):
    moved = sorted(case for case, text in replayed.items()
                   if recorded.get(case) != _digest(text))
    assert not moved, (
        f"{len(moved)} gate transcript(s) changed: {moved}; diff one with "
        "`python -m tests.obs.test_gate_transcripts --dump ID` on both "
        "checkouts")


def test_recording_covers_exactly_the_cases(recorded, replayed):
    assert sorted(recorded) == sorted(replayed)


def test_the_cases_reach_every_kind_of_line(replayed):
    """The grid is only a pin if it walks the gate's whole vocabulary."""
    text = "\n".join(replayed.values())
    for needle in ("OK    within tolerance", "regressed", "improved",
                   "baseline is stale", "config mismatch",
                   "config identity failed", "--switch-bandwidth 9.6e+10",
                   "--devices 1,2,4", "--fusion off", "checksum changed",
                   "session ladder changed", "no baseline at",
                   "is not valid JSON", "has format 99",
                   "is not a serving-sweep baseline",
                   "note  using baseline config"):
        assert needle in text, needle


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dump"]:
        print(next(text for case, text in transcripts()
                   if case == sys.argv[2]), end="")
    else:
        _digests = {case: _digest(text) for case, text in transcripts()}
        with open(TRANSCRIPT_PATH, "w") as _f:
            json.dump(_digests, _f, indent=0, sort_keys=True)
            _f.write("\n")
        print(f"recorded {len(_digests)} gate transcripts")
