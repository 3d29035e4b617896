"""Monitor transcripts: every surface of the §2.3 monitor, pinned by a digest.

The five BD Insights complex queries (scale 0.02, seed 7) run on one
engine per case — the default configuration, ``race_kernels=True`` and a
``launch:p=1.0`` fault plan — and four surfaces are rendered after the
run: ``monitor.report()``, ``json.dumps(monitor.export_events())``,
``engine.prometheus()`` and ``json.dumps(engine.stats_snapshot())``.  A
surface is pinned by the sha256 of its text.

A refactor of :mod:`repro.core.monitoring` or of the stores it reads
(the tracer and the metrics registry) is correct exactly when this file
stays green un-re-recorded; a deliberate change re-records the surfaces
it names (CHANGES.md lists them).

    python -m tests.core.test_monitor_transcripts            # re-record
    python -m tests.core.test_monitor_transcripts --dump ID  # one surface
    python -m tests.core.test_monitor_transcripts --dump-all DIR

``--dump-all`` writes one file per surface (``DIR/<case>/<surface>``),
so two checkouts' recordings compare with ``diff -r``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from typing import Iterator

import pytest

from repro.core.accelerator import GpuAcceleratedEngine
from repro.faults import FaultPlan
from repro.workloads.bdinsights import queries_by_category
from repro.workloads.query import QueryCategory

TRANSCRIPT_PATH = os.path.join(os.path.dirname(__file__),
                               "monitor_transcripts.json")
SCALE, SEED = 0.02, 7

#: Engine keyword arguments of each case, from the database's config.
CASES = {
    "default": lambda config: {"config": config},
    "raced": lambda config: {"config": config, "race_kernels": True},
    "launch-fault": lambda config: {"config": dataclasses.replace(
        config, faults=FaultPlan.parse("launch:p=1.0"))},
}


def surfaces(catalog, config) -> Iterator[tuple[str, str]]:
    """``(surface id, text)`` for every case of the grid."""
    complex_queries = queries_by_category(QueryCategory.COMPLEX)
    for case, kwargs in CASES.items():
        engine = GpuAcceleratedEngine(catalog, **kwargs(config))
        for query in complex_queries:
            engine.execute_sql(query.sql, query_id=query.query_id)
        yield f"{case}/report", engine.monitor.report()
        yield f"{case}/events", json.dumps(engine.monitor.export_events())
        yield f"{case}/prometheus", engine.prometheus()
        yield f"{case}/stats", json.dumps(engine.stats_snapshot())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _database():
    from repro.workloads.datagen import generate_database, scaled_config

    catalog = generate_database(scale=SCALE, seed=SEED)
    return catalog, scaled_config(catalog)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded() -> dict[str, str]:
    with open(TRANSCRIPT_PATH) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def replayed() -> dict[str, str]:
    return dict(surfaces(*_database()))


def test_surfaces_match_the_recording(recorded, replayed):
    moved = sorted(sid for sid, text in replayed.items()
                   if recorded.get(sid) != _digest(text))
    assert not moved, (
        f"{len(moved)} of {len(replayed)} monitor surfaces changed: "
        f"{moved[:8]} — diff one with `python -m "
        "tests.core.test_monitor_transcripts --dump ID` on both trees; "
        "re-record only for a deliberate monitor change")


def test_recording_covers_exactly_the_grid(recorded, replayed):
    assert sorted(recorded) == sorted(replayed)


def test_the_grid_reaches_every_record(replayed):
    """The grid is only a pin if it shows every record kind and counter."""
    for case in ("default", "raced"):
        kinds = {e["kind"] for e in json.loads(replayed[f"{case}/events"])}
        assert kinds == {"query", "decision", "kernel"}, case
        assert "GPU 1 kernel profile" in replayed[f"{case}/report"], case
    assert "repro_kernels_raced_total 0" not in replayed["raced/prometheus"]
    # Every launch fails: decisions and fallbacks, no kernel rows.
    faulty = json.loads(replayed["launch-fault/events"])
    assert {e["kind"] for e in faulty} == {"query", "decision"}
    assert "fallbacks=0" not in replayed["launch-fault/report"]


if __name__ == "__main__":
    _args = _database()
    if sys.argv[1:2] == ["--dump"]:
        print(dict(surfaces(*_args))[sys.argv[2]])
    elif sys.argv[1:2] == ["--dump-all"]:
        for _sid, _text in surfaces(*_args):
            _path = os.path.join(sys.argv[2], _sid)
            os.makedirs(os.path.dirname(_path), exist_ok=True)
            with open(_path, "w") as _f:
                _f.write(_text + "\n")
    else:
        _digests = {sid: _digest(text) for sid, text in surfaces(*_args)}
        with open(TRANSCRIPT_PATH, "w") as _f:
            json.dump(_digests, _f, indent=0, sort_keys=True)
            _f.write("\n")
        print(f"recorded {len(_digests)} monitor surfaces")
