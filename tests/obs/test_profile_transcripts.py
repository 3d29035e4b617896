"""Profile transcripts: every EXPLAIN ANALYZE rendering, pinned by a digest.

One deterministic grid of real profiles — the five BD Insights complex
queries at the default configuration and with the column cache, the
stream pipeline and fusion each turned off; a raced ROLAP group-by; two
over-memory ROLAP queries that run partitioned; a 4-device sharded
group-by with NVLink on and off; a ``launch:p=1.0`` fault run; one
queued serving request — is rendered through ``to_text()``,
``to_json()`` and ``to_html()``, and each complex query's default
profile is diffed (through the dict form) against its three ablations.
A rendering is pinned by the sha256 of its text.

A refactor of :mod:`repro.obs.profile` or :mod:`repro.obs.diff` is
correct exactly when this file stays green un-re-recorded; a deliberate
report change re-records the renderings it names (CHANGES.md lists
them).

    python -m tests.obs.test_profile_transcripts            # re-record
    python -m tests.obs.test_profile_transcripts --dump ID  # one rendering
    python -m tests.obs.test_profile_transcripts --dump-all DIR

``--dump-all`` writes one file per rendering (``DIR/<case>/<form>``), so
two checkouts' recordings compare with ``diff -r``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from typing import Iterator

import pytest

from repro.blu import Catalog
from repro.config import paper_testbed
from repro.core.accelerator import GpuAcceleratedEngine
from repro.faults import FaultPlan
from repro.obs.diff import diff_profiles
from repro.obs.profile import build_profile
from repro.workloads.bdinsights import queries_by_category
from repro.workloads.cognos_rolap import screen_queries
from repro.workloads.driver import WorkloadDriver
from repro.workloads.query import QueryCategory, SessionGroup

TRANSCRIPT_PATH = os.path.join(os.path.dirname(__file__),
                               "profile_transcripts.json")

#: The BD Insights configurations: the default and three ablations.
CONFIGS = {
    "default": {},
    "cache-off": {"cache_fraction": 0.0},
    "depth-1": {"pipeline_depth": 1},
    "fusion-off": {"fusion_enabled": False},
}

SHARD_SQL = ("SELECT s_item, SUM(s_qty) AS q, COUNT(*) AS c "
             "FROM sales GROUP BY s_item")


def sharded_engine(sales_table, nvlink: bool) -> GpuAcceleratedEngine:
    """``TestShardSection``'s four-device engine (tests/obs/test_profile)."""
    catalog = Catalog()
    catalog.register(sales_table)
    config = paper_testbed()
    thresholds = dataclasses.replace(config.thresholds, t1_min_rows=5_000,
                                     sort_min_rows=5_000)
    config = dataclasses.replace(
        config, thresholds=thresholds,
        gpus=tuple(config.gpus[0] for _ in range(4)),
        shard_enabled=True, nvlink_enabled=nvlink, fusion_enabled=False)
    return GpuAcceleratedEngine(catalog, config=config)


def _queued_request_spans(bd_catalog, bd_config) -> list:
    """The root and phase spans of the first request that queued in a
    4-session closed loop over the complex queries."""
    driver = WorkloadDriver(bd_catalog, bd_config)
    run = driver.closed_loop([SessionGroup(
        "session", 4, queries_by_category(QueryCategory.COMPLEX))])
    request = next(r for r in run.sim.requests if r.queue_wait > 0.0)
    root = next(
        s for s in run.tracer.spans
        if s.name == "session.request"
        and s.attributes.get("session") == request.user_id
        and s.attributes.get("query_id") == request.query_id
        and s.attributes.get("loop") == request.loop
        and s.attributes.get("index") == request.index)
    return [root] + [s for s in run.tracer.spans
                     if s.parent_id == root.span_id]


def profiles(bd_catalog, bd_config, sales_table) -> Iterator[tuple]:
    """``(case id, QueryProfile)`` for every case of the grid."""
    complex_queries = queries_by_category(QueryCategory.COMPLEX)
    for name, knobs in CONFIGS.items():
        engine = GpuAcceleratedEngine(
            bd_catalog, config=dataclasses.replace(bd_config, **knobs))
        for query in complex_queries:
            yield (f"bd/{query.query_id}/{name}",
                   engine.profile_sql(query.sql,
                                      query_id=query.query_id)[1])
    raced = GpuAcceleratedEngine(bd_catalog, config=bd_config,
                                 race_kernels=True)
    runnable, oversized = screen_queries(raced)
    # Q2 is the first runnable ROLAP query whose group-by offloads.
    query = next(q for q in runnable if q.query_id == "Q2")
    yield "rolap/Q2-raced", raced.profile_sql(query.sql,
                                              query_id=query.query_id)[1]
    engine = GpuAcceleratedEngine(bd_catalog, config=bd_config)
    for query in oversized[:2]:
        yield (f"over_memory/{query.query_id}",
               engine.profile_sql(query.sql, query_id=query.query_id)[1])
    for nvlink in (True, False):
        engine = sharded_engine(sales_table, nvlink)
        yield (f"sharded/{'nvlink' if nvlink else 'pcie-host'}",
               engine.profile_sql(SHARD_SQL, query_id="sharded")[1])
    engine = GpuAcceleratedEngine(bd_catalog, config=dataclasses.replace(
        bd_config, faults=FaultPlan.parse("launch:p=1.0")))
    yield "fault/launch-p1", engine.profile_sql(
        complex_queries[0].sql, query_id="faulty")[1]
    yield "serving/queued", build_profile(
        _queued_request_spans(bd_catalog, bd_config))


def renderings(bd_catalog, bd_config, sales_table) -> Iterator[tuple]:
    """``(rendering id, text)``: each profile's three forms, then each
    complex query's default-vs-ablation diff."""
    by_case = {}
    for case, profile in profiles(bd_catalog, bd_config, sales_table):
        by_case[case] = profile
        yield f"{case}/text", profile.to_text()
        yield f"{case}/json", profile.to_json()
        yield f"{case}/html", profile.to_html()
    for query in queries_by_category(QueryCategory.COMPLEX):
        base = by_case[f"bd/{query.query_id}/default"].to_dict()
        for name in list(CONFIGS)[1:]:
            other = by_case[f"bd/{query.query_id}/{name}"].to_dict()
            yield (f"diff/{query.query_id}/{name}",
                   diff_profiles(base, other).to_text())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded() -> dict[str, str]:
    with open(TRANSCRIPT_PATH) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def replayed(bd_catalog, bd_config, sales_table) -> dict[str, str]:
    return dict(renderings(bd_catalog, bd_config, sales_table))


def test_renderings_match_the_recording(recorded, replayed):
    moved = sorted(rid for rid, text in replayed.items()
                   if recorded.get(rid) != _digest(text))
    assert not moved, (
        f"{len(moved)} of {len(replayed)} profile renderings changed: "
        f"{moved[:8]} — diff one with `python -m "
        "tests.obs.test_profile_transcripts --dump ID` on both trees; "
        "re-record only for a deliberate report change")


def test_recording_covers_exactly_the_grid(recorded, replayed):
    assert sorted(recorded) == sorted(replayed)


def test_the_grid_reaches_every_section(replayed):
    """The grid is only a pin if it prints every section and column."""
    text = "\n".join(t for rid, t in replayed.items()
                     if rid.endswith("/text"))
    for needle in ("-- column cache --", "-- stream pipeline --",
                   "overlap saved by operator:", "-- fusion --",
                   "-- partitions (out-of-core) --", "-- shards --",
                   "per-link utilization:", "nvlink", "pcie-host",
                   "-- scheduler / fault events --", "fault.injected",
                   "raced, cancelled", "groupby-partition",
                   "groupby-shard", "fused ", "kmv error", " queue"):
        assert needle in text, needle


if __name__ == "__main__":
    from repro.workloads.datagen import generate_database, scaled_config
    from tests.conftest import build_sales_table

    _catalog = generate_database(scale=0.02, seed=11)
    _args = (_catalog, scaled_config(_catalog), build_sales_table())
    if sys.argv[1:2] == ["--dump"]:
        print(dict(renderings(*_args))[sys.argv[2]])
    elif sys.argv[1:2] == ["--dump-all"]:
        for _rid, _text in renderings(*_args):
            _path = os.path.join(sys.argv[2], _rid)
            os.makedirs(os.path.dirname(_path), exist_ok=True)
            with open(_path, "w") as _f:
                _f.write(_text + "\n")
    else:
        _digests = {rid: _digest(text) for rid, text in renderings(*_args)}
        with open(TRANSCRIPT_PATH, "w") as _f:
            json.dump(_digests, _f, indent=0, sort_keys=True)
            _f.write("\n")
        print(f"recorded {len(_digests)} profile renderings")
