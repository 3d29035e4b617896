"""Dispatch transcripts: every GPU launch path, pinned by a digest.

One deterministic matrix drives ``GpuAcceleratedEngine.execute_sql``
over the ``small_catalog`` tables (thresholds lowered so the 50k-row
fixture offloads) through every launch path the hybrid executors have —
group-by whole / partitioned / sharded, sort whole job / over-memory
slices / range shards / segmented descent on one device and as a shard
wave / ``rank_order``, join whole / sharded probe, the fused chain —
crossed with device count, pipeline depth, column cache, NVLink, kernel
racing and single-rule fault plans.  Each case is reduced to one sha256
over everything the run emitted, in emission order: result bytes, the
cost ledger, the span tree, offload decisions, the metrics registry,
sort statistics, device / breaker / cache / interconnect state.

The committed digests were recorded at 6af174f, *before* the executors
were folded into ``repro.core.dispatch``; a refactor of the dispatch
path is correct exactly when this file stays green.  A deliberate
behaviour change re-records the cases it names (CHANGES.md lists them).

    python -m tests.core.test_dispatch_transcripts            # re-record
    python -m tests.core.test_dispatch_transcripts --dump ID  # one case
    python -m tests.core.test_dispatch_transcripts --dump-all DIR

``--dump-all`` writes one file per case (``DIR/<scenario>/<case>``), so
two checkouts' recordings compare with ``diff -r``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import sys
from typing import Iterator, Optional

import numpy as np
import pytest

from repro.blu import Catalog
from repro.config import GpuSpec, paper_testbed
from repro.core import GpuAcceleratedEngine
from repro.faults import FAULT_SITES, FaultPlan, FaultRule
from repro.obs.profile import DECISION, LAUNCH, DecisionRecord
from tests.conftest import build_sales_table, build_stores_table

TRANSCRIPT_PATH = os.path.join(os.path.dirname(__file__),
                               "dispatch_transcripts.json")

GROUPBY_SQL = ("SELECT s_item, SUM(s_qty) AS q, SUM(s_paid) AS paid, "
               "COUNT(*) AS c FROM sales GROUP BY s_item")
SORT_SQL = "SELECT s_paid, s_ticket FROM sales ORDER BY s_ticket DESC"
SEGMENTED_SQL = ("SELECT s_store, s_ticket FROM sales "
                 "ORDER BY s_store, s_ticket")
RANK_SQL = ("SELECT s_item, s_store, SUM(s_qty) AS q, "
            "RANK() OVER (ORDER BY q DESC) AS rnk "
            "FROM sales GROUP BY s_item, s_store")
JOIN_SQL = ("SELECT st_state, SUM(s_paid) AS rev, COUNT(*) AS c "
            "FROM sales JOIN stores ON s_store = st_id "
            "GROUP BY st_state ORDER BY rev DESC")
FUSED_SQL = ("SELECT s_item, st_state, SUM(s_paid) AS rev, COUNT(*) AS c "
             "FROM sales JOIN stores ON s_store = st_id "
             "WHERE s_qty > 10 GROUP BY s_item, st_state")


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One launch path: the statement and the knobs that reach it."""

    name: str
    sql: str
    shard: bool = False            # sharded config; NVLink dimension on
    fusion: bool = False
    join_offload: bool = False
    race: bool = False             # the race_kernels dimension applies
    t3: Optional[int] = None       # lowered T3 (rows-forced partitioning)
    device_bytes: Optional[int] = None   # small cards (over-memory paths)
    faults: bool = True            # crossed with the fault matrix


SCENARIOS = (
    Scenario("groupby-whole", GROUPBY_SQL, race=True),
    # Working set > device: the reason string PROFILE_over_memory pins.
    Scenario("groupby-partitioned", GROUPBY_SQL, device_bytes=512 * 1024),
    # Rows > T3 on a full-size card (no faults: the planner's reason for
    # this case is one of the two deliberate drift fixes).
    Scenario("groupby-partitioned-t3", GROUPBY_SQL, t3=10_000,
             faults=False),
    Scenario("groupby-sharded", GROUPBY_SQL, shard=True),
    Scenario("sort-whole", SORT_SQL),
    Scenario("sort-segmented", SEGMENTED_SQL),
    Scenario("sort-slices", SORT_SQL, device_bytes=256 * 1024),
    # Range shards for the first job, a segmented shard wave below it.
    Scenario("sort-sharded", SEGMENTED_SQL, shard=True),
    Scenario("rank-order", RANK_SQL),
    Scenario("join-whole", JOIN_SQL, join_offload=True),
    Scenario("join-sharded", JOIN_SQL, shard=True, join_offload=True),
    # Join offload on, so a degraded chain re-runs through all three
    # per-operator executors.
    Scenario("fused", FUSED_SQL, fusion=True, join_offload=True,
             race=True),
)

DEFAULT_CACHE = paper_testbed().cache_fraction


def fault_rules() -> Iterator[FaultRule]:
    """Every site x device -1/0/1 x four triggers.  ``pinned`` only on
    device -1: the staging pool has no device, so a pinned rule naming
    one can never match."""
    triggers = ({"nth": (1,)}, {"nth": (2,)}, {"every": 2},
                {"probability": 1.0})
    for site in FAULT_SITES:
        for device_id in (-1, 0, 1):
            if site == "pinned" and device_id >= 0:
                continue
            for trigger in triggers:
                yield FaultRule(
                    site=site, device_id=device_id,
                    stall_seconds=2e-3 if site == "transfer" else 0.0,
                    **trigger)


def cases(scenario: Scenario) -> Iterator[tuple[str, dict]]:
    """``(case id, build_engine kwargs)`` for one scenario."""
    for devices in (1, 2, 4):
        for depth in (1, 4):
            for cache in (0.0, DEFAULT_CACHE):
                for nvlink in ((True, False) if scenario.shard
                               else (False,)):
                    for race in ((False, True) if scenario.race
                                 else (False,)):
                        label = (f"d{devices}-p{depth}"
                                 f"-{'cache' if cache else 'nocache'}"
                                 + ("-nvlink" if nvlink else "")
                                 + ("-race" if race else ""))
                        yield f"{scenario.name}/{label}", dict(
                            devices=devices, depth=depth, cache=cache,
                            nvlink=nvlink, race=race)
    if not scenario.faults:
        return
    devices = 4 if scenario.shard else 2
    for rule in fault_rules():
        yield f"{scenario.name}/fault:{rule.spec()}", dict(
            devices=devices, faults=FaultPlan(rules=(rule,), seed=17))
    # A staging pool too small for one buffer, a card too small for one
    # piece: the organic (un-injected) forms of the same two failures.
    yield f"{scenario.name}/pinned-pool-1k", dict(devices=devices,
                                                  pinned_pool_bytes=1024)
    yield f"{scenario.name}/device-4k", dict(devices=devices,
                                             device_bytes=4096)


def build_engine(scenario: Scenario, tables, *, devices: int,
                 depth: int = 4, cache: float = DEFAULT_CACHE,
                 nvlink: bool = True, race: bool = False,
                 faults: Optional[FaultPlan] = None,
                 pinned_pool_bytes: Optional[int] = None,
                 device_bytes: Optional[int] = None
                 ) -> GpuAcceleratedEngine:
    config = paper_testbed()
    thresholds = dataclasses.replace(config.thresholds, t1_min_rows=5_000,
                                     sort_min_rows=5_000)
    if scenario.t3 is not None:
        thresholds = dataclasses.replace(thresholds,
                                         t3_max_rows=scenario.t3)
    card = GpuSpec()
    device_bytes = device_bytes or scenario.device_bytes
    if device_bytes is not None:
        card = dataclasses.replace(card, device_memory_bytes=device_bytes)
    config = dataclasses.replace(
        config, thresholds=thresholds, gpus=(card,) * devices,
        pipeline_depth=depth, cache_fraction=cache,
        shard_enabled=scenario.shard,
        nvlink_enabled=nvlink and scenario.shard,
        fusion_enabled=scenario.fusion, faults=faults)
    # A per-case catalog: shard-map DDL and rebalances must not leak.
    catalog = Catalog()
    for table in tables:
        catalog.register(table)
    kwargs = {}
    if pinned_pool_bytes is not None:
        kwargs["pinned_pool_bytes"] = pinned_pool_bytes
    return GpuAcceleratedEngine(
        catalog, config=config, race_kernels=race,
        enable_join_offload=scenario.join_offload, **kwargs)


# ---------------------------------------------------------------------------
# The transcript
# ---------------------------------------------------------------------------


def _canon(value):
    """A JSON-ready form that keeps every float bit (``float.hex``) but
    not the numpy-vs-builtin distinction of scalars."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.generic):
        return _canon(value.item())
    if isinstance(value, enum.Enum):
        return _canon(value.value)
    if isinstance(value, np.ndarray):
        return _canon(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if dataclasses.is_dataclass(value):
        return _canon(dataclasses.asdict(value))
    return repr(value)


#: Span attributes the span entries leave out, because another entry
#: holds them: an ``offload.decision`` instant's ``device_id`` is in the
#: ``decisions`` entry, and a launch span's ``LaunchResult`` timings are
#: the durations its timed children (``gpu.transfer_*``, ``gpu.kernel``)
#: were given (``tests/gpu/test_device.py`` pins them equal).
ELSEWHERE = {
    DECISION: ("device_id",),
    LAUNCH: ("kernel_seconds", "transfer_in_seconds",
             "transfer_out_seconds"),
}


def transcript(engine: GpuAcceleratedEngine, results) -> list:
    """Everything ``results`` (the engine's runs, in order) emitted."""
    record: list = []
    for result in results:
        groups: dict[int, int] = {}
        table = result.table
        for name, column in zip(table.schema.names(), table.columns):
            mask = column.null_mask
            record.append(("column", name, hashlib.sha256(
                np.ascontiguousarray(column.data).tobytes()).hexdigest(),
                None if mask is None else hashlib.sha256(
                    np.ascontiguousarray(mask).tobytes()).hexdigest()))
        for event in result.profile.events:
            fields = dataclasses.asdict(event)
            # Rank of first appearance within the query: only equality
            # of neighbouring ids is ever read, and the ids' origin
            # (process state at 6af174f) is not part of the contract.
            group = fields["parallel_group"]
            if group >= 0:
                group = groups.setdefault(group, len(groups))
            fields["parallel_group"] = group
            record.append(("event", fields))
    names = {s.span_id: s.name for s in engine.tracer.spans}
    for span in engine.tracer.spans:
        # Instants are ordered, not timed: which side of a neighbouring
        # ledger charge a zero-length mark falls on is not contract.
        times = (span.start, span.end) if span.end > span.start else None
        skip = ELSEWHERE.get(span.name, ())
        record.append(("span", span.name, names.get(span.parent_id), times,
                       {k: v for k, v in span.attributes.items()
                        if k not in skip}))
    record.append(("decisions", [
        {"query_id": s.attributes["query_id"],
         **dataclasses.asdict(DecisionRecord.of(s))}
        for s in engine.tracer.spans if s.name == DECISION]))
    record.append(("registry", engine.registry.to_dict()))
    record.append(("sort", engine.sort_executor.last_stats))
    for device in engine.devices:
        breaker = engine.scheduler.breakers[device.device_id]
        record.append((
            "device", device.device_id, device.alive,
            device.outstanding_jobs,
            sum(r.nbytes for r in device.memory.live_reservations
                if r.tag != "cache"),
            breaker.state, breaker.consecutive_failures, breaker.trips))
    record.append(("quarantined", engine.scheduler.quarantined_devices()))
    record.append(("grants", engine.scheduler.grants,
                   engine.scheduler.rejections))
    record.append(("cache", engine.cache_stats()))
    record.append(("interconnect", engine.interconnect.snapshot()))
    record.append(("catalog", engine.catalog.version,
                   [dataclasses.astuple(m)
                    for m in engine.catalog.shard_maps()]))
    return [_canon(entry) for entry in record]


def run_case(scenario: Scenario, tables, kwargs: dict) -> list:
    """Build the case's engine, run its statement, return the transcript.

    Fault-free cases run the statement twice so the second run meets a
    warm column cache; a fault case is one run of one armed engine.
    """
    engine = build_engine(scenario, tables, **kwargs)
    runs = 1 if kwargs.get("faults") is not None else 2
    results = [engine.execute_sql(scenario.sql, query_id=f"q{i}")
               for i in range(runs)]
    return transcript(engine, results)


def digest(entries: list) -> str:
    blob = json.dumps(entries, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def compute_digests(tables, scenario: Scenario) -> dict[str, str]:
    return {case_id: digest(run_case(scenario, tables, kwargs))
            for case_id, kwargs in cases(scenario)}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded() -> dict:
    with open(TRANSCRIPT_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_transcripts_match_the_recording(scenario, recorded, sales_table,
                                         stores_table):
    current = compute_digests((sales_table, stores_table), scenario)
    differing = sorted(case for case, value in current.items()
                       if recorded.get(case) != value)
    assert not differing, (
        f"{len(differing)} of {len(current)} transcripts changed: "
        f"{differing[:8]} — diff one with `python -m "
        "tests.core.test_dispatch_transcripts --dump ID` on both trees; "
        "re-record only for a deliberate behaviour change")


def test_recording_covers_exactly_the_matrix(recorded):
    expected = {case_id for scenario in SCENARIOS
                for case_id, _ in cases(scenario)}
    assert set(recorded) == expected


if __name__ == "__main__":
    _tables = (build_sales_table(), build_stores_table())
    if sys.argv[1:2] == ["--dump"]:
        _name = sys.argv[2].split("/")[0]
        _scenario = next(s for s in SCENARIOS if s.name == _name)
        _kwargs = dict(cases(_scenario))[sys.argv[2]]
        for _entry in run_case(_scenario, _tables, _kwargs):
            print(json.dumps(_entry, sort_keys=True))
    elif sys.argv[1:2] == ["--dump-all"]:
        for _scenario in SCENARIOS:
            os.makedirs(os.path.join(sys.argv[2], _scenario.name))
            for _case_id, _kwargs in cases(_scenario):
                with open(os.path.join(sys.argv[2], _case_id), "w") as f:
                    for _entry in run_case(_scenario, _tables, _kwargs):
                        f.write(json.dumps(_entry, sort_keys=True) + "\n")
    else:
        _digests: dict[str, str] = {}
        for _scenario in SCENARIOS:
            _digests.update(compute_digests(_tables, _scenario))
        with open(TRANSCRIPT_PATH, "w") as f:
            json.dump(_digests, f, indent=0, sort_keys=True)
            f.write("\n")
        print(f"wrote {len(_digests)} digests to {TRANSCRIPT_PATH}")
