"""Pricing transcripts: every split verdict, pinned by a digest.

One deterministic grid of ~2 000 inputs drives the six "should this
operator split?" sites — group-by over-memory, sort over-memory (pieces
in time); group-by hash shards with an exchange, sort range shards with
a k-way merge, segmented-generation shards with neither, join probe
shards with a broadcast, replicated build (pieces in space) — crossed
with rows, groups, keys, aggregates, 1/2/4 devices, device capacity, T3,
degree, NVLink, switch bandwidth and ``max_partitions``.  Each case is
one sha256 over the plan (pieces, rows, home devices, predicted seconds,
every rival's seconds, merge / exchange / stall seconds, working set,
capacity, reason — or ``None`` for a candidate that could not be
priced), the verdict and its reason, and every instant the gate
emitted; floats by ``repr``.

The committed digests were recorded at c3b3edf, *before* the three
planners and two selectors were folded into one ``price`` and one gate
behind ``Dispatcher.split``; only :func:`judge_case` below — the call
adapter — was rewritten for the new entry point.  A refactor of the
pricing path is correct exactly when this file stays green; a deliberate
change re-records the cases it names (CHANGES.md lists them).

    python -m tests.gpu.test_price_transcripts            # re-record
    python -m tests.gpu.test_price_transcripts --dump ID  # one case
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import sys
from types import SimpleNamespace
from typing import Iterator
from unittest import mock

import numpy as np
import pytest

from repro.blu.datatypes import int64 as int64_type
from repro.blu.engine import OperatorContext
from repro.blu.expressions import AggFunc
from repro.config import GpuSpec, paper_testbed
from repro.core import dispatch as dispatch_module
from repro.core import hybrid_groupby, hybrid_join, hybrid_sort
from repro.core.dispatch import Dispatcher
from repro.core.metadata import RuntimeMetadata
from repro.core.scheduler import MultiGpuScheduler
from repro.gpu.device import make_devices
from repro.gpu.interconnect import Interconnect
from repro.gpu.kernels.join import HashJoinKernel
from repro.gpu.kernels.radix_sort import RadixSortKernel
from repro.gpu.kernels.request import PayloadSpec
from repro.gpu.partition import price
from repro.gpu.pinned import PinnedMemoryPool
from repro.obs.tracing import Tracer
from repro.timing import CostLedger

TRANSCRIPT_PATH = os.path.join(os.path.dirname(__file__),
                               "price_transcripts.json")

KIB, MIB, GIB = 1024, 1024**2, 1024**3

#: family -> (stride through the cross product, its dimensions).
GRIDS = {
    "groupby-time": (23, dict(
        rows=(5_000, 60_000, 750_000, 4_000_000), groups=(0, 40, 30_000),
        keys=(1, 3), aggs=(0, 2, 5), devices=(1, 2, 4),
        capacity=(MIB, 16 * MIB, 12 * GIB), t3=(20_000, 1_000_000),
        degree=(1, 24, 64), max_partitions=(2, 16, 64))),
    "sort-time": (2, dict(
        rows=(0, 1, 60_000, 750_000, 4_000_000), devices=(1, 2, 4),
        capacity=(256 * KIB, 8 * MIB, 12 * GIB), degree=(1, 8, 24, 64),
        max_partitions=(1, 8, 64))),
    "groupby-space": (3, dict(
        rows=(0, 1, 60_000, 2_000_000), groups=(40, 30_000), keys=(1, 3),
        aggs=(1, 4), devices=(1, 2, 4), degree=(1, 24, 64),
        nvlink=(True, False), switch=(48e9, 96e9))),
    "sort-space": (1, dict(
        rows=(0, 1, 5_000, 60_000, 700_000, 2_000_000, 9_000_000),
        devices=(1, 2, 4), degree=(1, 24, 64), nvlink=(True, False),
        switch=(48e9, 96e9))),
    "segmented-space": (2, dict(
        rows=(0, 1, 5_000, 60_000, 700_000, 2_000_000, 9_000_000),
        segments=(2, 1_000), devices=(1, 2, 4), degree=(1, 24, 64),
        nvlink=(True, False), switch=(48e9, 96e9))),
    "join-space": (3, dict(
        rows=(0, 1, 5_000, 60_000, 700_000, 2_000_000, 9_000_000),
        build_rows=(10, 50_000), num_cols=(4, 20), devices=(1, 2, 4),
        degree=(1, 24, 64), nvlink=(True, False), switch=(48e9, 96e9))),
}

#: Every ``KNOB_OFF_EVERY``-th case of a family gains a twin with its
#: knob (``partition_enabled`` / ``shard_enabled``) off.
KNOB_OFF_EVERY = 25


def cases() -> Iterator[tuple[str, str, dict]]:
    """``(case id, family, parameters)`` for the whole grid."""
    for family, (stride, dims) in GRIDS.items():
        points = list(itertools.product(*dims.values()))[::stride]
        for index, values in enumerate(points):
            params = dict(zip(dims, values), knob=True)
            label = ",".join(f"{k}={v}" for k, v in zip(dims, values))
            yield f"{family}/{label}", family, params
            if index % KNOB_OFF_EVERY == 0:
                yield (f"{family}/{label},knob-off", family,
                       dict(params, knob=False))


def build(params: dict):
    """The dispatcher and operator context one case prices against."""
    config = paper_testbed()
    card = dataclasses.replace(
        GpuSpec(), device_memory_bytes=params.get("capacity", 12 * GIB))
    config = dataclasses.replace(
        config,
        gpus=(card,) * params["devices"],
        thresholds=dataclasses.replace(
            config.thresholds,
            t3_max_rows=params.get("t3", config.thresholds.t3_max_rows)),
        max_partitions=params.get("max_partitions", config.max_partitions),
        partition_enabled=params["knob"], shard_enabled=params["knob"],
        nvlink_enabled=params.get("nvlink", False),
        switch_bandwidth=params.get("switch", config.switch_bandwidth))
    dispatch = Dispatcher(
        scheduler=MultiGpuScheduler(make_devices(config.gpus)),
        pinned=PinnedMemoryPool(MIB),
        monitor=SimpleNamespace(tracer=Tracer()),
        interconnect=Interconnect.from_config(config))
    ctx = OperatorContext(config, CostLedger(), params["degree"])
    return dispatch, ctx


# ---------------------------------------------------------------------------
# The call adapter — the only part that knows the pricing API
# ---------------------------------------------------------------------------


def judge_case(family: str, params: dict):
    """Price and judge one case the way its operator does.

    Returns the dispatcher (for its tracer) and ``(plan, taken,
    reason)`` — ``None`` when the candidate's knob is off and the site
    does not enumerate it.
    """
    dispatch, ctx = build(params)
    config, rows = ctx.config, params["rows"]
    operator, axis = family.split("-")
    if family == "groupby-time":
        terms = functools.partial(
            hybrid_groupby.partition_terms, rows, params["groups"],
            params["keys"], params["aggs"], config.thresholds,
            dispatch.device_capacity, ctx)
    elif family == "sort-time":
        terms = functools.partial(
            hybrid_sort.slice_terms, rows, RadixSortKernel(config.cost),
            dispatch.device_capacity, ctx)
    elif family == "groupby-space":
        payloads = [PayloadSpec(int64_type(), AggFunc.SUM)] * params["aggs"]
        terms = functools.partial(
            hybrid_groupby.shard_terms,
            RuntimeMetadata(rows=rows, optimizer_groups=params["groups"],
                            num_keys=params["keys"], payloads=payloads),
            params["keys"], params["aggs"], ctx)
    elif family == "join-space":
        terms = functools.partial(
            hybrid_join.shard_terms, rows, params["build_rows"],
            HashJoinKernel(config.cost).table_bytes(params["build_rows"]),
            params["num_cols"], ctx)
    else:
        operator = "sort"
        terms = functools.partial(hybrid_sort.shard_terms, rows, ctx,
                                  params.get("segments"))
    priced = []
    with mock.patch.object(
            dispatch_module, "price",
            lambda *a, **kw: priced.append(price(*a, **kw)) or priced[0]):
        plan, reason = dispatch.split(
            operator, ctx, terms, across="t" if axis == "space" else None)
    if not priced:
        return dispatch, None
    return dispatch, (_plan_record(priced[0]), plan is not None, reason)


def _plan_record(plan):
    """The plan's canonical fields (``None`` for an unpriced one)."""
    if plan is None:
        return None
    return (plan.pieces, plan.rows, plan.devices, plan.seconds,
            tuple((rival.label, rival.seconds) for rival in plan.rivals),
            plan.merge_seconds, plan.exchange_seconds, plan.stall_seconds,
            plan.working_set_bytes, plan.capacity_bytes, plan.reason)


# ---------------------------------------------------------------------------
# The transcript
# ---------------------------------------------------------------------------


def _canon(value):
    """JSON-ready, with every float bit kept (``repr``)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, np.generic):
        return _canon(value.item())
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    raise TypeError(f"unexpected {type(value).__name__} in a transcript")


@functools.lru_cache(maxsize=None)
def outcomes(family: str) -> tuple:
    """``(case id, verdict, transcript)`` of every case of one family:
    what it decided, and every instant it left behind."""
    out = []
    for case_id, fam, params in cases():
        if fam != family:
            continue
        dispatch, verdict = judge_case(fam, params)
        instants = [(span.name, span.attributes)
                    for span in dispatch.tracer.spans]
        out.append((case_id, verdict, _canon(
            ["not enumerated" if verdict is None else verdict, instants])))
    return tuple(out)


def digest(entries: list) -> str:
    blob = json.dumps(entries, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def compute_digests(family: str) -> dict[str, str]:
    return {case_id: digest(transcript)
            for case_id, _, transcript in outcomes(family)}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded() -> dict:
    with open(TRANSCRIPT_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize("family", list(GRIDS))
def test_pricing_matches_the_recording(family, recorded):
    current = compute_digests(family)
    differing = sorted(case for case, value in current.items()
                       if recorded.get(case) != value)
    assert not differing, (
        f"{len(differing)} of {len(current)} pricing transcripts changed: "
        f"{differing[:5]} — diff one with `python -m "
        "tests.gpu.test_price_transcripts --dump ID` on both trees; "
        "re-record only for a deliberate behaviour change")


def test_recording_covers_exactly_the_grid(recorded):
    assert set(recorded) == {case_id for case_id, _, _ in cases()}


def test_the_grid_reaches_every_verdict():
    """Guard against a grid that only ever declines: every family sees a
    taken plan, an unpriceable candidate, a refusal and a knob that is
    off; the space families between them see both rivals win."""
    refusals = set()
    for family in GRIDS:
        seen = set()
        for _, verdict, _ in outcomes(family):
            if verdict is None:
                seen.add("not enumerated")
                continue
            plan, taken, reason = verdict
            if plan is None:
                seen.add("unpriced")
            elif taken:
                seen.add("taken")
            else:
                seen.add("refused")
                refusals.add("single-device" if "single-device" in reason
                             else "cpu")
        assert seen == {"taken", "unpriced", "refused", "not enumerated"}, \
            family
    assert refusals == {"single-device", "cpu"}


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dump"]:
        _family = sys.argv[2].split("/")[0]
        print(json.dumps(next(t for case_id, _, t in outcomes(_family)
                              if case_id == sys.argv[2]), indent=1))
    else:
        _digests: dict[str, str] = {}
        for _family in GRIDS:
            _digests.update(compute_digests(_family))
        with open(TRANSCRIPT_PATH, "w") as f:
            json.dump(_digests, f, indent=0, sort_keys=True)
            f.write("\n")
        print(f"wrote {len(_digests)} digests to {TRANSCRIPT_PATH}")
