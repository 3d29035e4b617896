"""Differential profiling: the serialised profile must round-trip
exactly, a self-diff must be exactly zero, and per-operator deltas must
sum to the end-to-end delta — the accounting identities ``repro
profile-diff`` and ``bench --compare --explain`` rest on."""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.diff import (
    DiffError,
    diff_profiles,
    explain_bench_delta,
    ProfileSidecar,
    operator_paths,
    profile_from_dict,
    profile_to_dict,
    scale_profile_dict,
    sidecar_path,
    write_profile_sidecar,
)
from repro.obs.profile import (
    COMPONENTS,
    SECTIONS,
    KernelChoice,
    OccupancySlice,
    OperatorNode,
    PathVerdict,
    QueryProfile,
)


# ---------------------------------------------------------------------------
# Hypothesis: random well-formed profile documents
# ---------------------------------------------------------------------------

_times = st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
                   allow_infinity=False, width=32)
_names = st.sampled_from(
    ["op.scan", "op.groupby", "op.sort", "op.join", "plan", "op.fused"])


@st.composite
def _node_dicts(draw, depth=0, start=0.0, span_ids=None):
    """A random operator subtree honouring the to_dict() schema: child
    windows nested inside the parent's, unique span ids, sparse
    components."""
    if span_ids is None:
        span_ids = iter(range(1, 10_000))
    components = draw(st.dictionaries(
        st.sampled_from(COMPONENTS), _times, max_size=3))
    own = sum(components.values())
    # Children laid out back-to-back, own self-time after them: every
    # node's window is exactly children + self components, so the
    # engine's sum-to-total invariant holds by construction.
    children = []
    child_start = start
    n_children = draw(st.integers(0, 2)) if depth < 3 else 0
    for _ in range(n_children):
        child = draw(_node_dicts(depth=depth + 1, start=child_start,
                                 span_ids=span_ids))
        children.append(child)
        child_start = child["end"]
    end = child_start + own
    return {
        "name": draw(_names) if depth else "query",
        "span_id": next(span_ids),
        "start": start,
        "end": end,
        "duration": end - start,
        "attributes": draw(st.dictionaries(
            st.sampled_from(["query_id", "rows", "gpu"]),
            st.one_of(st.integers(0, 99), st.text(max_size=5)),
            max_size=2)),
        "self_components": {c: v for c, v in components.items() if v},
        "device_seconds": {
            str(d): draw(_times)
            for d in draw(st.sets(st.integers(0, 3), max_size=2))
        },
        "children": children,
    }


_words = st.text(max_size=5)
#: A value of each type a section field's default can have.
_typed_values = {int: st.integers(-1, 99), float: _times, str: _words,
                 bool: st.booleans(),
                 list: st.lists(st.integers(0, 3), max_size=3)}


def _section_events(section):
    """Events as ``section`` projects them: every field typed, or — for a
    section keeping whole spans — a span name plus attributes."""
    if section.fields:
        return st.fixed_dictionaries({
            name: _typed_values[type(default)]
            for name, default, *_source in section.fields})
    return st.fixed_dictionaries(
        {"name": st.sampled_from(section.spans)},
        optional={"device_id": st.integers(0, 3),
                  "bytes": st.integers(0, 1 << 20), "reason": _words})


_verdicts = st.builds(
    PathVerdict,
    operator=st.sampled_from(["groupby", "sort", "fused", "groupby-shard"]),
    rows=st.integers(0, 99), path=_words, reason=_words,
    thresholds=st.dictionaries(
        st.sampled_from(["t1", "t2", "t3", "devices"]),
        st.one_of(st.none(), st.integers(0, 99), _words), max_size=3),
    optimizer_groups=st.one_of(st.none(), _times),
    kmv_groups=st.one_of(st.none(), st.integers(0, 99)),
    actual_groups=st.one_of(st.none(), st.integers(0, 99)))
_kernel_choices = st.builds(
    KernelChoice, kernel=_words, reason=_words, raced=st.booleans(),
    cancelled=st.lists(_words, max_size=2).map(tuple),
    overflow_retries=st.integers(0, 3))
_occupancy = st.builds(OccupancySlice, device_id=st.integers(0, 3),
                       kernel=_words, start=_times, end=_times)
_decisions = st.builds(
    SimpleNamespace, operator=_words, path=_words, reason=_words,
    kernel=st.one_of(st.none(), _words), device_id=st.integers(-1, 3))
_pcie_links = st.dictionaries(
    st.integers(0, 3).map(lambda d: f"pcie{d}"),
    st.fixed_dictionaries({"bytes_total": st.integers(0, 1 << 30),
                           "busy_seconds": _times,
                           "stall_seconds": _times}))


@st.composite
def _profile_dicts(draw):
    """A profile dump: a hand-built operator tree plus every event
    section, verdict, kernel choice, occupancy slice, decision and PCIe
    link the profile serialises."""
    root = draw(_node_dicts())

    def totals(node, acc):
        for c, v in node["self_components"].items():
            acc[c] = acc.get(c, 0.0) + v
        for child in node["children"]:
            totals(child, acc)
        return acc

    profile = QueryProfile(
        query_id=draw(st.text(min_size=1, max_size=8)),
        trace_id=draw(st.integers(1, 99)),
        degree=draw(st.integers(1, 64)),
        gpu_enabled=draw(st.booleans()),
        root=OperatorNode.from_dict(root),
        verdicts=draw(st.lists(_verdicts, max_size=3)),
        kernel_choices=draw(st.lists(_kernel_choices, max_size=2)),
        occupancy=draw(st.lists(_occupancy, max_size=3)),
        decisions=draw(st.lists(_decisions, max_size=2)),
        bytes_in=draw(st.integers(0, 1 << 30)),
        bytes_out=draw(st.integers(0, 1 << 30)),
        events={section.key: draw(st.lists(_section_events(section),
                                           max_size=3))
                for section in SECTIONS},
        pcie_links=draw(_pcie_links),
    )
    # The tree, its duration and its totals stay hand-built, so the
    # round trip is also checked against values made without the loader.
    return {
        **profile.to_dict(),
        "duration_seconds": root["duration"],
        "component_totals": {c: v for c, v in totals(root, {}).items()
                             if v},
        "operators": root,
    }


class TestRoundTrip:
    @given(data=_profile_dicts())
    @settings(max_examples=40, deadline=None)
    def test_profile_json_profile_is_exact(self, data):
        """QueryProfile -> JSON -> QueryProfile keeps the whole dump
        bit-identical: every node, time and component, every section's
        events and summary, verdict, kernel choice, occupancy slice,
        decision and per-link row."""
        wire = json.loads(json.dumps(data))
        profile = profile_from_dict(wire)
        assert profile_to_dict(profile) == data

    @given(data=_profile_dicts())
    @settings(max_examples=40, deadline=None)
    def test_self_diff_is_exactly_zero(self, data):
        """profile-diff(self, self) is exactly zero — not approximately:
        equal inputs must produce 0.0 for the total and every operator."""
        diff = diff_profiles(data, data)
        assert diff.total_delta == 0.0
        assert diff.attributed_delta == 0.0
        for op in diff.operators:
            assert op.status == "matched"
            assert op.self_delta == 0.0
            assert all(v == 0.0 for v in op.component_delta().values())
            assert all(v == 0.0 for v in op.device_delta().values())

    @given(data=_profile_dicts())
    @settings(max_examples=40, deadline=None)
    def test_operator_deltas_sum_to_total_delta(self, data):
        """The exact-accounting invariant under an arbitrary uniform
        perturbation: per-operator self deltas sum to the end-to-end
        delta."""
        other = scale_profile_dict(data, 1.5)
        diff = diff_profiles(data, other)
        assert diff.attributed_delta == pytest.approx(
            diff.total_delta, abs=1e-9)
        by_component = sum(diff.component_totals().values())
        assert by_component == pytest.approx(diff.total_delta, abs=1e-9)


class TestEngineProfiles:
    @pytest.fixture(scope="class")
    def profile_dict(self, bd_catalog, bd_config):
        from repro.core.accelerator import GpuAcceleratedEngine
        from repro.workloads.bdinsights import queries_by_category
        from repro.workloads.query import QueryCategory

        engine = GpuAcceleratedEngine(bd_catalog, config=bd_config)
        query = queries_by_category(QueryCategory.COMPLEX)[0]
        _result, profile = engine.profile_sql(query.sql,
                                              query_id=query.query_id)
        return profile.to_dict()

    def test_real_profile_round_trips(self, profile_dict):
        again = profile_to_dict(profile_from_dict(profile_dict))
        for key in ("duration_seconds", "component_totals", "operators"):
            assert again[key] == profile_dict[key]

    @pytest.mark.parametrize("case", ["over_memory", "sharded"])
    def test_whole_dump_round_trips(self, case, bd_catalog, bd_config,
                                    sales_table):
        """The exact inverse on the *whole* dict, for the profiles whose
        partition and shard sections (and per-link rows) the reload
        used to drop."""
        from repro.core.accelerator import GpuAcceleratedEngine
        from repro.workloads.cognos_rolap import screen_queries
        from tests.obs.test_profile_transcripts import (SHARD_SQL,
                                                        sharded_engine)

        if case == "sharded":
            engine = sharded_engine(sales_table, nvlink=True)
            _result, profile = engine.profile_sql(SHARD_SQL, query_id="s")
        else:
            engine = GpuAcceleratedEngine(bd_catalog, config=bd_config)
            query = screen_queries(engine)[1][0]
            _result, profile = engine.profile_sql(query.sql,
                                                  query_id=query.query_id)
        doc = profile.to_dict()
        assert doc[{"over_memory": "partitions",
                    "sharded": "shards"}[case]]["events"]
        assert profile_from_dict(doc).to_dict() == doc
        wire = json.loads(profile.to_json())
        assert profile_from_dict(wire).to_dict() == wire

    def test_real_profile_self_diff_zero(self, profile_dict):
        diff = diff_profiles(profile_dict, profile_dict)
        assert diff.total_delta == 0.0
        assert all(op.self_delta == 0.0 for op in diff.operators)

    def test_component_scaling_attributes_to_that_component(
            self, profile_dict):
        """Stretching only the kernel component must surface as a
        kernel-majority delta with the total still exactly accounted."""
        slowed = scale_profile_dict(profile_dict, 3.0, component="kernel")
        diff = diff_profiles(profile_dict, slowed)
        assert diff.total_delta > 0.0
        totals = diff.component_totals()
        assert totals["kernel"] == pytest.approx(diff.total_delta,
                                                 abs=1e-9)
        assert all(v == pytest.approx(0.0, abs=1e-9)
                   for c, v in totals.items() if c != "kernel")
        component, _delta = max(totals.items(), key=lambda cv: abs(cv[1]))
        assert component == "kernel"

    def test_device_axis_populated_on_offloaded_profile(
            self, profile_dict):
        devices = set()

        def walk(node):
            devices.update(node.get("device_seconds", {}))
            for child in node.get("children", []):
                walk(child)

        walk(profile_dict["operators"])
        assert devices, "offloaded profile carries no device attribution"

    def test_added_and_removed_operators_reported(self, profile_dict):
        pruned = json.loads(json.dumps(profile_dict))
        victims = pruned["operators"]["children"]
        assert victims, "fixture plan has no child to prune"
        victims.pop()
        diff = diff_profiles(pruned, profile_dict)
        statuses = {op.status for op in diff.operators}
        assert "added" in statuses
        back = diff_profiles(profile_dict, pruned)
        assert "removed" in {op.status for op in back.operators}

    def test_occurrence_indices_disambiguate_same_name_siblings(
            self, profile_dict):
        paths = [p for p, _ in operator_paths(
            profile_from_dict(profile_dict).root)]
        assert len(paths) == len(set(paths)), "operator paths collide"


class TestSidecars:
    def test_sidecar_path_derivation(self):
        assert sidecar_path("a/b/BENCH_x.json") == "a/b/PROFILE_x.json"
        with pytest.raises(DiffError):
            sidecar_path("a/b/RESULTS_x.json")

    def test_write_load_round_trip_is_byte_stable(self, tmp_path):
        profiles = {"Q1": {"duration_seconds": 1.0, "operators": {
            "name": "query", "span_id": 1, "start": 0.0, "end": 1.0,
            "duration": 1.0, "attributes": {}, "self_components": {},
            "device_seconds": {}, "children": []}}}
        p1 = str(tmp_path / "PROFILE_a.json")
        p2 = str(tmp_path / "PROFILE_b.json")
        write_profile_sidecar(p1, profiles, meta={"workload": "w"})
        write_profile_sidecar(p2, profiles, meta={"workload": "w"})
        assert open(p1, "rb").read() == open(p2, "rb").read()
        doc = ProfileSidecar.load(p1)
        assert doc["profiles"] == profiles

    def test_missing_sidecar_names_the_remedy(self, tmp_path):
        with pytest.raises(DiffError, match="--update"):
            ProfileSidecar.load(str(tmp_path / "PROFILE_none.json"))

    def test_committed_sidecars_exist_and_parse(self):
        for workload in ("bd_insights", "cognos_rolap"):
            doc = ProfileSidecar.load(
                f"benchmarks/baselines/PROFILE_{workload}.json")
            assert doc["profiles"], workload
            for qid, data in doc["profiles"].items():
                assert diff_profiles(data, data).total_delta == 0.0, qid


class TestBenchExplanation:
    def test_explanation_names_top_component_and_operators(self):
        doc = ProfileSidecar.load(
            "benchmarks/baselines/PROFILE_bd_insights.json")
        baseline = doc["profiles"]
        current = {qid: scale_profile_dict(data, 2.0, component="kernel")
                   for qid, data in baseline.items()}
        explanation = explain_bench_delta(current, baseline)
        assert explanation.total_delta > 0.0
        text = explanation.to_text()
        assert "top component: kernel" in text
        assert "top regressing operators:" in text

    def test_explanation_skips_non_overlapping_queries(self):
        base = {"Q1": {"duration_seconds": 1.0, "operators": {
            "name": "query", "span_id": 1, "start": 0.0, "end": 1.0,
            "duration": 1.0, "attributes": {}, "self_components": {},
            "device_seconds": {}, "children": []}}}
        explanation = explain_bench_delta(base, {})
        assert explanation.diffs == {}
        assert any("only in current" in s for s in explanation.skipped)
