"""Differential profiling: a self-diff must be exactly zero, per-operator
deltas must sum to the end-to-end delta, and the operator rows a
``PROFILE_*`` sidecar keeps must diff exactly as the dump they came from
— the accounting identities ``repro profile-diff`` and ``bench
--compare --explain`` rest on."""

import glob
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.obs.diff import (
    DiffError,
    SIDECAR_FORMAT,
    diff_baselines,
    diff_profiles,
    explain_bench_delta,
    ProfileSidecar,
    profile_rows,
    scale_profile_dict,
    sidecar_path,
    write_profile_sidecar,
)
from repro.obs.profile import COMPONENTS


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


@st.composite
def _profile_dicts(draw):
    """A profile dump as far as the diff reads it: a query id and a
    hand-built operator tree."""
    return {"query_id": draw(st.text(min_size=1, max_size=8)),
            "operators": draw(_node_dicts())}


def _wire(doc):
    """``doc`` after a trip through JSON, as a committed file holds it."""
    return json.loads(json.dumps(doc))


class TestRoundTrip:
    @given(a=_profile_dicts(), b=_profile_dicts())
    @settings(max_examples=40, deadline=None)
    def test_sidecar_rows_diff_as_the_dumps_do(self, a, b):
        """Dump -> rows -> JSON -> diff equals the diff of the dumps in
        every operator, component, device and total, bit for bit."""
        from_rows = diff_profiles(_wire(profile_rows(a)),
                                  _wire(profile_rows(b)))
        assert from_rows == diff_profiles(a, b)
        assert from_rows.to_text() == diff_profiles(a, b).to_text()

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
    def profile(self, bd_catalog, bd_config):
        from repro.core.accelerator import GpuAcceleratedEngine
        from repro.workloads.bdinsights import queries_by_category
        from repro.workloads.query import QueryCategory

        engine = GpuAcceleratedEngine(bd_catalog, config=bd_config)
        query = queries_by_category(QueryCategory.COMPLEX)[0]
        return engine.profile_sql(query.sql, query_id=query.query_id)[1]

    @pytest.fixture(scope="class")
    def profile_dict(self, profile):
        return profile.to_dict()

    def test_real_profile_round_trips(self, profile, tmp_path):
        """Through a written sidecar and back, a real profile's rows are
        its own and diff against the in-memory profile to exactly 0."""
        path = str(tmp_path / "PROFILE_x.json")
        write_profile_sidecar(path, {"q": profile.to_dict()})
        loaded = ProfileSidecar.load(path)["profiles"]["q"]
        assert loaded == _wire(profile_rows(profile))
        assert diff_profiles(profile, loaded) == diff_profiles(profile,
                                                               profile)
        assert diff_profiles(loaded, profile).total_delta == 0.0

    def test_sharded_rows_diff_as_the_profile_does(self, sales_table):
        """Four devices' seconds survive the rows' string device keys."""
        from tests.obs.test_profile_transcripts import (SHARD_SQL,
                                                        sharded_engine)

        on = sharded_engine(sales_table, nvlink=True).profile_sql(
            SHARD_SQL, query_id="s")[1]
        off = sharded_engine(sales_table, nvlink=False).profile_sql(
            SHARD_SQL, query_id="s")[1]
        diff = diff_profiles(_wire(profile_rows(off)),
                             _wire(profile_rows(on)))
        assert diff == diff_profiles(off, on)
        assert len(diff.device_totals()) > 1

    def test_profile_json_files_diff(self, profile, tmp_path):
        """``repro profile-diff`` of two ``repro profile --json`` files."""
        for name in ("a.json", "b.json"):
            (tmp_path / name).write_text(profile.to_json())
        text = diff_baselines(str(tmp_path / "a.json"),
                              str(tmp_path / "b.json"))
        assert text.startswith(f"profile diff  A={profile.query_id}  "
                               f"B={profile.query_id}")
        assert "(delta +0.000 ms)" in text

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
        paths = [row[0] for row in profile_rows(profile_dict)["operators"]]
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
        assert doc["format"] == SIDECAR_FORMAT
        assert doc["profiles"] == {"Q1": {"query_id": "", "operators": [
            ["query#0", 0.0, 1.0, {}, {}]]}}

    def test_a_format_1_sidecar_is_refused(self, tmp_path):
        path = str(tmp_path / "PROFILE_old.json")
        with open(path, "w") as f:
            json.dump({"format": 1, "profiles": {}}, f)
        with pytest.raises(DiffError, match="expected 2"):
            ProfileSidecar.load(path)

    def test_missing_sidecar_names_the_remedy(self, tmp_path):
        with pytest.raises(DiffError, match="--update"):
            ProfileSidecar.load(str(tmp_path / "PROFILE_none.json"))

    @pytest.mark.parametrize("doc, message", [
        ({"rows": []}, "expected a QueryProfile dump"),
        ({"operators": {"start": 0.0}}, "not a profile dump"),
        ({"operators": "query"}, "not a profile dump"),
        ({"operators": []}, "no operator rows"),
        ({"operators": [["query#0", 0.0, 1.0]]}, "not a profile dump"),
    ])
    def test_a_malformed_file_is_a_diff_error(self, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DiffError, match=message):
            diff_baselines(str(path), str(path))

    def test_committed_twins_diff_through_their_sidecars(self):
        text = diff_baselines(
            "benchmarks/baselines/BENCH_bd_insights.json",
            "benchmarks/baselines/BENCH_bd_insights_cache_off.json")
        assert text.splitlines()[:2] == [
            "== differential profile (current vs baseline) ==",
            "queries diffed: 100  end-to-end delta +0.115 ms"]

    def test_committed_sidecars_exist_and_parse(self):
        """Every committed sidecar is format 2, names exactly the query
        ids of its ``BENCH_*`` file, and self-diffs to zero."""
        paths = sorted(glob.glob("benchmarks/baselines/PROFILE_*.json"))
        assert paths
        for path in paths:
            doc = ProfileSidecar.load(path)
            assert doc["format"] == 2, path
            bench = path.replace("PROFILE_", "BENCH_")
            with open(bench) as f:
                assert set(doc["profiles"]) == set(json.load(f)["queries"])
            for qid, data in doc["profiles"].items():
                assert diff_profiles(data, data).total_delta == 0.0, qid

    def test_every_bench_baseline_has_its_sidecar(self, capsys):
        """``bench --update`` writes a sidecar beside each baseline, so
        each committed one (the ``queries`` documents; ``serve-bench``'s
        has ``points`` and none) is committed with it and every ablation
        twin attributes through ``profile-diff``."""
        for bench in sorted(glob.glob("benchmarks/baselines/BENCH_*.json")):
            with open(bench) as f:
                if "queries" in json.load(f):
                    assert os.path.exists(sidecar_path(bench)), bench
        assert main([
            "profile-diff", "benchmarks/baselines/BENCH_over_memory.json",
            "benchmarks/baselines/BENCH_over_memory_partition_off.json",
        ]) == 0
        assert "queries diffed:" in capsys.readouterr().out


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
