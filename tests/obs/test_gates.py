"""The ablation matrix (``repro bench --gate``): each relation trips on
a violating pair and passes on an improving one, one real gate runs end
to end, and a counting guard pins that the gate layer is written once.
"""

import ast
import copy
import os
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.config import KNOBS
from repro.obs import bench

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent


def doc(total_ms=10.0, bytes_moved=100, launches=4, checksum="aa",
        classes=("complex",), prefix=""):
    """A minimal BENCH-shaped document with one query per class."""
    return {
        "classes": {cls: {"total_ms": total_ms, "bytes_moved": bytes_moved,
                          "kernel_launches": launches} for cls in classes},
        "queries": {f"{prefix}{cls}-q": {"checksum": checksum}
                    for cls in classes},
    }


class TestRelations:
    def test_strictly_lower_passes_on_an_improving_pair(self):
        verdict = bench.strictly_lower(doc(bytes_moved=90), doc(),
                                       "bytes_moved", "elided nothing")
        assert verdict.ok and "90 against 100" in verdict.notes[0]

    @pytest.mark.parametrize("on", [100, 120])
    def test_strictly_lower_trips_on_equal_or_worse(self, on):
        verdict = bench.strictly_lower(
            doc(bytes_moved=on), doc(), "bytes_moved",
            "column cache elided no PCIe traffic")
        assert verdict.failures == [
            f"column cache elided no PCIe traffic: {on} >= 100"]

    def test_strictly_lower_sums_over_classes_and_shows_ms_to_3_places(self):
        verdict = bench.strictly_lower(
            doc(total_ms=2.0, classes=("a", "b")), doc(total_ms=3.5),
            "total_ms", "stream pipeline saved no simulated latency")
        assert verdict.failures == [
            "stream pipeline saved no simulated latency: 4.000 >= 3.500"]

    def test_same_answers(self):
        assert bench.same_answers(doc(), doc(total_ms=5.0), "changed").ok
        verdict = bench.same_answers(
            doc(), doc(checksum="bb"), "pipelining changed query answers")
        assert verdict.failures == [
            "pipelining changed query answers: ['complex-q']"]

    def test_ran_partitioned(self):
        def profile(*paths):
            return {"offload_decisions": [{"path": p} for p in paths]}

        assert bench.ran_partitioned(
            {"Q1": profile("gpu-partitioned", "gpu")}).ok
        verdict = bench.ran_partitioned({
            "Q1": profile("gpu-partitioned", "cpu-fallback"),
            "Q2": profile("cpu-large")})
        assert verdict.failures == [
            "out-of-core gate: Q1: T3 fallback ['cpu-fallback']; "
            "Q2: never partitioned (['cpu-large']); "
            "Q2: T3 fallback ['cpu-large']"]

    def test_speedup_floor_reads_the_committed_denominator(self):
        committed = doc(total_ms=90.0, classes=("devices_1",))
        fast = doc(total_ms=30.0, classes=("devices_1", "devices_4"))
        assert bench.speedup_floor(fast, committed).ok
        slow = doc(total_ms=45.0, classes=("devices_1", "devices_4"))
        assert bench.speedup_floor(slow, committed).failures == [
            "scale-out gate: 4-device speedup 2.00x < 3.0x over the "
            "committed 1-device run"]

    def test_same_answers_across_counts(self):
        ladder = doc(classes=("C1",), prefix="d1:")
        ladder["queries"].update(doc(classes=("C1",),
                                     prefix="d4:")["queries"])
        assert bench.same_answers_across_counts(ladder).ok
        ladder["queries"]["d4:C1-q"]["checksum"] = "bb"
        assert bench.same_answers_across_counts(ladder).failures == [
            "scale-out gate: checksums diverged across device counts: "
            "['C1-q']"]


class TestGateRows:
    def test_every_row_wires_its_relations_to_sides_it_runs(self):
        for gate in bench.GATES:
            on = doc(total_ms=1.0, bytes_moved=1, launches=1,
                     classes=("devices_1", "devices_4"), prefix="d1:")
            worse = doc(classes=("devices_1", "devices_4"), prefix="d1:")
            sides = {name: copy.deepcopy(worse) for name in gate.sides}
            sides.update(on=on, committed=worse, profiles={})
            for relation in gate.relations:
                assert relation(sides).ok, gate.name

    def test_off_sides_set_only_off_values_and_name_committed_twins(self):
        for gate in bench.GATES:
            for side in gate.sides.values():
                for key, value in side.knobs.items():
                    assert value == KNOBS[key].off, (gate.name, key)
                if side.twin:
                    assert (REPO / bench.BASELINE_DIR / side.twin).is_file()

    def test_unknown_gate(self):
        with pytest.raises(bench.BenchError, match="unknown gate"):
            bench.run_gate("nope")


@pytest.fixture(scope="module")
def in_repo_root():
    cwd = os.getcwd()
    os.chdir(REPO)      # committed baselines are named relative to it
    yield
    os.chdir(cwd)


class TestRealGate:
    def test_cache_gate_holds_on_the_complex_class(self, in_repo_root,
                                                   capsys):
        assert main(["bench", "--gate", "cache",
                     "--classes", "complex"]) == 0
        out = capsys.readouterr().out
        assert "== gate cache: off side ==" in out and "cache=0.0" in out
        assert out.rstrip().endswith("OK    gate cache holds")

    def test_a_slowed_on_side_trips_the_overlap_relation(self, in_repo_root,
                                                         capsys):
        assert main(["bench", "--gate", "overlap", "--classes", "complex",
                     "--slowdown", "3"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  stream pipeline saved no simulated latency: " in out
        assert "FAIL  BENCH_bd_insights.json: complex: p50_ms regressed" \
            in out

    def test_gate_and_workload_are_exclusive(self, capsys):
        assert main(["bench"]) == 1
        assert main(["bench", "bd_insights", "--gate", "cache"]) == 1
        assert capsys.readouterr().out.count("exactly one") == 2


# ---------------------------------------------------------------------------
# Counting guard: the gate layer is written once
# ---------------------------------------------------------------------------


def _trees(*names):
    return {name: ast.parse((SRC / name).read_text()) for name in names}


GATE_LAYER = ("obs/baseline.py", "obs/bench.py", "obs/serving.py",
              "obs/diff.py", "cli.py", "config.py")


def _definitions(kind):
    return [(name, node.name) for name, tree in _trees(*GATE_LAYER).items()
            for node in ast.walk(tree) if isinstance(node, kind)]


def _fields(cls):
    tree = ast.parse((SRC / "obs" / f"{cls[0]}.py").read_text())
    node = next(n for n in ast.walk(tree)
                if isinstance(n, ast.ClassDef) and n.name == cls[1])
    return {stmt.target.id for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)}


class TestWrittenOnce:
    def test_one_comparison_class(self):
        assert [d for d in _definitions(ast.ClassDef)
                if d[1].endswith("Comparison")] \
            == [("obs/baseline.py", "Comparison")]

    def test_one_relative_delta(self):
        assert [d for d in _definitions(ast.FunctionDef)
                if d[1] == "_relative_delta"] \
            == [("obs/baseline.py", "_relative_delta")]

    def test_one_function_opens_a_baseline_path(self):
        loaders = [
            (name, fn.name)
            for name, tree in _trees(*GATE_LAYER).items()
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for call in ast.walk(fn) if isinstance(call, ast.Call)
            and ast.unparse(call.func) == "json.load"]
        assert loaders == [("obs/baseline.py", "load")]

    def test_cli_spells_no_knob(self):
        source = (SRC / "cli.py").read_text()
        tree = ast.parse(source)
        literals = {node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)}
        assert not literals & {row.flag for row in KNOBS.values()}
        replaced = [
            kw.arg for node in ast.walk(tree) if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "dataclasses.replace"
            for kw in node.keywords]
        assert not set(replaced) & set(KNOBS)

    def test_results_carry_one_config_mapping_not_a_field_per_knob(self):
        for cls in (("bench", "BenchResult"), ("serving", "SweepResult")):
            fields = _fields(cls)
            assert "config" in fields, cls
            assert not fields & set(KNOBS), cls

    def test_every_committed_baseline_is_named_by_the_gate_layer(self):
        primaries = {os.path.basename(bench.baseline_path(workload))
                     for workload in bench.WORKLOADS}
        primaries.add("BENCH_serving_sweep.json")
        named = primaries | {side.twin for gate in bench.GATES
                             for side in gate.sides.values() if side.twin}
        named |= {"PROFILE_" + name[len("BENCH_"):] for name in named}
        committed = set(os.listdir(REPO / bench.BASELINE_DIR))
        assert committed <= named, sorted(committed - named)
