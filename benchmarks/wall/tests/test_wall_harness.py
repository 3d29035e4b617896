"""The harness measures what BENCHMARK.json says, and fails loudly."""

from __future__ import annotations

import json

import pytest

import compare
import run
from wallbench import runner, spec as benchspec, stats, tracing, workloads

SPEC = benchspec.load_spec()


@pytest.fixture(autouse=True)
def cheap_calibration(monkeypatch):
    """The 2 M-element loop in a child costs ~1 s a call; not under test."""
    monkeypatch.setattr(stats, "calibrate_isolated", lambda n: 100.0)


def quick_run(name: str, trace: bool, tmp_path) -> dict:
    return runner.run_workload(name, seed=7, seconds=0.0, trace=trace,
                               quick=True, out_dir=tmp_path)


# ---------------------------------------------------------------------------
# Every declared name comes out, with its unit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", benchspec.workload_names(SPEC))
def test_every_declared_metric_is_reported(name, tmp_path, capsys):
    fingerprints = set()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        row = quick_run(name, trace, tmp_path)
        fingerprints.add(row["sim_fingerprint"])
        assert row["correct"] and row["failed"] == 0
        assert row["metrics"].keys() == {m["name"] for m in SPEC[section]}
        for m in SPEC[section]:
            assert row["metrics"][m["name"]]["unit"] == m["unit"]
        runner.print_row(row)
        out = capsys.readouterr().out
        last = json.loads(out.strip().splitlines()[-1])
        assert last.keys() == {"correct", "attempted", "failed", "metrics"}
        for m in SPEC[section]:
            assert f"{m['name']} " in out
    # Same seed, same simulated results, traced or not; end-to-end
    # metrics are never 0; the trace file is Chrome JSON.
    assert len(fingerprints) == 1
    plain = json.loads((tmp_path / f"{name}.trace0.json").read_text())
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert plain["extras"]["ops_failed_share"]["value"] == 0.0
    events = json.loads((tmp_path / f"trace_{name}.json").read_text())
    assert events["traceEvents"] and events["traceEvents"][0]["ph"] == "X"


def test_list_prints_straight_from_the_file(capsys):
    assert run.main(["--list"]) == 0
    out = capsys.readouterr().out
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[section]:
            assert entry["name"] in out


# ---------------------------------------------------------------------------
# Failed ops are counted and turn the exit code non-zero
# ---------------------------------------------------------------------------


def _sabotaged(monkeypatch, sabotage):
    original = workloads.make_workload

    def make(name, seed, quick=False):
        workload = original(name, seed, quick)
        sabotage(workload)
        return workload
    monkeypatch.setattr(workloads, "make_workload", make)


def _main(tmp_path) -> tuple[int, dict]:
    code = run.main(["--workload", "bd_dashboard", "--trace", "0",
                     "--quick", "--out", str(tmp_path)])
    row = json.loads((tmp_path / "bd_dashboard.trace0.json").read_text())
    return code, row


def test_raising_op_is_a_failed_op(monkeypatch, tmp_path):
    def sabotage(workload):
        real = workload.run
        calls = []

        def run_op(op):
            calls.append(op.query_id)
            if calls.count("S01") > 1:      # spare the warm-up pass
                raise RuntimeError("injected by the self-test")
            return real(op)
        workload.run = run_op
    _sabotaged(monkeypatch, sabotage)
    code, row = _main(tmp_path)
    assert code != 0
    assert row["failed"] >= 1 and not row["correct"]
    assert row["extras"]["ops_failed_share"]["value"] > 0


def test_wrong_answer_is_a_failed_op(monkeypatch, tmp_path):
    def sabotage(workload):
        real = workload.reference

        def reference():
            real()
            workload.ref_checksum["S02"] = "corrupted"
        workload.reference = reference
    _sabotaged(monkeypatch, sabotage)
    code, row = _main(tmp_path)
    assert code != 0
    assert row["failed"] >= 1
    assert row["extras"]["ops_failed_share"]["value"] > 0


def test_unfinished_requests_are_failed_ops(tmp_path):
    workload = workloads.make_workload("serving_replay", 7, quick=True)
    from repro.workloads.datagen import generate_database

    workload.build(generate_database(scale=0.01, seed=7))
    workload.warm_up()
    outcome = workload.run(8)
    del outcome.sim.requests[-3:]
    digest = workload.digest(8, outcome)
    assert digest.attempted == 8 * len(workload.queries)
    assert digest.failed == 3


# ---------------------------------------------------------------------------
# Percentiles, calibration, tracing
# ---------------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(99)), 0.90)
    assert stats.percentile(list(range(1, 101)), 0.90) == 90
    assert stats.percentile(list(range(1, 1001)), 0.99) == 990


def test_calibration_drift_marks_the_row_noisy(monkeypatch, tmp_path):
    readings = iter([100.0, 130.0, 125.0])
    monkeypatch.setattr(stats, "calibrate_isolated",
                        lambda n: next(readings))
    row = quick_run("scale_out_sharded", False, tmp_path)
    assert row["noisy"] and row["calib_ms"] == [100.0, 125.0]
    assert {"nproc", "python", "numpy", "scale", "seed",
            "git_sha"} <= row["env"].keys()


def test_calibration_loop_runs_in_a_child():
    assert stats.calibrate_isolated(20_000) > 0


def test_patched_seams_are_restored_and_self_times_add_up():
    originals = [vars(tracing.seam_owner(module, cls))[attr]
                 for module, cls, attr, _ in tracing.SEAMS]
    workload = workloads.make_workload("bd_rolap_offload", 7, quick=True)
    from repro.workloads.datagen import generate_database

    workload.build(generate_database(scale=0.01, seed=7))
    workload.reference()
    result, recorder = runner.run_traced_pass(workload)
    for (module, cls, attr, _), original in zip(tracing.SEAMS, originals):
        assert vars(tracing.seam_owner(module, cls))[attr] is original
    # Layer self times + the unattributed remainder = the traced pass.
    assert sum(result.self_ns.values()) == recorder.root_ns()
    assert recorder.root_ns() <= sum(result.op_ns)
    assert all(d.failed == 0 for d in result.digests)
    hit = {metric for _, metric, *_ in recorder.spans}
    assert {"blu.parse_ms", "blu.scan_ms", "core.groupby_ms",
            "gpu.kernel_groupby_ms", "gpu.launch_ms"} <= hit


# ---------------------------------------------------------------------------
# compare.py verdicts
# ---------------------------------------------------------------------------


WALL = {"name": "wall_pass_s", "unit": "s", "better": "lower", "bound": 0.10}
SIM = {"name": "sim_total_ms", "unit": "ms", "better": "lower",
       "bound": 0.02}


@pytest.mark.parametrize("row,a,b,verdict", [
    (WALL, [1.00, 1.01, 0.99, 1.00], [1.01, 1.00, 1.02, 1.01], "same"),
    (WALL, [1.00, 1.01, 0.99, 1.00], [1.20, 1.21, 1.19, 1.20], "worse"),
    (WALL, [1.00, 1.01, 0.99, 1.00], [0.80, 0.81, 0.79, 0.80], "better"),
    (WALL, [1.00, 1.30, 0.80, 1.10], [1.20, 1.21, 1.19, 1.20],
     "unresolved"),
    (WALL, [1.00], [1.05], "same"),
    (SIM, [50.0, 50.0], [50.0, 50.0], "same"),
    (SIM, [50.0, 50.0], [49.9, 49.9], "better"),
    (SIM, [50.0, 50.0], [52.0, 52.0], "worse"),
])
def test_compare_verdicts(row, a, b, verdict):
    assert compare.judge(row, a, b)["verdict"] == verdict


def test_compare_exit_code(tmp_path, capsys):
    def result(directory, wall, sim):
        directory.mkdir()
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        metrics["wall_pass_s"]["value"] = wall
        metrics["sim_total_ms"]["value"] = sim
        (directory / "RESULT_bd_dashboard.json").write_text(json.dumps({
            "workload": "bd_dashboard",
            "untraced": {"sim_fingerprint": str(sim), "metrics": metrics,
                         "extras": {}},
            "traced": {"metrics": {}}}))
    result(tmp_path / "a", 1.0, 16.0)
    result(tmp_path / "same", 1.04, 16.0)
    result(tmp_path / "slow", 1.3, 16.0)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "same")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "slow")]) == 1
    assert "worse" in capsys.readouterr().out
