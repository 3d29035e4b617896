"""Postmortem correlation: a flight-record snapshot from a chaos run
must reduce to the causal incident chain — fault -> CPU fallback ->
quarantine -> queue pressure — and noise must stay out."""

import dataclasses

import pytest

from repro.obs.postmortem import build_postmortem
from repro.obs.recorder import FlightEvent, FlightSnapshot


def _snap(events, trigger="manual"):
    return FlightSnapshot(trigger=trigger, time=1.0, dropped=0,
                          capacity=64, events=tuple(events))


def _event(seq, name, time=0.0, kind="instant", **attrs):
    return FlightEvent(time=time, seq=seq, kind=kind, name=name,
                       attributes=attrs)


class TestCorrelation:
    def test_full_chain_in_causal_order(self):
        report = build_postmortem(_snap([
            _event(0, "fault.injected", 0.001, site="device_loss",
                   device_id=0),
            _event(1, "breaker.transition", 0.001, kind="breaker",
                   device_id=0, **{"from": "closed", "to": "open"}),
            _event(2, "fault.fallback", 0.002, operator="groupby",
                   error="DeviceLostError"),
            _event(3, "cache.invalidate", 0.002, device_id=0, entries=2,
                   bytes=1024, reason="device_lost"),
            _event(4, "scheduler.dispatch", 0.003, kind="dispatch",
                   granted=False, device_id=None, memory_bytes=4096),
        ]))
        assert report.chain == ["fault", "fallback", "quarantine",
                                "cache_invalidation", "queue_pressure"]
        stages = [entry.stage for entry in report.timeline]
        assert stages == ["fault", "quarantine", "fallback",
                          "cache_invalidation", "queue_pressure"]

    def test_noise_is_excluded(self):
        report = build_postmortem(_snap([
            _event(0, "query", 0.001, kind="span", query_id="Q1"),
            _event(1, "gpu.kernel", 0.002, kind="span"),
            _event(2, "scheduler.dispatch", 0.003, kind="dispatch",
                   granted=True, device_id=1, memory_bytes=4096),
            _event(3, "breaker.transition", 0.004, kind="breaker",
                   device_id=0, **{"from": "open", "to": "half-open"}),
            _event(4, "repro_gpu_offloads_total", 0.005, kind="metric",
                   amount=1),
        ]))
        assert report.timeline == []
        assert report.chain == []
        assert "no incident markers" in report.to_text()

    def test_events_ordered_by_time_then_seq(self):
        report = build_postmortem(_snap([
            _event(9, "fault.injected", 0.005, site="launch"),
            _event(2, "fault.injected", 0.001, site="launch"),
            _event(3, "fault.injected", 0.001, site="reserve"),
        ]))
        keys = [(e.event.time, e.event.seq) for e in report.timeline]
        assert keys == sorted(keys)

    def test_text_and_html_renderings(self):
        report = build_postmortem(_snap([
            _event(0, "fault.injected", 0.001, site="device_loss",
                   device_id=1),
            _event(1, "breaker.transition", 0.002, kind="breaker",
                   device_id=1, **{"from": "closed", "to": "open"}),
        ], trigger="breaker.trip"))
        text = report.to_text()
        assert "causal chain: fault -> quarantine" in text
        assert "device=1" in text
        assert "breaker closed -> open on device 1" in text
        page = report.to_html()
        assert page.startswith("<!DOCTYPE html>")
        assert "quarantine" in page
        data = report.to_dict()
        assert data["chain"] == ["fault", "quarantine"]
        assert len(data["timeline"]) == 2

    def test_write_html(self, tmp_path):
        report = build_postmortem(_snap([
            _event(0, "fault.injected", 0.0, site="launch")]))
        path = str(tmp_path / "pm.html")
        assert report.write_html(path) == path
        assert "<html" in open(path).read()


class TestDescribe:
    @pytest.mark.parametrize("event, line", [
        (_event(0, "fault.fallback", operator="sort",
                reason="no admissible device"),
         "CPU fallback: sort (no admissible device)"),
        (_event(0, "fault.fallback", operator="join"),
         "CPU fallback: join"),
        (_event(0, "scheduler.quarantine", device_id=2, alive=False),
         "device 2 quarantined (alive=False)"),
        (_event(0, "cache.invalidate", device_id=0, entries=3, bytes=512,
                reason="device_lost"),
         "cache invalidated on device 0: 3 segments, 512 B (device_lost)"),
        (_event(0, "scheduler.dispatch", kind="dispatch", granted=False,
                memory_bytes=4096),
         "dispatch rejected: 4096 B request had no admissible device"),
        (_event(0, "custom.mark", zeta=1, alpha="x", duration=0.5),
         "custom.mark alpha=x zeta=1"),
        (_event(0, "fault.injected"), "fault injected: site=? device=?"),
    ], ids=["fallback-reason", "fallback-bare", "quarantine", "invalidate",
            "rejection", "other-sorted-no-duration", "fault-unknowns"])
    def test_one_line_per_event(self, event, line):
        from repro.obs.postmortem import TimelineEntry

        assert TimelineEntry(stage="", event=event).describe() == line


class TestReport:
    def test_breaker_trip_alone_is_a_quarantine(self):
        report = build_postmortem(_snap([
            _event(0, "breaker.transition", 0.002, kind="breaker",
                   device_id=0, **{"from": "half-open", "to": "open"}),
        ], trigger="breaker.trip"))
        assert report.chain == ["quarantine"]
        assert report.stages == {"quarantine": 1}

    def test_stage_counts_line_sorted_by_stage(self):
        report = build_postmortem(_snap([
            _event(0, "fault.injected", 0.001, site="launch"),
            _event(1, "fault.injected", 0.002, site="launch"),
            _event(2, "scheduler.dispatch", 0.003, kind="dispatch",
                   granted=False, memory_bytes=1),
        ]))
        assert report.to_text().splitlines()[-1] == (
            "stage counts: fault=2  queue_pressure=1")

    def test_timeline_offsets_are_relative_to_the_first_entry(self):
        report = build_postmortem(_snap([
            _event(0, "query", 0.0005, kind="span"),
            _event(1, "fault.injected", 0.010, site="launch"),
            _event(2, "fault.fallback", 0.0125, operator="groupby"),
        ]))
        lines = [ln for ln in report.to_text().splitlines()
                 if ln.startswith("  [")]
        assert lines[0].startswith("  [      +0.000ms] fault")
        assert lines[1].startswith("  [      +2.500ms] fallback")

    def test_empty_snapshot_reports_nothing_to_correlate(self):
        report = build_postmortem(_snap([]))
        text = report.to_text()
        assert "(no correlatable events)" in text
        assert "stage counts" not in text
        assert report.to_dict() == {
            "trigger": "manual", "time": 1.0, "dropped": 0, "chain": [],
            "stages": {}, "timeline": []}

    def test_to_dict_timeline_rows(self):
        report = build_postmortem(_snap([
            _event(7, "fault.injected", 0.003, site="reserve",
                   device_id=1)]))
        assert report.to_dict()["timeline"] == [{
            "stage": "fault", "time": 0.003, "seq": 7,
            "name": "fault.injected",
            "description": "fault injected: site=reserve device=1"}]

    def test_html_escapes_trigger_and_descriptions(self):
        report = build_postmortem(_snap([
            _event(0, "fault.fallback", 0.001, operator="<join>",
                   error="A&B")], trigger="<manual>"))
        page = report.to_html()
        assert "&lt;manual&gt;" in page and "<manual>" not in page
        assert "CPU fallback: &lt;join&gt; (A&amp;B)" in page
        assert "causal chain: fallback" in page


@pytest.mark.chaos
class TestChaosFlightRecord:
    def test_total_device_loss_dumps_snapshot_with_causal_chain(
            self, bd_catalog, bd_config, tmp_path):
        """The acceptance criterion: a chaos run that loses every GPU
        under concurrent serving auto-dumps a flight-record snapshot on
        each breaker trip, and the last one's postmortem timeline holds
        the fault -> fallback -> quarantine chain."""
        from repro.faults import FaultPlan
        from repro.workloads.bdinsights import queries_by_category
        from repro.workloads.driver import WorkloadDriver
        from repro.workloads.query import QueryCategory, SessionGroup

        queries = queries_by_category(QueryCategory.COMPLEX)
        broken = WorkloadDriver(
            bd_catalog, dataclasses.replace(
                bd_config, faults=FaultPlan.total_device_loss()))
        broken.gpu_engine.recorder.dump_dir = str(tmp_path)
        broken.closed_loop([SessionGroup("session", 8, queries)])

        # One snapshot per device whose breaker tripped OPEN, and no
        # other automatic trigger.
        snapshots = sorted(tmp_path.glob("flight_*.jsonl"))
        assert [p.name for p in snapshots] == [
            "flight_001_breaker_trip.jsonl", "flight_002_breaker_trip.jsonl"]
        assert len(sorted(tmp_path.glob("flight_*.html"))) == 2

        # The second trip's snapshot correlates into the full story.
        report = build_postmortem(FlightSnapshot.load(str(snapshots[-1])))
        assert report.snapshot.trigger == "breaker.trip"
        assert report.chain == ["fault", "fallback", "quarantine"]
        # The timeline itself is causally ordered: the first fault
        # precedes the first fallback and the first quarantine in
        # simulated time.
        first = {entry.stage: entry.event.time
                 for entry in reversed(report.timeline)}
        assert first["fault"] <= first["fallback"]
        assert first["fault"] <= first["quarantine"]
