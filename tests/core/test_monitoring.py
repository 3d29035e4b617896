"""Unit tests for the integrated performance monitor (section 2.3)."""

import pytest

from repro.config import GpuSpec
from repro.core.dispatch import Dispatcher
from repro.core.monitoring import PerformanceMonitor
from repro.gpu.device import GpuDevice
from repro.timing import CostEvent, QueryProfile


def profile(qid="q", cpu=1.0, gpu=0.0):
    return QueryProfile(qid, gpu_enabled=gpu > 0, events=[
        CostEvent(op="SCAN", cpu_seconds=cpu, max_degree=24),
        CostEvent(op="GPU-GROUPBY", gpu_seconds=gpu, max_degree=1,
                  gpu_memory_bytes=1024, device_id=0),
    ])


def recorder(monitor, query_id="q") -> Dispatcher:
    """The decision-recording half of a dispatcher over ``monitor``."""
    return Dispatcher(scheduler=None, pinned=None, monitor=monitor,
                      query_id=query_id)


def counter(monitor, name) -> float:
    return monitor.registry.get(name).value


class TestRecording:
    def test_counters_follow_decisions(self):
        monitor = PerformanceMonitor()
        for path in ("gpu", "gpu", "cpu-small", "cpu-large", "cpu-fallback"):
            recorder(monitor).record("groupby", path, "")
        assert counter(monitor, "repro_gpu_offloads_total") == 2
        assert counter(monitor, "repro_cpu_small_total") == 1
        assert counter(monitor, "repro_cpu_large_total") == 1
        assert counter(monitor, "repro_reservation_fallbacks_total") == 1

    def test_race_counters_follow_outcomes(self):
        monitor = PerformanceMonitor()
        monitor.record_race(cancelled=("groupby_biglock",))
        monitor.record_race(cancelled=())
        assert counter(monitor, "repro_kernels_raced_total") == 2
        assert counter(monitor, "repro_kernels_cancelled_total") == 1

    def test_overflow_retries_counter(self):
        monitor = PerformanceMonitor()
        monitor.record_overflow_retries(2)
        monitor.record_overflow_retries(0)      # no-op
        monitor.record_overflow_retries(1)
        assert counter(monitor, "repro_overflow_retries_total") == 3

    def test_own_counters_are_registered_at_zero_and_unannounced(self):
        monitor = PerformanceMonitor()
        deltas = []
        monitor.registry.listeners.append(
            lambda name, labels, amount: deltas.append(name))
        assert counter(monitor, "repro_kernels_raced_total") == 0
        monitor.count("repro_kernels_raced_total")
        monitor.count("repro_kernels_raced_total")
        assert counter(monitor, "repro_kernels_raced_total") == 2
        assert deltas == []

    def test_profiles_accumulate(self):
        monitor = PerformanceMonitor()
        monitor.record_profile(profile(cpu=2.0, gpu=0.5))
        monitor.record_profile(profile(cpu=1.0))
        assert monitor.total_cpu_core_seconds == pytest.approx(3.0)
        assert monitor.total_gpu_seconds == pytest.approx(0.5)

    def test_decisions_for_query(self):
        monitor = PerformanceMonitor()
        recorder(monitor, "a").record("groupby", "gpu", "", device_id=1)
        recorder(monitor, "b").record("sort", "cpu-small", "")
        assert len(monitor.decisions_for("a")) == 1
        assert monitor.decisions_for("a")[0].operator == "groupby"
        assert monitor.decisions_for("a")[0].device_id == 1


class TestViews:
    def test_operator_breakdown_sums_across_queries(self):
        monitor = PerformanceMonitor()
        monitor.record_profile(profile(cpu=1.0, gpu=0.25))
        monitor.record_profile(profile(cpu=1.0, gpu=0.25))
        breakdown = monitor.operator_breakdown()
        assert breakdown["GPU-GROUPBY"] == pytest.approx(0.5)
        assert breakdown["SCAN"] > 0

    def test_report_renders_devices(self):
        device = GpuDevice(0, GpuSpec())
        monitor = PerformanceMonitor([device])
        r = device.memory.reserve(1 << 20)
        device.launch("groupby_regular", 0.001, r, rows=10, bytes_in=4096)
        device.memory.release(r)
        monitor.record_profile(profile())
        report = monitor.report()
        assert "performance monitor" in report
        assert "groupby_regular" in report
        assert "operator breakdown" in report

    def test_empty_report(self):
        assert "queries=0" in PerformanceMonitor().report()


class TestExportEvents:
    def test_export_covers_all_record_kinds(self):
        from repro.config import GpuSpec
        from repro.gpu.device import GpuDevice

        device = GpuDevice(0, GpuSpec())
        monitor = PerformanceMonitor([device])
        r = device.memory.reserve(1 << 20)
        device.launch("groupby_regular", 0.001, r, rows=10, bytes_in=4096)
        device.memory.release(r)
        monitor.record_profile(profile(cpu=1.0, gpu=0.25))
        recorder(monitor).record("groupby", "gpu", "r",
                                 kernel="groupby_regular", device_id=0)
        events = monitor.export_events()
        kinds = {e["kind"] for e in events}
        assert kinds == {"query", "decision", "kernel"}
        query = next(e for e in events if e["kind"] == "query")
        assert query["offloaded"]
        assert query["events"][1]["op"] == "GPU-GROUPBY"

    def test_export_is_json_serialisable(self):
        import json

        monitor = PerformanceMonitor()
        monitor.record_profile(profile())
        json.dumps(monitor.export_events())
