"""Unit tests for the simulated device, transfers and launch records."""

import pytest

from repro.config import GpuSpec
from repro.errors import GpuError
from repro.core.monitoring import PerformanceMonitor
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.gpu.device import GpuDevice, SharedMemoryConfig, make_devices
from repro.gpu.transfer import transfer_seconds
from repro.obs.tracing import Tracer


@pytest.fixture()
def device():
    return GpuDevice(0, GpuSpec())


class TestTransferModel:
    def test_pinned_is_at_least_4x_faster(self):
        """Section 2.1.2: 'more than 4X faster'."""
        spec = GpuSpec()
        nbytes = 100 * 1024 * 1024
        pinned = transfer_seconds(nbytes, spec, pinned=True)
        unpinned = transfer_seconds(nbytes, spec, pinned=False)
        assert unpinned / pinned > 4.0

    def test_zero_bytes_is_free(self):
        assert transfer_seconds(0, GpuSpec()) == 0.0

    def test_setup_overhead_dominates_tiny_transfers(self):
        spec = GpuSpec()
        tiny = transfer_seconds(64, spec)
        assert tiny == pytest.approx(spec.transfer_setup_overhead, rel=0.01)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            transfer_seconds(-1, GpuSpec())


class TestSharedMemoryConfig:
    def test_prefer_shared_is_48_16(self, device):
        config = SharedMemoryConfig.prefer_shared()
        assert config.shared_bytes == 48 * 1024
        assert config.l1_bytes == 16 * 1024
        device.configure_shared_memory(config)
        assert device.shared_bytes_per_smx == 48 * 1024

    def test_invalid_split_rejected(self, device):
        with pytest.raises(GpuError):
            device.configure_shared_memory(
                SharedMemoryConfig(shared_bytes=50 * 1024, l1_bytes=16 * 1024))


class TestLaunch:
    def test_launch_requires_live_reservation(self, device):
        r = device.memory.reserve(1024)
        device.memory.release(r)
        with pytest.raises(GpuError):
            device.launch("k", 0.001, r)

    def test_launch_records_a_span(self, device):
        device.tracer = Tracer()
        r = device.memory.reserve(1 << 20)
        result = device.launch("groupby_regular", 0.002, r, rows=1000,
                               bytes_in=1 << 20, bytes_out=1 << 10)
        device.memory.release(r)
        assert result.total_seconds > 0.002
        launches = [s for s in device.tracer.spans if s.name == "gpu.launch"]
        assert len(launches) == 1
        record = launches[0].attributes
        assert record["kernel"] == "groupby_regular"
        assert record["kernel_seconds"] > 0.002   # includes launch overhead
        assert (record["transfer_in_seconds"]
                + record["transfer_out_seconds"]) > 0

    def test_launch_span_carries_the_exact_result(self, device):
        """The span's timings are the returned ones, bit for bit — an
        injected stall included — not re-derived from span durations."""
        device.tracer = Tracer()
        device.attach_injector(FaultInjector(FaultPlan(rules=(
            FaultRule(site="transfer", stall_seconds=1e-3, nth=(1,)),))))
        r = device.memory.reserve(1 << 20)
        result = device.launch("k", 0.002, r, rows=10, bytes_in=1 << 20,
                               bytes_out=1 << 10)
        device.memory.release(r)
        record = next(s.attributes for s in device.tracer.spans
                      if s.name == "gpu.launch")
        assert result.transfer_in_seconds > 1e-3
        for name in ("kernel_seconds", "transfer_in_seconds",
                     "transfer_out_seconds"):
            assert record[name] == getattr(result, name), name

    def test_monitor_aggregates_launches(self, device):
        monitor = PerformanceMonitor([device])
        r = device.memory.reserve(1 << 20)
        for _ in range(3):
            device.launch("k1", 0.001, r, rows=10, bytes_in=1024)
        device.launch("k2", 0.002, r, rows=20, bytes_in=1024)
        device.memory.release(r)
        rows = {line.split()[0]: line.split()[1:]
                for line in monitor.report().splitlines()[3:]}
        assert rows["k1"][:2] == ["3", "30"]      # calls, rows
        assert rows["k2"][:2] == ["1", "20"]
        assert sum(e["kernel_seconds"] + e["transfer_seconds"]
                   for e in monitor.export_events()) > 0

    def test_launch_trace_records_bytes_moved(self, device):
        device.tracer = Tracer()
        r = device.memory.reserve(1 << 20)
        device.launch("k", 0.001, r, rows=10, bytes_in=1024, bytes_out=256)
        device.launch("k", 0.001, r, rows=10, bytes_in=512)
        device.memory.release(r)
        moved = [(s.name, s.attributes["bytes"]) for s in device.tracer.spans
                 if s.name in ("gpu.transfer_in", "gpu.transfer_out")]
        assert sum(nbytes for _, nbytes in moved) == 1024 + 256 + 512
        assert moved[:2] == [("gpu.transfer_in", 1024),
                             ("gpu.transfer_out", 256)]

    def test_make_devices(self):
        devices = make_devices((GpuSpec(), GpuSpec()))
        assert [d.device_id for d in devices] == [0, 1]


class TestLaunchMetrics:
    """The per-kernel aggregates of the launch spans also surface as
    first-class registry series."""

    def _launched_device(self):
        from repro.obs.metrics import MetricsRegistry

        device = GpuDevice(0, GpuSpec())
        device.metrics = MetricsRegistry()
        device.tracer = Tracer()
        r = device.memory.reserve(1 << 20)
        device.launch("groupby_shared", 0.002, r, rows=100,
                      bytes_in=4096, bytes_out=512)
        device.launch("groupby_shared", 0.003, r, rows=100,
                      bytes_in=2048, bytes_out=256)
        device.memory.release(r)
        return device

    def test_kernel_seconds_total(self):
        device = self._launched_device()
        overhead = device.spec.kernel_launch_overhead
        counter = device.metrics.counter(
            "repro_kernel_seconds_total",
            labelnames=("kernel", "device"))
        value = counter.labels(kernel="groupby_shared", device="0").value
        assert value == pytest.approx(0.005 + 2 * overhead)
        invocations = device.metrics.counter(
            "repro_kernel_invocations_total",
            labelnames=("kernel", "device"))
        assert invocations.labels(kernel="groupby_shared",
                                  device="0").value == 2

    def test_transfer_bytes_total(self):
        device = self._launched_device()
        moved = device.metrics.counter("repro_transfer_bytes_total",
                                       labelnames=("direction",))
        assert moved.labels(direction="in").value == 4096 + 2048
        assert moved.labels(direction="out").value == 512 + 256

    def test_transfer_seconds_total_matches_the_launch_spans(self):
        device = self._launched_device()
        xfer = device.metrics.counter("repro_transfer_seconds_total",
                                      labelnames=("direction",))
        total = (xfer.labels(direction="in").value
                 + xfer.labels(direction="out").value)
        spans = sum(s.attributes["transfer_in_seconds"]
                    + s.attributes["transfer_out_seconds"]
                    for s in device.tracer.spans if s.name == "gpu.launch")
        assert total == pytest.approx(spans)
