"""Unit tests for cost events and query profiles."""

import pytest

from repro.config import HostSpec
from repro.timing import CostEvent, CostLedger, QueryProfile


class TestCostEvent:
    def test_elapsed_uses_degree_cap(self):
        event = CostEvent(op="X", cpu_seconds=10.0, max_degree=4)
        assert event.elapsed(cores=2) == pytest.approx(5.0)
        assert event.elapsed(cores=8) == pytest.approx(2.5)

    def test_elapsed_with_host_applies_smt(self):
        host = HostSpec()
        event = CostEvent(op="X", cpu_seconds=96.0, max_degree=96)
        naive = event.elapsed(96)
        with_smt = event.elapsed(96, host)
        assert with_smt > naive                  # 96 threads != 96 cores

    def test_gpu_seconds_add_serially(self):
        event = CostEvent(op="X", cpu_seconds=4.0, max_degree=4,
                          gpu_seconds=0.5)
        assert event.elapsed(4) == pytest.approx(1.5)
        assert event.uses_gpu

    def test_pure_gpu_event(self):
        event = CostEvent(op="G", gpu_seconds=0.25)
        assert event.elapsed(48) == pytest.approx(0.25)


class TestQueryProfile:
    def _profile(self):
        return QueryProfile("q", gpu_enabled=True, events=[
            CostEvent(op="SCAN", cpu_seconds=2.0, max_degree=2),
            CostEvent(op="GPU-GROUPBY", cpu_seconds=0.0, gpu_seconds=0.5,
                      gpu_memory_bytes=100, max_degree=1),
            CostEvent(op="SORT", cpu_seconds=1.0, max_degree=1),
        ])

    def test_totals(self):
        profile = self._profile()
        assert profile.cpu_core_seconds == pytest.approx(3.0)
        assert profile.gpu_seconds == pytest.approx(0.5)
        assert profile.offloaded
        assert profile.peak_gpu_memory == 100

    def test_elapsed_serial(self):
        profile = self._profile()
        assert profile.elapsed_serial(2) == pytest.approx(1.0 + 0.5 + 1.0)

    def test_breakdown(self):
        breakdown = self._profile().breakdown()
        assert breakdown["GPU-GROUPBY"] == pytest.approx(0.5)
        assert breakdown["SCAN"] == pytest.approx(1.0)

    def test_ledger_accumulates(self):
        ledger = CostLedger()
        ledger.cpu("A", rows=10, cpu_seconds=1.0, max_degree=2)
        ledger.add(CostEvent(op="B"))
        ledger.extend([CostEvent(op="C"), CostEvent(op="D")])
        assert [e.op for e in ledger.events] == ["A", "B", "C", "D"]

    def test_parallel_group_ids_rise_per_ledger(self):
        ledger = CostLedger()
        assert [ledger.claim_parallel_group() for _ in range(3)] == [0, 1, 2]
        assert CostLedger().claim_parallel_group() == 0
