"""Chaos runs (``-m chaos``): whole workloads under lossy fault plans.

These exercise the acceptance criteria end to end: under the default
lossy plan — and under 100% device loss — every BD Insights query must
return results bit-identical to the CPU-only engine, the recovery
metrics must appear in the Prometheus export, and the fallback spans in
the Chrome trace.
"""

import dataclasses

import pytest

from repro.config import paper_testbed
from repro.core import GpuAcceleratedEngine
from repro.faults import FaultPlan
from repro.workloads.driver import WorkloadDriver
from repro.workloads.query import QueryCategory, SessionGroup

pytestmark = pytest.mark.chaos


def _queries(category):
    from repro.workloads.bdinsights import queries_by_category

    return queries_by_category(category)


@pytest.fixture()
def chaos_driver(bd_catalog, bd_config):
    def build(plan):
        return WorkloadDriver(bd_catalog,
                              dataclasses.replace(bd_config, faults=plan))

    return build


class TestWorkloadParity:
    def test_lossy_plan_full_parity(self, chaos_driver):
        driver = chaos_driver(FaultPlan.lossy())
        queries = _queries(QueryCategory.COMPLEX) \
            + _queries(QueryCategory.INTERMEDIATE)
        assert driver.verify_parity(queries) == []
        # The run must actually have been chaotic, not quietly fault-free.
        assert driver.gpu_engine.injector.total_injected() > 0

    def test_total_device_loss_full_parity(self, chaos_driver):
        """100% device loss: every query still answers, CPU-identically."""
        driver = chaos_driver(FaultPlan.total_device_loss())
        queries = _queries(QueryCategory.COMPLEX)
        assert driver.verify_parity(queries) == []
        engine = driver.gpu_engine
        assert engine.injector.injected.get("device_loss", 0) >= 1
        dead = [d.device_id for d in engine.devices if not d.alive]
        assert dead, "no device ever died — the plan was not exercised"
        assert set(dead) <= set(engine.scheduler.quarantined_devices())


class TestChaosObservability:
    @pytest.fixture()
    def broken_device_engine(self, small_catalog):
        """Device 0 fails every launch: deterministic quarantine."""
        config = paper_testbed()
        thresholds = dataclasses.replace(config.thresholds,
                                         t1_min_rows=5_000,
                                         sort_min_rows=5_000)
        config = dataclasses.replace(
            config, thresholds=thresholds,
            faults=FaultPlan.parse("launch@0:p=1.0"))
        engine = GpuAcceleratedEngine(small_catalog, config=config)
        for i in range(6):
            engine.execute_sql(
                "SELECT s_store, SUM(s_paid) AS paid FROM sales "
                "GROUP BY s_store", query_id=f"chaos-{i}")
        return engine

    def test_quarantine_and_injection_metrics_exported(
            self, broken_device_engine):
        text = broken_device_engine.prometheus()
        assert 'repro_faults_injected_total{site="launch"}' in text
        assert 'repro_gpu_quarantined{device="0"} 1' in text
        assert "repro_fault_fallbacks_total" in text
        assert "repro_gpu_quarantine_trips_total 1" in text

    def test_fallback_spans_in_chrome_trace(self, broken_device_engine):
        names = [s.name for s in broken_device_engine.tracer.spans]
        assert "fault.injected" in names
        assert "fault.fallback" in names
        assert "scheduler.quarantine" in names
        trace = broken_device_engine.chrome_trace()
        trace_names = {e.get("name") for e in trace["traceEvents"]}
        assert "fault.fallback" in trace_names

    def test_queries_keep_answering_after_quarantine(
            self, broken_device_engine, small_catalog):
        from repro.blu import BluEngine
        from repro.workloads.driver import tables_match

        want = BluEngine(small_catalog).execute_sql(
            "SELECT s_store, SUM(s_paid) AS paid FROM sales "
            "GROUP BY s_store").table
        got = broken_device_engine.execute_sql(
            "SELECT s_store, SUM(s_paid) AS paid FROM sales "
            "GROUP BY s_store").table
        assert tables_match(got, want)
        # Device 1 is healthy, so the engine still offloads.
        assert broken_device_engine.registry.get(
            "repro_gpu_offloads_total").value > 0


class TestChaosServing:
    def test_device_loss_degrades_the_tail_with_full_parity(
            self, chaos_driver, bd_catalog, bd_config):
        """Losing every GPU under concurrent serving pushes the whole
        latency distribution past the healthy tail, while the
        CPU-fallback results stay bit-identical to the baseline engine."""
        queries = _queries(QueryCategory.COMPLEX)
        healthy = WorkloadDriver(bd_catalog, bd_config)
        broken = chaos_driver(FaultPlan.total_device_loss())

        group = [SessionGroup("session", 8, queries)]
        good = healthy.closed_loop(group)
        bad = broken.closed_loop(group)
        assert good.offload_ratio() > 0.0
        assert bad.offload_ratio() == 0.0
        assert bad.hist.p50 > good.hist.p999, \
            "device loss did not visibly degrade the latency tail"

        # The degraded run still answers every query CPU-identically.
        assert broken.verify_parity(queries) == []


class TestChaosStreams:
    def test_closed_loop_completes_under_lossy_plan(self, chaos_driver):
        driver = chaos_driver(FaultPlan.lossy())
        queries = _queries(QueryCategory.SIMPLE)
        result = driver.closed_loop([SessionGroup("stream", 4, queries)],
                                    degree=24, loops=2).sim
        assert result.queries_completed == 4 * len(queries) * 2
        assert result.makespan > 0
