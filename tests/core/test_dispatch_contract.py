"""What ``Wave.launch`` promises every launch path, stated once each.

*A lease comes back whatever is raised under it.*  ``launch`` releases
in one ``finally``, so an exception that is not a GPU fault — a bug, a
``MemoryError`` in a host-side gather — propagates unchanged and leaves
no reservation and no outstanding job behind (the section-2.2 scheduler
balances on exactly those two numbers).  At 6af174f the fused launch
was the one site without a ``finally`` and leaked both, for ever.  No
plain SQL statement raises inside a launch (type errors surface at
planning), so the trigger is an injected host-side exception.

*A fault is reported the same way everywhere.*  A device failure names
its device on ``fault.fallback`` and feeds the breaker; pinned-pool
exhaustion names none and feeds nothing.  At 6af174f the segmented sort
descent did neither: its device faults said ``device_id=-1`` and three
staging-pool failures quarantined a healthy device.
"""

import pytest

import repro.core.dispatch as dispatch_module
import repro.gpu.fusion as fusion_module
from repro.faults import FaultPlan, FaultRule
from tests.core.test_dispatch_transcripts import SCENARIOS, build_engine


def assert_no_lease_held(engine):
    for device in engine.devices:
        assert device.outstanding_jobs == 0
        assert [r for r in device.memory.live_reservations
                if r.tag != "cache"] == []


def assert_leases_normally(engine, sql):
    grants = engine.scheduler.grants
    result = engine.execute_sql(sql)
    assert result.profile.offloaded
    assert engine.scheduler.grants > grants
    assert_no_lease_held(engine)


def test_fused_launch_releases_when_a_stage_raises(
        monkeypatch, sales_table, stores_table):
    """The issue's trigger: the fused chain's final gather blows up."""
    fused = next(s for s in SCENARIOS if s.name == "fused")
    engine = build_engine(fused, (sales_table, stores_table), devices=2)

    def broken(*args, **kwargs):
        raise ValueError("host-side gather failed")

    with monkeypatch.context() as patch:
        patch.setattr(fusion_module, "grouping_key_arrays", broken)
        with pytest.raises(ValueError, match="host-side gather failed"):
            engine.execute_sql(fused.sql)
    assert engine.scheduler.grants == 1         # it did hold a lease
    assert_no_lease_held(engine)
    assert_leases_normally(engine, fused.sql)
    decisions = [d.path for d in engine.monitor.decisions_for("")]
    assert decisions[-1] == "gpu-fused"


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_every_launch_path_releases_on_a_foreign_exception(
        scenario, monkeypatch, sales_table, stores_table):
    """The same property for all eleven launch paths: the launch itself
    raises something that is not a ``GpuError``."""
    engine = build_engine(scenario, (sales_table, stores_table), devices=2)

    def broken(*args, **kwargs):
        raise MemoryError("staging gather failed")

    with monkeypatch.context() as patch:
        patch.setattr(dispatch_module, "streamed_launch", broken)
        with pytest.raises(MemoryError, match="staging gather failed"):
            engine.execute_sql(scenario.sql)
    assert engine.scheduler.grants >= 1
    assert_no_lease_held(engine)
    # Nothing heard about it but the caller: no breaker feed, no fault
    # fallback booked, and the next statement leases as if nothing
    # happened.
    assert all(b.consecutive_failures == 0
               for b in engine.scheduler.breakers.values())
    assert engine.registry.get("repro_fault_fallbacks_total") is None
    assert_leases_normally(engine, scenario.sql)


def fault_fallbacks(engine):
    return [s.attributes for s in engine.tracer.spans
            if s.name == "fault.fallback"]


@pytest.mark.parametrize("scenario", [s for s in SCENARIOS if s.faults],
                         ids=lambda s: s.name)
def test_a_device_fault_names_its_device_and_feeds_the_breaker(
        scenario, sales_table, stores_table):
    plan = FaultPlan(rules=(FaultRule(site="launch", probability=1.0),))
    engine = build_engine(scenario, (sales_table, stores_table),
                          devices=4 if scenario.shard else 2, faults=plan)
    engine.execute_sql(scenario.sql)
    fallbacks = fault_fallbacks(engine)
    assert fallbacks
    assert all(f["error"] == "KernelLaunchError" and f["device_id"] >= 0
               for f in fallbacks)
    failures = engine.registry.get("repro_gpu_failures_total")
    assert failures.value == len(fallbacks)


@pytest.mark.parametrize("scenario", [s for s in SCENARIOS if s.faults],
                         ids=lambda s: s.name)
def test_pinned_exhaustion_names_no_device_and_feeds_nothing(
        scenario, sales_table, stores_table):
    engine = build_engine(scenario, (sales_table, stores_table),
                          devices=4 if scenario.shard else 2,
                          pinned_pool_bytes=1024)
    engine.execute_sql(scenario.sql)
    fallbacks = fault_fallbacks(engine)
    assert fallbacks
    assert all(f["error"] == "PinnedMemoryError" and f["device_id"] == -1
               for f in fallbacks)
    assert engine.registry.get("repro_gpu_failures_total") is None
    assert engine.scheduler.quarantined_devices() == []
