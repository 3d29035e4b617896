"""Integration tests for the workload driver (serial + simulated modes)."""

import pytest

from repro.workloads.bdinsights import queries_by_category
from repro.workloads.cognos_rolap import (
    cognos_rolap_queries,
    estimate_gpu_memory_requirement,
    screen_queries,
)
from repro.workloads.driver import WorkloadDriver
from repro.workloads.query import QueryCategory, SessionGroup
from repro.workloads.scenarios import figure8_thread_groups


@pytest.fixture(scope="module")
def driver(bd_catalog_module, bd_config_module):
    return WorkloadDriver(bd_catalog_module, bd_config_module)


@pytest.fixture(scope="module")
def bd_catalog_module():
    from repro.workloads.datagen import generate_database

    return generate_database(scale=0.02, seed=11)


@pytest.fixture(scope="module")
def bd_config_module(bd_catalog_module):
    from repro.workloads.datagen import scaled_config

    return scaled_config(bd_catalog_module)


class TestProfiles:
    def test_profile_cached(self, driver):
        query = queries_by_category(QueryCategory.COMPLEX)[0]
        p1 = driver.profile(query, gpu=True)
        p2 = driver.profile(query, gpu=True)
        assert p1 is p2

    def test_gpu_and_cpu_profiles_differ(self, driver):
        query = queries_by_category(QueryCategory.COMPLEX)[0]
        gpu = driver.profile(query, gpu=True)
        cpu = driver.profile(query, gpu=False)
        assert gpu.offloaded
        assert not cpu.offloaded

    def test_elapsed_positive(self, driver):
        query = queries_by_category(QueryCategory.SIMPLE)[0]
        assert driver.elapsed_ms(query, gpu=False) > 0

    def test_degree_clamping_slows_narrow_runs(self, driver):
        query = queries_by_category(QueryCategory.COMPLEX)[1]
        wide = driver.elapsed_ms(query, gpu=False, degree=64)
        narrow = driver.elapsed_ms(query, gpu=False, degree=8)
        assert narrow > wide


class TestSerialRuns:
    def test_run_serial_covers_all_queries(self, driver):
        queries = queries_by_category(QueryCategory.COMPLEX)
        runs = driver.run_serial(queries, gpu=True)
        assert [r.query_id for r in runs] == [q.query_id for q in queries]
        assert all(r.elapsed_ms > 0 for r in runs)

    def test_complex_queries_gain_from_gpu(self, driver):
        queries = queries_by_category(QueryCategory.COMPLEX)
        on = sum(r.elapsed_ms for r in driver.run_serial(queries, gpu=True))
        off = sum(r.elapsed_ms for r in driver.run_serial(queries, gpu=False))
        assert on < off

    def test_simple_queries_never_offload(self, driver):
        queries = queries_by_category(QueryCategory.SIMPLE)[:20]
        runs = driver.run_serial(queries, gpu=True)
        assert not any(r.offloaded for r in runs)


class TestMemoryScreen:
    def test_34_of_46_runnable(self, driver):
        """Section 5.1.2: 12 of the 46 ROLAP queries exceed the K40."""
        runnable, oversized = screen_queries(driver.gpu_engine)
        assert len(runnable) == 34
        assert len(oversized) == 12

    def test_requirement_estimates_positive_for_groupbys(self, driver):
        query = cognos_rolap_queries()[1]        # Q2 groups heavily
        need = estimate_gpu_memory_requirement(driver.gpu_engine, query)
        assert need > 0


class TestSimulatedModes:
    def test_stream_throughput_gain_grows_with_streams(self, driver):
        runnable, _ = screen_queries(driver.gpu_engine)
        queries = runnable[:10]
        gains = []
        for streams in (1, 2):
            group = [SessionGroup("stream", streams, queries)]
            on = driver.closed_loop(group, gpu=True,
                                    degree=48).throughput_per_hour()
            off = driver.closed_loop(group, gpu=False,
                                     degree=48).throughput_per_hour()
            gains.append((on - off) / off)
        assert gains[1] > gains[0] > 0

    def test_group_simulation_produces_memory_trace(self, driver):
        result = driver.closed_loop(figure8_thread_groups(),
                                    degree=driver.PROFILE_DEGREE).sim
        assert result.queries_completed > 0
        samples = [s for log in result.device_memory_logs.values()
                   for s in log]
        assert samples


class TestShardedProfiles:
    @pytest.fixture(scope="class")
    def sharded_driver(self, bd_catalog_module, bd_config_module):
        import dataclasses

        config = dataclasses.replace(
            bd_config_module,
            gpus=tuple(bd_config_module.gpus[0] for _ in range(4)),
            shard_enabled=True,
            nvlink_enabled=True,
            fusion_enabled=False,
        )
        return WorkloadDriver(bd_catalog_module, config,
                              enable_join_offload=True)

    def test_sharded_profiles_carry_parallel_groups(self, sharded_driver):
        """Sharded execution books one cost event per device and relies
        on ``parallel_group`` collapsing them to the slowest shard."""
        query = queries_by_category(QueryCategory.COMPLEX)[0]
        profile = sharded_driver.profile(query, gpu=True)
        assert any(e.parallel_group >= 0 for e in profile.events)

    def test_degree_clamp_preserves_parallel_groups(self, sharded_driver):
        """Regression: ``_profile_at_degree`` rebuilds the cost events to
        clamp ``max_degree``; dropping ``parallel_group`` there would
        serialize the per-shard events and re-inflate narrow-degree
        estimates."""
        query = queries_by_category(QueryCategory.COMPLEX)[0]
        base = sharded_driver.profile(query, gpu=True)
        clamped = sharded_driver._profile_at_degree(query, gpu=True,
                                                    degree=8)
        assert [e.parallel_group for e in clamped.events] \
            == [e.parallel_group for e in base.events]

    def test_sharded_checksums_match_cpu(self, sharded_driver):
        query = queries_by_category(QueryCategory.COMPLEX)[0]
        assert sharded_driver.result_checksum(query, gpu=True) \
            == sharded_driver.result_checksum(query, gpu=False)
