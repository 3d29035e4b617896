"""Extension — GPU hash join (the paper's §6 future-work item).

Not a paper artefact: the prototype keeps joins on the host.  This test
implements the study the authors said they wanted to run next, sweeping
the probe-side size of an FK join and comparing the CPU hash join against
the device kernel (transfers included), plus an engine-level comparison on
a join-heavy query with offload enabled.
"""

import numpy as np

from repro.config import CostModel, GpuSpec, HostSpec
from repro.gpu.kernels.join import HashJoinKernel
from repro.gpu.transfer import transfer_seconds

# Two regimes: a dimension-sized build table (fits the CPU's LLC, probes
# are cheap on the host) and a fact-sized one (every probe misses cache).
# In the large regime the probe side must amortise shipping and building
# the big table on the device, so its sweep reaches further.
BUILD_SMALL = 4_000
PROBES_SMALL = (10_000, 50_000, 200_000, 800_000)
BUILD_LARGE = 3_000_000
PROBES_LARGE = (200_000, 800_000, 3_200_000)


def _gpu_time(kernel, spec, build, probe):
    result = kernel.run(build, probe)
    staged = len(build) * 8 + len(probe) * 4
    return (spec.kernel_launch_overhead
            + transfer_seconds(staged, spec)
            + result.kernel_seconds
            + transfer_seconds(len(result.left_idx) * 4, spec))


def _cpu_time(cost, host, build_rows, probe_rows):
    from repro.blu.operators.join import cpu_probe_rate

    return (build_rows / cost.cpu_join_build_rate
            + probe_rows / cpu_probe_rate(build_rows, cost)) \
        / host.effective_capacity(48)


def test_ext_gpu_join_kernel_sweep():
    cost = CostModel()
    spec = GpuSpec()
    host = HostSpec()
    kernel = HashJoinKernel(cost)
    rng = np.random.default_rng(41)

    def run():
        rows = []
        for build_rows, label, probe_sizes in (
                (BUILD_SMALL, "dim (in cache)", PROBES_SMALL),
                (BUILD_LARGE, "fact (uncached)", PROBES_LARGE)):
            build = np.arange(1, build_rows + 1, dtype=np.int64)
            for n in probe_sizes:
                probe = rng.integers(1, build_rows + 1, n).astype(np.int64)
                gpu_time = _gpu_time(kernel, spec, build, probe)
                cpu_time = _cpu_time(cost, host, build_rows, n)
                rows.append((label, build_rows, n, cpu_time, gpu_time))
        return rows

    rows = run()

    small = [(c, g) for _label, b, _n, c, g in rows if b == BUILD_SMALL]
    large = [(c, g) for _label, b, _n, c, g in rows if b == BUILD_LARGE]
    # Small build side: GPU never wins big (ratio stays near or above 1)...
    assert small[0][1] > small[0][0]
    ratios = [g / c for c, g in small]
    assert ratios[-1] < ratios[0]               # ...but the gap narrows.
    # Large build side: the GPU wins once probes amortise the build.
    assert large[-1][1] < large[-1][0]


def test_ext_gpu_join_engine(catalog, config):
    """Engine-level: enabling join offload must keep results identical and
    not regress a join+group-by query."""
    from repro.blu.engine import BluEngine
    from repro.config import cpu_only_testbed
    from repro.core.accelerator import GpuAcceleratedEngine

    import dataclasses

    sql = ("SELECT ss_item_sk, SUM(ss_net_paid) AS rev, COUNT(*) AS c "
           "FROM store_sales JOIN item ON ss_item_sk = i_item_sk "
           "GROUP BY ss_item_sk ORDER BY rev DESC LIMIT 100")
    # Fusion would swallow this join+group-by chain into one launch;
    # this experiment measures the *per-operator* join offload, so pin
    # fusion off.
    unfused = dataclasses.replace(config, fusion_enabled=False)
    with_join = GpuAcceleratedEngine(catalog, config=unfused,
                                     enable_join_offload=True)
    cpu = BluEngine(catalog, config=cpu_only_testbed())

    def run():
        a = with_join.execute_sql(sql, query_id="extjoin")
        c = cpu.execute_sql(sql)
        return a, c

    a, c = run()
    host = config.host

    def ms(r):
        return r.profile.elapsed_serial(48, host) * 1e3

    assert a.table.to_pydict() == c.table.to_pydict()
    assert any(e.op == "GPU-JOIN" for e in a.profile.events)
    # Join offload is roughly a wash at this scale (transfer-bound); it
    # must not regress the query materially.
    assert ms(a) < ms(c) * 1.15
