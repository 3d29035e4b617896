"""Extension — partitioned group-by for over-T3 inputs.

The paper (§4.1): "If the number of input rows is very large (larger than
T3), the data will not fit in accelerator memory. In this case we will
need to partition the data and use both the CPU and the GPU for query
processing. In our current implementation, all of the large queries are
processed in the CPU."

This test runs the partitioned path against the paper's prototype
behaviour (CPU) on a group-by whose input exceeds T3, and checks that
every partition's reservation fits the device.
"""

import dataclasses

from repro.config import paper_prototype
from repro.core.accelerator import GpuAcceleratedEngine
from repro.workloads.datagen import scaled_config


SQL = ("SELECT ss_item_sk, SUM(ss_net_paid) AS rev, SUM(ss_quantity) AS q, "
       "COUNT(*) AS c FROM store_sales GROUP BY ss_item_sk")


def test_ext_partitioned_groupby(catalog, config):
    rows = catalog.table("store_sales").num_rows
    def tighten(base):
        """Force the over-T3 regime: a T3 at a quarter of the fact table."""
        return dataclasses.replace(
            base, thresholds=dataclasses.replace(base.thresholds,
                                                 t3_max_rows=rows // 4,
                                                 sort_min_rows=10**9))

    tight = tighten(config)
    # The prototype is every extension off, not just this one.
    prototype = GpuAcceleratedEngine(catalog, config=tighten(
        scaled_config(catalog, base=paper_prototype())))
    partitioned = GpuAcceleratedEngine(catalog, config=tight)

    def run():
        a = prototype.execute_sql(SQL, query_id="proto")
        b = partitioned.execute_sql(SQL, query_id="part")
        return a, b

    a, b = run()
    host = tight.host

    def ms(r):
        return r.profile.elapsed_serial(48, host) * 1e3

    gpu_events = [e for e in b.profile.events if e.op == "GPU-GROUPBY"]
    peak = max((e.gpu_memory_bytes for e in gpu_events), default=0)

    # Same answer, multiple kernels, each fitting the device.
    sa = sorted(zip(*a.table.to_pydict().values()))
    sb = sorted(zip(*b.table.to_pydict().values()))
    assert sa == sb
    assert len(gpu_events) >= 4
    assert peak <= tight.gpus[0].device_memory_bytes
    # The partitioned path beats the CPU fallback for this shape.
    assert ms(b) < ms(a)
