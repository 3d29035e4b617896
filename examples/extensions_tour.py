#!/usr/bin/env python
"""Beyond the paper: the implemented future-work extensions.

The paper's prototype stops at group-by/aggregation and sort.  This tour
runs the two extensions this reproduction adds on top — both named by the
paper as next steps — plus the per-query decision inspector:

1. GPU join offload (§6: "study the performance of other compute
   intensive operations (like join) on the GPU");
2. partitioned processing of group-bys whose input exceeds T3 (§4.1:
   "we will need to partition the data and use both the CPU and the
   GPU"), with partitions running data-parallel across both devices;
3. ``explain_decisions`` — plan, offload decisions and cost trace for a
   single query.

Run:  python examples/extensions_tour.py [scale]
"""

import dataclasses
import sys

from repro.core.accelerator import GpuAcceleratedEngine
from repro.workloads.datagen import generate_database, scaled_config


JOIN_SQL = """
SELECT ss_item_sk, SUM(ss_net_paid) AS rev, COUNT(*) AS cnt
FROM store_sales JOIN item ON ss_item_sk = i_item_sk
GROUP BY ss_item_sk ORDER BY rev DESC LIMIT 25
"""

BIG_GROUPBY_SQL = """
SELECT ss_ticket_number, SUM(ss_net_paid) AS paid, COUNT(*) AS items
FROM store_sales GROUP BY ss_ticket_number ORDER BY paid DESC LIMIT 10
"""


def main(scale: float = 0.05) -> None:
    catalog = generate_database(scale=scale, seed=7)
    config = scaled_config(catalog)
    host = config.host

    print("1) GPU join offload (disabled in the paper's prototype)")
    plain = GpuAcceleratedEngine(catalog, config=config)
    joining = GpuAcceleratedEngine(catalog, config=config,
                                   enable_join_offload=True)
    r_plain = plain.execute_sql(JOIN_SQL)
    r_join = joining.execute_sql(JOIN_SQL, query_id="join-tour")
    assert r_plain.table.to_pydict() == r_join.table.to_pydict()
    print(f"   prototype (CPU join): "
          f"{r_plain.profile.elapsed_serial(48, host) * 1e3:8.3f} ms")
    print(f"   with join offload:    "
          f"{r_join.profile.elapsed_serial(48, host) * 1e3:8.3f} ms "
          f"(GPU-JOIN events: "
          f"{sum(1 for e in r_join.profile.events if e.op == 'GPU-JOIN')})")
    print("   (near-tie: FK joins against cache-resident dimensions are "
          "transfer-bound)")
    print()

    print("2) partitioned over-T3 group-by (vs the prototype's CPU path)")
    rows = catalog.table("store_sales").num_rows
    tight = dataclasses.replace(
        config, thresholds=dataclasses.replace(
            config.thresholds, t3_max_rows=rows // 4, sort_min_rows=10**9))
    prototype = GpuAcceleratedEngine(catalog, config=dataclasses.replace(
        tight, partition_enabled=False))
    partitioned = GpuAcceleratedEngine(catalog, config=tight)
    r_proto = prototype.execute_sql(BIG_GROUPBY_SQL)
    r_part = partitioned.execute_sql(BIG_GROUPBY_SQL, query_id="part-tour")
    waves = [e for e in r_part.profile.events if e.op == "GPU-GROUPBY"]
    print(f"   prototype (CPU):   "
          f"{r_proto.profile.elapsed_serial(48, host) * 1e3:8.3f} ms")
    print(f"   partitioned GPU:   "
          f"{r_part.profile.elapsed_serial(48, host) * 1e3:8.3f} ms "
          f"({len(waves)} partitions across "
          f"{len({e.device_id for e in waves})} devices)")
    print()

    print("3) explain_decisions on the join query")
    print()
    print(joining.explain_decisions(JOIN_SQL))


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.05)
