"""The wall-clock harness's seams still exist and are still hit.

``benchmarks/wall/wallbench/tracing.py`` times each layer by wrapping
the attributes listed in its ``SEAMS`` table at class or module level,
*after* the engine under test is built.  A seam that was renamed away
breaks the harness; one the engine bound too early (a bound method
captured at construction) silently stops being timed and only shows up
as a shifted per-layer number.  This reads the table, read-only, and
checks both against a live engine.
"""

import sys
from pathlib import Path

import pytest

from repro.core import GpuAcceleratedEngine
from tests.gpu.test_fusion import TWO_JOIN_SQL, fused_config, make_catalog

sys.path.append(str(Path(__file__).resolve().parents[1]
                    / "benchmarks" / "wall"))
from wallbench import tracing  # noqa: E402

GROUPBY_SQL = "SELECT s_store, SUM(s_paid) AS p FROM sales GROUP BY s_store"
RANK_SQL = ("SELECT s_item, s_store, SUM(s_qty) AS q, "
            "RANK() OVER (ORDER BY q DESC) AS rnk "
            "FROM sales GROUP BY s_item, s_store")


@pytest.mark.parametrize("module, cls, attr, metric", tracing.SEAMS)
def test_every_seam_resolves(module, cls, attr, metric):
    assert attr in vars(tracing.seam_owner(module, cls))


@pytest.fixture(scope="module")
def engine():
    return GpuAcceleratedEngine(make_catalog(), config=fused_config())


@pytest.mark.parametrize("sql, seam", [
    (TWO_JOIN_SQL, "repro.gpu.fusion.FusedExecutor.__call__"),
    (GROUPBY_SQL, "repro.core.hybrid_groupby.HybridGroupByExecutor.__call__"),
    (RANK_SQL, "repro.core.hybrid_sort.HybridSortExecutor.rank_order"),
    (GROUPBY_SQL, "repro.blu.engine.BluEngine.execute_plan"),
], ids=["fused", "groupby", "rank", "engine"])
def test_a_wrapper_installed_after_construction_is_hit(engine, sql, seam):
    recorder = tracing.SpanRecorder()
    with recorder.patched():
        engine.execute_sql(sql)
    assert seam in {span[0] for span in recorder.spans}
