"""Shared fixtures: deterministic tables, catalogs and engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.blu import BluEngine, Catalog, Schema, Table
from repro.blu.datatypes import float64, int32, int64, varchar
from repro.config import paper_testbed
from repro.core import GpuAcceleratedEngine


SALES_ROWS = 50_000


def build_sales_table() -> Table:
    """The deterministic mini fact table behind ``sales_table`` (a plain
    function so ``python -m`` regenerators can build it without pytest)."""
    rng = np.random.default_rng(42)
    n = SALES_ROWS
    schema = Schema.of(
        ("s_item", int32()),
        ("s_store", int32()),
        ("s_qty", int32()),
        ("s_paid", float64()),
        ("s_ticket", int64()),
        ("s_channel", varchar(8)),
    )
    data = {
        "s_item": rng.integers(1, 2000, n).tolist(),
        "s_store": rng.integers(1, 13, n).tolist(),
        "s_qty": rng.integers(1, 100, n).tolist(),
        "s_paid": np.round(rng.random(n) * 500, 2).tolist(),
        "s_ticket": np.arange(1, n + 1).tolist(),
        "s_channel": rng.choice(
            np.array(["web", "store", "catalog", "phone"], dtype=object), n
        ).tolist(),
    }
    return Table.from_pydict("sales", schema, data)


def build_stores_table() -> Table:
    """The 12-row dimension table behind ``stores_table``."""
    schema = Schema.of(
        ("st_id", int32()),
        ("st_state", varchar(2)),
        ("st_size", int32()),
    )
    states = ["CA", "NY", "TX", "WA", "IL", "FL"]
    data = {
        "st_id": list(range(1, 13)),
        "st_state": [states[i % len(states)] for i in range(12)],
        "st_size": [100 * (i + 1) for i in range(12)],
    }
    return Table.from_pydict("stores", schema, data)


@pytest.fixture(scope="session")
def sales_table() -> Table:
    """A deterministic mini fact table used across unit tests."""
    return build_sales_table()


@pytest.fixture(scope="session")
def stores_table() -> Table:
    return build_stores_table()


@pytest.fixture(scope="session")
def small_catalog(sales_table, stores_table) -> Catalog:
    catalog = Catalog()
    catalog.register(sales_table)
    catalog.register(stores_table)
    return catalog


@pytest.fixture()
def cpu_engine(small_catalog) -> BluEngine:
    return BluEngine(small_catalog)


@pytest.fixture()
def gpu_engine(small_catalog) -> GpuAcceleratedEngine:
    import dataclasses

    config = paper_testbed()
    # Unit-test scale: make offload reachable for the 50k-row fixture.
    thresholds = dataclasses.replace(config.thresholds, t1_min_rows=5_000,
                                     sort_min_rows=5_000)
    config = dataclasses.replace(config, thresholds=thresholds)
    return GpuAcceleratedEngine(small_catalog, config=config)


@pytest.fixture(scope="session")
def bd_catalog():
    """A small BD Insights database for workload/integration tests."""
    from repro.workloads.datagen import generate_database

    return generate_database(scale=0.02, seed=11)


@pytest.fixture(scope="session")
def bd_config(bd_catalog):
    from repro.workloads.datagen import scaled_config

    return scaled_config(bd_catalog)


def tables_equal(a: Table, b: Table, float_tol: float = 1e-9) -> bool:
    """Structural + value equality of two result tables."""
    if a.schema.names() != b.schema.names() or a.num_rows != b.num_rows:
        return False
    da, db = a.to_pydict(), b.to_pydict()
    for name in a.schema.names():
        for x, y in zip(da[name], db[name]):
            if isinstance(x, float) or isinstance(y, float):
                if not np.isclose(x, y, rtol=float_tol, atol=1e-6,
                                  equal_nan=True):
                    return False
            elif x != y:
                return False
    return True
