"""Unit tests for the TPC-DS-derived schema and data generator."""

import hashlib

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.datagen import generate_database, scaled_config
from repro.workloads.tpcds_schema import (
    ALL_TABLES,
    DIMENSIONS,
    FACTS,
    column_owner,
    dimension_rows,
    fact_rows,
    table_spec,
)


class TestSchemaShape:
    def test_seven_facts_seventeen_dimensions(self):
        """Section 5.1.1's headline schema shape."""
        assert len(FACTS) == 7
        assert len(DIMENSIONS) == 17

    def test_store_sales_star_arms_exist(self):
        """Figure 4: the store_sales star touches its dimensions."""
        names = {spec.name for spec in ALL_TABLES}
        ss = table_spec("store_sales")
        refs = {c.ref for c in ss.columns if c.ref}
        assert refs <= names
        assert {"date_dim", "item", "customer", "store", "promotion",
                "customer_demographics", "household_demographics",
                "customer_address", "time_dim"} <= refs

    def test_column_prefixes_unique_per_table(self):
        seen = {}
        for spec in ALL_TABLES:
            for col in spec.columns:
                assert col.name not in seen, \
                    f"{col.name} in both {seen.get(col.name)} and {spec.name}"
                seen[col.name] = spec.name

    def test_column_owner(self):
        assert column_owner("ss_item_sk") == "store_sales"
        assert column_owner("d_year") == "date_dim"
        assert column_owner("nope") is None

    def test_row_scaling(self):
        assert fact_rows("store_sales", 0.1) == 400_000
        assert dimension_rows("customer", 0.25) == 50_000
        assert dimension_rows("date_dim", 0.01) == \
            dimension_rows("date_dim", 1.0)      # calendar never shrinks
        assert dimension_rows("store", 0.01) == 120  # tiny dims fixed
        with pytest.raises(ValueError):
            dimension_rows("store_sales", 0.1)


class TestDatagen:
    @pytest.fixture(scope="class")
    def catalog(self):
        return generate_database(scale=0.01, seed=3)

    def test_all_tables_generated(self, catalog):
        assert len(catalog.table_names()) == 24

    def test_deterministic(self):
        a = generate_database(scale=0.01, seed=3)
        b = generate_database(scale=0.01, seed=3)
        ta, tb = a.table("store_sales"), b.table("store_sales")
        for ca, cb in zip(ta.columns, tb.columns):
            assert np.array_equal(ca.data, cb.data)

    def test_seed_changes_data(self):
        a = generate_database(scale=0.01, seed=3)
        b = generate_database(scale=0.01, seed=4)
        assert not np.array_equal(a.table("store_sales").column("ss_item_sk").data,
                                  b.table("store_sales").column("ss_item_sk").data)

    def test_foreign_keys_resolve(self, catalog):
        ss = catalog.table("store_sales")
        for fk, dim, key in (("ss_store_sk", "store", "s_store_sk"),
                             ("ss_item_sk", "item", "i_item_sk"),
                             ("ss_sold_date_sk", "date_dim", "d_date_sk")):
            values = ss.column(fk).data
            dim_rows = catalog.table(dim).num_rows
            assert values.min() >= 1
            assert values.max() <= dim_rows

    def test_item_keys_are_skewed(self, catalog):
        items = catalog.table("store_sales").column("ss_item_sk").data
        counts = np.bincount(items)
        top = np.sort(counts)[::-1]
        # Zipf: the hottest item is far above the median item.
        assert top[0] > 5 * np.median(counts[counts > 0])

    def test_date_dim_is_coherent(self, catalog):
        dd = catalog.table("date_dim")
        d = dd.to_pydict()
        assert d["d_year"][0] == 2010
        assert d["d_year"][-1] >= 2014
        assert set(d["d_qoy"]) <= {1, 2, 3, 4}
        assert all(1 <= m <= 12 for m in d["d_moy"])

    def test_money_columns_positive_scaled(self, catalog):
        paid = catalog.table("store_sales").column("ss_net_paid").data
        assert paid.min() >= 50                  # >= 0.5 currency in cents
        assert paid.dtype == np.int64

    def test_stats_collected(self, catalog):
        stats = catalog.column_stats("store_sales", "ss_store_sk")
        assert stats is not None
        assert stats.distinct <= catalog.table("store").num_rows

    def test_bad_scale_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            generate_database(scale=0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), "0.05"])
    def test_non_finite_or_non_numeric_scale_rejected(self, scale):
        """NaN passes ``scale <= 0`` and inf survives until ``int()``."""
        with pytest.raises(WorkloadError, match="finite positive number"):
            generate_database(scale=scale)


def database_digest(catalog) -> str:
    """One digest over every column's encoded bytes and dictionary."""
    digest = hashlib.blake2b(digest_size=16)
    for table in catalog:
        for field, column in zip(table.schema, table.columns):
            digest.update(f"{table.name}.{field.name}:"
                          f"{column.data.dtype.str}".encode())
            digest.update(column.data.tobytes())
            if column.null_mask is not None:
                digest.update(b"mask" + column.null_mask.tobytes())
            if column.dictionary is not None:
                d = column.dictionary
                digest.update(
                    f"{d.values.dtype.str}{d.sort_rank.dtype.str}".encode())
                digest.update("\x00".join(d.values).encode())
                digest.update(d.sort_rank.tobytes())
    return digest.hexdigest()


class TestGeneratedBytesPinned:
    """The generator's bytes as they were at 5b61fa4 (strings decoded per
    row, every column copied by ``astype``): same rng stream, same data,
    null masks, dictionary values and collation ranks."""

    @pytest.mark.parametrize("seed, scale, expected", [
        (7, 0.01, "05124c3696028bd48e66b80a679d75f2"),
        (7, 0.03, "73c635c58235a4c9db3a9228f6d17506"),
        (23, 0.01, "38beb49ad6754d66c15873bfa1d9311b"),
        (23, 0.03, "ec204b9341a48b74aef76de4d4083f3a"),
    ])
    def test_digest(self, seed, scale, expected):
        catalog = generate_database(scale=scale, seed=seed)
        assert database_digest(catalog) == expected

    def test_undrawn_vocabulary_entries_stay_out_of_the_dictionary(self):
        catalog = generate_database(scale=0.01, seed=7)
        brands = catalog.table("item").column("i_brand")
        assert brands.dictionary.cardinality == 175      # of 200 declared
        assert brands.data.dtype == np.int32
        assert brands.data.max() == 174


class TestScaledConfig:
    def test_proportions(self):
        catalog = generate_database(scale=0.01, seed=3)
        config = scaled_config(catalog)
        ss_rows = catalog.table("store_sales").num_rows
        assert config.gpu_count == 2
        assert config.gpus[0].device_memory_bytes >= 4 * 1024 * 1024
        assert config.thresholds.t1_min_rows < ss_rows
        assert config.thresholds.t3_max_rows > config.thresholds.t1_min_rows

    def test_single_gpu_variant(self):
        catalog = generate_database(scale=0.01, seed=3)
        config = scaled_config(catalog, gpus=1)
        assert config.gpu_count == 1


class TestNullableForeignKeys:
    def test_fact_fk_nulls_generated(self):
        catalog = generate_database(scale=0.01, seed=3)
        col = catalog.table("store_sales").column("ss_customer_sk")
        assert col.null_mask is not None
        fraction = col.null_mask.mean()
        assert 0.01 < fraction < 0.06        # declared 3%

    def test_null_customers_form_a_group(self):
        from repro.blu.engine import BluEngine

        catalog = generate_database(scale=0.01, seed=3)
        engine = BluEngine(catalog)
        result = engine.execute_sql(
            "SELECT ss_customer_sk, COUNT(*) AS c FROM store_sales "
            "GROUP BY ss_customer_sk ORDER BY c DESC LIMIT 1")
        d = result.table.to_pydict()
        # The NULL (walk-in) group is by far the largest single "customer".
        assert d["ss_customer_sk"][0] is None

    def test_inner_join_drops_null_fks(self):
        from repro.blu.engine import BluEngine

        catalog = generate_database(scale=0.01, seed=3)
        engine = BluEngine(catalog)
        joined = engine.execute_sql(
            "SELECT COUNT(*) AS c FROM store_sales "
            "JOIN customer ON ss_customer_sk = c_customer_sk")
        total = catalog.table("store_sales").num_rows
        nulls = int(catalog.table("store_sales")
                    .column("ss_customer_sk").null_mask.sum())
        assert joined.table.to_pydict()["c"][0] == total - nulls
