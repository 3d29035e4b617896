"""Integration tests for the hybrid job-queue sort (section 3)."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blu import BluEngine
from repro.blu.column import column_from_values
from repro.blu.plan import SortKey
from repro.blu.table import Schema, Table
from repro.blu.datatypes import (DataType, TypeKind, date, decimal, float64,
                                 int32, int64, varchar)
from repro.core.hybrid_sort import (
    encode_sort_keys,
    extract_partial_keys,
)
from repro.core.hybrid_sort import HybridSortExecutor
from tests.conftest import tables_equal
from tests.gpu.row_level_oracles import drain_duplicate_ranges_list

#: One column per kind of sort key: name -> (type, value from a small int).
_KEY_KINDS = {
    "b": (DataType(TypeKind.INTEGER, 8), lambda v: v % 2 == 0),
    "i8": (DataType(TypeKind.INTEGER, 8), lambda v: v % 256 - 128),
    "i16": (DataType(TypeKind.INTEGER, 16), lambda v: v),
    "i32": (int32(), lambda v: v * 65_535),
    "i64": (int64(), lambda v: v * 2**40),
    "f": (float64(), lambda v: v / 7),
    "d": (date(), lambda v: v),
    "dec": (decimal(12), lambda v: v * 100),
    "s": (varchar(8), lambda v: f"s{v % 13}"),
}


def _byte_window(encoded, rows, offset):
    """The partial key as first defined: a zero-filled 4-byte window."""
    window = np.zeros((len(rows), 4), dtype=np.uint8)
    available = max(0, min(4, encoded.shape[1] - offset))
    if available:
        window[:, :available] = encoded[rows, offset:offset + available]
    return window.view(">u4").reshape(len(rows)).astype(np.uint32)


class TestKeyEncoding:
    def _order_via_bytes(self, table, keys):
        encoded = encode_sort_keys(table, keys)
        view = [tuple(row) for row in encoded]
        return sorted(range(len(view)), key=lambda i: (view[i], i))

    def test_int_encoding_preserves_order(self):
        t = Table.from_pydict("t", Schema.of(("v", int64())),
                              {"v": [5, -3, 0, 2**40, -(2**40), 7]})
        order = self._order_via_bytes(t, [SortKey("v")])
        values = [t.to_pydict()["v"][i] for i in order]
        assert values == sorted(values)

    def test_float_encoding_preserves_order(self):
        t = Table.from_pydict("t", Schema.of(("f", float64())),
                              {"f": [1.5, -2.25, 0.0, -0.0, 3e300, -3e300]})
        order = self._order_via_bytes(t, [SortKey("f")])
        values = [t.to_pydict()["f"][i] for i in order]
        assert values == sorted(values)

    def test_descending_complements_bytes(self):
        t = Table.from_pydict("t", Schema.of(("v", int32())),
                              {"v": [1, 5, 3]})
        order = self._order_via_bytes(t, [SortKey("v", ascending=False)])
        values = [t.to_pydict()["v"][i] for i in order]
        assert values == [5, 3, 1]

    def test_string_encoding_follows_collation(self):
        t = Table.from_pydict("t", Schema.of(("s", varchar(8))),
                              {"s": ["pear", "apple", "fig", "apple"]})
        order = self._order_via_bytes(t, [SortKey("s")])
        values = [t.to_pydict()["s"][i] for i in order]
        assert values == sorted(values)

    def test_partial_key_extraction_pads_past_end(self):
        t = Table.from_pydict("t", Schema.of(("v", int32())),
                              {"v": [1, 2]})
        encoded = encode_sort_keys(t, [SortKey("v")])
        partial = extract_partial_keys(encoded, np.array([0, 1]), offset=8)
        assert list(partial) == [0, 0]           # fully past the key bytes

    @given(values=st.lists(st.none() | st.integers(-2**15, 2**15),
                           min_size=1, max_size=40),
           keys=st.lists(st.tuples(st.sampled_from(sorted(_KEY_KINDS)),
                                   st.booleans()),
                         min_size=1, max_size=4, unique_by=lambda k: k[0]),
           width=st.sampled_from([4, 8, 12, 16]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_word_gather_equals_byte_window(self, values, keys, width, seed):
        """Every key kind encodes to a multiple of 4 bytes — the
        precondition of the one-word gather — and the gather equals the
        zero-filled byte window at every offset up to one word past the
        end, on real encodings and on random bytes of width 4-16."""
        schema = Schema.of(*((name, dtype) for name, (dtype, _)
                             in _KEY_KINDS.items()))
        table = Table("t", schema, [
            column_from_values(dtype, [None if v is None else convert(v)
                                       for v in values])
            for dtype, convert in _KEY_KINDS.values()])
        encoded = encode_sort_keys(
            table, [SortKey(name, ascending) for name, ascending in keys])
        assert encoded.shape[1] % 4 == 0
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 256, (len(values), width), dtype=np.uint8)
        rows = rng.integers(0, len(values), 2 * len(values))
        for words in (encoded, raw):
            for offset in range(0, words.shape[1] + 5, 4):
                got = extract_partial_keys(words, rows, offset)
                assert got.dtype == np.uint32
                assert np.array_equal(got, _byte_window(words, rows, offset))


class TestHybridSortExecution:
    @pytest.mark.parametrize("order_by", [
        "ORDER BY s_paid DESC",
        "ORDER BY s_item, s_qty DESC",
        "ORDER BY s_channel, s_paid DESC",
        "ORDER BY s_ticket",
        "ORDER BY s_store, s_channel, s_item, s_qty, s_paid",
    ])
    def test_matches_cpu_sort(self, order_by, gpu_engine, small_catalog):
        sql = f"SELECT s_item, s_store, s_qty, s_paid, s_ticket, s_channel " \
              f"FROM sales {order_by}"
        cpu = BluEngine(small_catalog)
        gpu_result = gpu_engine.execute_sql(sql)
        cpu_result = cpu.execute_sql(sql)
        assert tables_equal(gpu_result.table, cpu_result.table)

    def test_large_sort_uses_gpu_jobs(self, gpu_engine):
        result = gpu_engine.execute_sql(
            "SELECT s_ticket, s_paid FROM sales ORDER BY s_paid DESC",
            query_id="bigsort")
        assert any(e.op == "GPU-SORT" for e in result.profile.events)
        stats = gpu_engine.sort_executor.last_stats
        assert stats.jobs_gpu >= 1

    def test_duplicate_ranges_spawn_followup_jobs(self, gpu_engine):
        """Sorting on a low-cardinality leading key forces duplicate-range
        jobs on the next 4 key bytes."""
        result = gpu_engine.execute_sql(
            "SELECT s_store, s_ticket FROM sales "
            "ORDER BY s_store, s_ticket", query_id="dupsort")
        stats = gpu_engine.sort_executor.last_stats
        assert stats.duplicate_jobs >= 1
        assert stats.jobs_total > 1
        # Verify full ordering.
        d = result.table.to_pydict()
        pairs = list(zip(d["s_store"], d["s_ticket"]))
        assert pairs == sorted(pairs)

    def test_small_jobs_stay_on_cpu(self, gpu_engine):
        gpu_engine.execute_sql(
            "SELECT s_paid, s_ticket FROM sales WHERE s_item < 250 "
            "ORDER BY s_paid, s_ticket", query_id="mixed")
        stats = gpu_engine.sort_executor.last_stats
        # A duplicate-range generation too small to batch into one
        # segmented launch degrades to per-range CPU jobs.
        assert stats.jobs_cpu >= 1
        assert stats.jobs_gpu >= 1

    def test_duplicate_generations_batch_into_segmented_jobs(
            self, gpu_engine):
        """A low-cardinality leading key leaves hundreds of duplicate
        ranges; they sort as one segmented device job per generation,
        not one launch (or one CPU job) per range."""
        gpu_engine.execute_sql(
            "SELECT s_store, s_ticket FROM sales "
            "ORDER BY s_store, s_ticket", query_id="segsort")
        stats = gpu_engine.sort_executor.last_stats
        assert stats.duplicate_jobs > stats.jobs_total
        assert stats.jobs_cpu == 0
        assert stats.jobs_gpu >= 2

    def test_tiny_sort_never_offloads(self, gpu_engine):
        result = gpu_engine.execute_sql(
            "SELECT s_item FROM sales WHERE s_store = 3 AND s_item < 50 "
            "ORDER BY s_item", query_id="tinysort")
        assert not any(e.op == "GPU-SORT" for e in result.profile.events)

    def test_merge_free_partitioning(self, gpu_engine):
        """No merge events ever appear: duplicate-range jobs own disjoint
        slices ('we remove the merging step')."""
        result = gpu_engine.execute_sql(
            "SELECT s_channel, s_qty FROM sales ORDER BY s_channel, s_qty")
        ops = [e.op for e in result.profile.events]
        assert "MERGE" not in ops


class TestSegmentedDescentMatchesListOracle:
    """The array-form ``_drain_duplicate_ranges`` against the tuple-list
    version it replaced: same row order, same ``SortRunStats``, same cost
    events — for batched generations and the per-range fallback alike."""

    @pytest.mark.parametrize("order_by", [
        "ORDER BY s_store, s_ticket",                 # batched generations
        "ORDER BY s_store, s_channel, s_item, s_qty, s_paid",
        "ORDER BY s_channel, s_paid DESC",
        "ORDER BY s_item, s_qty DESC",
        "ORDER BY s_paid, s_ticket",                  # per-range queue
    ])
    def test_same_order_stats_and_events(self, order_by, small_catalog,
                                         monkeypatch, request):
        sql = ("SELECT s_item, s_store, s_qty, s_paid, s_ticket, s_channel "
               f"FROM sales {order_by}")
        engine = request.getfixturevalue("gpu_engine")
        got = engine.execute_sql(sql, query_id="q")
        got_stats = engine.sort_executor.last_stats

        def list_form(self, encoded, order, starts, lengths, *rest):
            ranges = list(zip(starts.tolist(), lengths.tolist()))
            drain_duplicate_ranges_list(self, encoded, order, ranges, *rest)

        monkeypatch.setattr(HybridSortExecutor, "_drain_duplicate_ranges",
                            list_form)
        oracle = type(engine)(small_catalog, config=engine.config)
        want = oracle.execute_sql(sql, query_id="q")
        assert got_stats == oracle.sort_executor.last_stats
        assert got_stats.duplicate_jobs >= 1
        assert tables_equal(got.table, want.table)
        assert got.profile.events == want.profile.events
