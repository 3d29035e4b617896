"""Unit tests for the GPU hash table: layout, mask (Table 1), insertion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blu.datatypes import decimal, float64, int32, int64
from repro.blu.expressions import AggFunc
from repro.blu.operators.aggregate import (
    NULL_KEY_SENTINEL,
    factorise,
    group_encode,
)
from repro.errors import HashTableOverflowError, HashTableReuseError
from repro.gpu.kernels.hashtable import (
    GpuHashTable,
    HashTableLayout,
    combine_keys,
)
from repro.gpu.kernels.request import PayloadSpec
from repro.gpu.kernels.join import _probe
from tests.gpu.row_level_oracles import insert_row_level, probe_row_level


def _insert(table, keys):
    """``insert`` as a caller with raw keys reaches it: factorise first."""
    return table.insert(factorise(keys)[0])


class TestTable1Mask:
    def test_paper_example_mask(self):
        """Table 1: SELECT SUM(C1), MAX(C2), MIN(C3) ... GROUP BY C1 with
        C1, C2 64-bit and C3 32-bit integers."""
        layout = HashTableLayout.build(64, [
            PayloadSpec(int64(), AggFunc.SUM),
            PayloadSpec(int64(), AggFunc.MAX),
            PayloadSpec(int32(), AggFunc.MIN),
        ])
        mask = layout.mask_row()
        assert mask[0] == "F" * 16
        assert mask[1] == 0
        assert mask[2] == -9223372036854775808
        assert mask[3] == 2147483647
        assert mask[4] == 0                   # padding
        assert layout.padding_bytes == 4

    def test_alignment_is_power_of_two(self):
        for payloads in ([PayloadSpec(int32(), AggFunc.SUM)],
                         [PayloadSpec(int64(), AggFunc.MAX)] * 3,
                         [PayloadSpec(float64(), AggFunc.MIN)] * 5):
            layout = HashTableLayout.build(64, payloads)
            assert layout.entry_bytes % 4 == 0
            raw = sum(f.width_bytes for f in layout.fields)
            assert layout.entry_bytes == raw

    def test_float_init_values(self):
        layout = HashTableLayout.build(32, [
            PayloadSpec(float64(), AggFunc.MAX),
            PayloadSpec(float64(), AggFunc.MIN),
        ])
        mask = layout.mask_row()
        assert mask[1] == -np.inf
        assert mask[2] == np.inf

    def test_count_initialises_to_zero(self):
        layout = HashTableLayout.build(32,
                                       [PayloadSpec(int64(), AggFunc.COUNT)])
        assert layout.mask_row()[1] == 0

    def test_decimal128_width(self):
        layout = HashTableLayout.build(
            64, [PayloadSpec(decimal(31, 2), AggFunc.SUM)])
        field = layout.fields[1]
        assert field.width_bytes == 16

    def test_table_bytes(self):
        layout = HashTableLayout.build(64,
                                       [PayloadSpec(int64(), AggFunc.SUM)])
        assert layout.table_bytes(100) == layout.entry_bytes * 100


class TestCombineKeys:
    def test_single_key_passthrough(self):
        arr = np.array([5, 6, 7], dtype=np.int64)
        combined, exact = combine_keys([arr])
        assert exact
        assert np.array_equal(combined, arr)

    def test_exact_packing_matches_group_encode(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 1000, 5000)
        b = rng.integers(-50, 50, 5000)
        c = rng.integers(0, 12, 5000)
        combined, exact = combine_keys([a, b, c])
        assert exact
        gi1, _, n1 = group_encode([combined])
        gi2, _, n2 = group_encode([a, b, c])
        assert n1 == n2
        assert np.array_equal(gi1, gi2)

    def test_wide_keys_fall_back_to_murmur(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 2**40, 1000)
        b = rng.integers(0, 2**40, 1000)
        combined, exact = combine_keys([a, b])
        assert not exact
        gi1, _, n1 = group_encode([combined])
        gi2, _, n2 = group_encode([a, b])
        assert n1 == n2                      # no collision at this scale

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_keys([])


class TestInsertion:
    def _payloads(self):
        return [PayloadSpec(int64(), AggFunc.SUM)]

    def test_groups_match_reference(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 300, 20_000).astype(np.int64)
        table = GpuHashTable.sized_for(300, 64, self._payloads())
        row_slot, stats = _insert(table, keys)
        assert stats.groups == len(np.unique(keys))
        # Same slot iff same key.
        gi, _, n = group_encode([row_slot])
        gi_ref, _, n_ref = group_encode([keys])
        assert n == n_ref
        assert np.array_equal(gi, gi_ref)

    def test_probe_count_grows_with_fill_ratio(self):
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 10_000, 50_000).astype(np.int64)
        roomy = GpuHashTable.sized_for(10_000, 64, self._payloads(),
                                       headroom=4.0)
        tight = GpuHashTable.sized_for(10_000, 64, self._payloads(),
                                       headroom=1.15)
        _, stats_roomy = _insert(roomy, keys)
        _, stats_tight = _insert(tight, keys)
        assert stats_tight.probes > stats_roomy.probes

    def test_overflow_when_estimate_too_small(self):
        """Section 4.2's error-detection code path."""
        keys = np.arange(5000, dtype=np.int64)
        table = GpuHashTable.sized_for(100, 64, self._payloads())
        with pytest.raises(HashTableOverflowError):
            _insert(table, keys)

    def test_exact_fit_does_not_overflow(self):
        keys = np.arange(64, dtype=np.int64)
        table = GpuHashTable(slots=64, key_bits=64,
                             layout=HashTableLayout.build(64, self._payloads()))
        row_slot, stats = _insert(table, keys)
        assert stats.groups == 64
        assert stats.fill_ratio == 1.0

    def test_sentinel_key_remapped(self):
        keys = np.array([np.iinfo(np.int64).min, 0, 1], dtype=np.int64)
        table = GpuHashTable.sized_for(8, 64, self._payloads())
        row_slot, stats = _insert(table, keys)
        assert stats.groups == 3

    def test_sequential_keys_spread_uniformly(self):
        """Serial surrogate keys (ticket numbers, item ids) must not
        collapse onto a slot subgroup — the join-kernel pathology found
        during development."""
        keys = np.arange(1, 2546, dtype=np.int64)
        table = GpuHashTable.sized_for(2545, 64, self._payloads())
        slots = table._slot_of(keys)
        distinct = len(np.unique(slots))
        assert distinct > 0.6 * len(keys)       # near-uniform occupancy
        _, stats = _insert(table, keys)
        assert stats.probes < 3 * len(keys)

    def test_structured_keys_no_probe_explosion(self):
        """Packed composite keys must not cluster (the C4 pathology)."""
        date = np.repeat(np.arange(2000), 100)
        store = np.tile(np.arange(100), 2000)
        combined, _ = combine_keys([date, store])
        table = GpuHashTable.sized_for(200_000, 64,
                                       self._payloads(), headroom=1.5)
        _, stats = _insert(table, combined)
        assert stats.probes < 5 * len(combined)

    def test_deterministic(self):
        keys = np.random.default_rng(10).integers(0, 99, 1000).astype(np.int64)
        t1 = GpuHashTable.sized_for(99, 64, self._payloads())
        t2 = GpuHashTable.sized_for(99, 64, self._payloads())
        s1, st1 = _insert(t1, keys)
        s2, st2 = _insert(t2, keys)
        assert np.array_equal(s1, s2)
        assert st1.probes == st2.probes


# ---------------------------------------------------------------------------
# The distinct-key insert against the row-level oracle
# ---------------------------------------------------------------------------

_distinct_batch = st.lists(st.integers(0, 10_000), max_size=80, unique=True)
_duplicate_heavy_batch = st.integers(1, 12).flatmap(
    lambda card: st.lists(st.integers(0, card - 1), max_size=120))
#: The empty-slot pattern and the NULL-group sentinel beside ordinary keys.
_sentinel_batch = st.lists(st.sampled_from(
    [np.iinfo(np.int64).min, int(NULL_KEY_SENTINEL), -1, 0, 3]), max_size=40)
_key_batches = st.lists(
    st.one_of(
        st.one_of(_distinct_batch, _duplicate_heavy_batch)      # sparse span
        .map(lambda rows: np.asarray(rows, dtype=np.int64) * 7919),
        st.one_of(_sentinel_batch, _duplicate_heavy_batch)      # dense span
        .map(lambda rows: np.asarray(rows, dtype=np.int64))),
    min_size=1, max_size=3)


def _large_table(n_keys, fill, repeated, seed):
    """``(keys, slots)``: ``n_keys`` sparse distinct keys at ``fill``, each
    on one row or on one to three shuffled rows."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(10**12, n_keys, replace=False).astype(np.int64)
    if repeated:
        keys = rng.permutation(np.repeat(keys, rng.integers(1, 4, n_keys)))
    return keys, int(np.ceil(n_keys / fill))


#: Small tables fed the batches above, and large ones (hundreds to
#: ~3 000 keys, fill 0.6-1.0) whose walks take dozens to thousands of
#: rounds and wrap past the last slot.
_insert_cases = st.one_of(
    st.tuples(_key_batches.map(np.concatenate), st.integers(1, 96)),
    st.builds(_large_table, st.integers(200, 3_000), st.floats(0.6, 1.0),
              st.booleans(), st.integers(0, 2**32 - 1)))


def _attempt(insert, keys):
    """``(row_slot, stats)`` or the overflow the insert raised."""
    try:
        return insert(keys)
    except HashTableOverflowError as exc:
        return exc


class TestInsertMatchesRowLevelOracle:
    """Every simulated quantity of the per-distinct-key insert equals the
    row-at-a-time loop it replaced, on a table roomy or too small (where
    both overflow — the new one before it has touched a slot)."""

    @given(case=_insert_cases)
    @settings(max_examples=300, deadline=None)
    def test_same_simulation(self, case):
        keys, slots = case
        layout = HashTableLayout.build(64, [PayloadSpec(int64(), AggFunc.SUM)])
        new = GpuHashTable(slots, 64, layout)
        old = GpuHashTable(slots, 64, layout)
        got = _attempt(lambda k: _insert(new, k), keys)
        want = _attempt(lambda k: insert_row_level(old, k), keys)
        if isinstance(want, HashTableOverflowError):
            assert isinstance(got, HashTableOverflowError)
            assert new.filled == 0
            return
        assert np.array_equal(new.table, old.table)
        assert new.filled == old.filled
        (row_slot, stats), (ref_slot, ref_stats) = got, want
        assert np.array_equal(row_slot, ref_slot)
        assert stats == ref_stats        # rows/probes/rounds/groups/slots
        assert stats.fill_ratio == ref_stats.fill_ratio
        assert np.array_equal(factorise(keys)[0].group_index,
                              group_encode([ref_slot])[0])

    def test_second_insert_is_a_typed_misuse_error(self):
        layout = HashTableLayout.build(64, [PayloadSpec(int64(), AggFunc.SUM)])
        table = GpuHashTable(8, 64, layout)
        _insert(table, np.array([3, 4], dtype=np.int64))
        with pytest.raises(HashTableReuseError):
            _insert(table, np.array([5], dtype=np.int64))

    @given(build=_distinct_batch,
           probe=_duplicate_heavy_batch | _distinct_batch | _sentinel_batch,
           slack=st.integers(0, 40))
    @settings(max_examples=250, deadline=None)
    def test_join_probe_same_matches_and_probe_count(self, build, probe,
                                                     slack):
        """The join's lookups walk distinct probe keys too — taken by value
        from one ``bincount`` on a dense span, by first appearance off it;
        a full table (``slack`` 0) exercises the bounded walk of absent
        keys.  Each row's own steps add up to the oracle's probe count."""
        layout = HashTableLayout.build(64, [PayloadSpec(int64(), AggFunc.SUM)])
        table = GpuHashTable(max(1, len(build) + slack), 64, layout)
        _insert(table, np.asarray(build, dtype=np.int64))
        keys = np.asarray(probe, dtype=np.int64)
        found, steps = _probe(table, keys)
        ref_found, ref_extra = probe_row_level(table, keys)
        assert np.array_equal(found, ref_found)
        assert steps.shape == keys.shape and (steps >= 0).all()
        assert int(steps.sum()) == ref_extra

    def test_lone_sentinel_key_keeps_its_old_alias(self):
        """Without a real ``INT64_MIN + 1`` key the sentinel still rides
        under it, so existing tables and baselines are unchanged."""
        lo = np.iinfo(np.int64).min
        keys = np.array([lo, 0, 1, lo, 1], dtype=np.int64)
        layout = HashTableLayout.build(64, [PayloadSpec(int64(), AggFunc.SUM)])
        new, old = GpuHashTable(8, 64, layout), GpuHashTable(8, 64, layout)
        row_slot, stats = _insert(new, keys)
        ref_slot, ref_stats = insert_row_level(old, keys)
        assert np.array_equal(row_slot, ref_slot)
        assert stats == ref_stats
        assert np.array_equal(new.table, old.table)


class TestSentinelKeyRegression:
    """A key equal to the empty marker must not merge with the real key
    one above it (reachable through ``combine_keys``' Murmur branch)."""

    LO = np.iinfo(np.int64).min

    def test_table_keeps_both_groups(self):
        keys = np.array([self.LO, self.LO + 1, self.LO, 7, self.LO + 1,
                         self.LO + 2], dtype=np.int64)
        table = GpuHashTable.sized_for(
            4, 64, [PayloadSpec(int64(), AggFunc.SUM)])
        row_slot, stats = _insert(table, keys)
        assert stats.groups == 4
        assert np.array_equal(group_encode([row_slot])[0],
                              group_encode([keys])[0])
        assert np.array_equal(factorise(keys)[0].group_index,
                              group_encode([keys])[0])

    def test_engine_aggregates_match_cpu(self):
        from repro.blu import BluEngine, Catalog, Schema, Table
        from repro.config import paper_testbed
        from repro.core import GpuAcceleratedEngine
        from tests.conftest import tables_equal
        import dataclasses

        rng = np.random.default_rng(13)
        n = 6_000
        # > 1024 groups so the moderator picks the hash-table kernel.
        k = rng.integers(0, 2_000, n)
        k = np.where(k < 2, self.LO + k, k)
        table = Table.from_pydict(
            "edge", Schema.of(("k", int64()), ("v", int64())),
            {"k": k.tolist(), "v": rng.integers(0, 100, n).tolist()})
        catalog = Catalog()
        catalog.register(table)
        config = paper_testbed()
        config = dataclasses.replace(config, thresholds=dataclasses.replace(
            config.thresholds, t1_min_rows=1_000))
        sql = "SELECT k, SUM(v) AS total, COUNT(*) AS c FROM edge GROUP BY k"
        engine = GpuAcceleratedEngine(catalog, config=config)
        gpu = engine.execute_sql(sql)
        cpu = BluEngine(catalog).execute_sql(sql)
        assert [d.kernel for d in engine.monitor.decisions_for("")
                if d.path == "gpu"] == ["groupby_regular"]
        assert gpu.table.num_rows == len(np.unique(k))
        assert tables_equal(gpu.table, cpu.table)
