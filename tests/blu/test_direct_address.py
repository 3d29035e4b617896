"""Direct addressing ≡ the sort-based oracles it replaces.

``group_encode`` on dense integer keys and ``match_rows`` on dense unique
build keys skip their sorts; both must return exactly what the sort paths
(kept verbatim in :mod:`tests.blu.oracles`) return, and fall back to them
one key past the span rule.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blu.column import column_from_values
from repro.blu.datatypes import varchar
from repro.blu.operators.aggregate import dense_span, group_encode
from repro.blu.operators.join import _aligned_keys, match_rows
from tests.blu import oracles

DTYPES = (np.int8, np.int32, np.int64, np.uint8, np.uint32, np.uint64)


def assert_same(got, want):
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        else:
            assert g == w


@st.composite
def key_arrays(draw, min_size=0, max_size=40):
    """Integer keys of any width, hugging either end of their dtype or 0."""
    dtype = draw(st.sampled_from(DTYPES))
    info = np.iinfo(dtype)
    width = draw(st.sampled_from([1, 3, 50, 200]))
    anchor = draw(st.sampled_from(["min", "zero", "max"]))
    lo = {"min": info.min, "zero": max(info.min, -width // 2),
          "max": info.max - width + 1}[anchor]
    lo = max(info.min, min(lo, info.max - width + 1))
    hi = min(info.max, lo + width - 1)
    values = draw(st.lists(st.integers(lo, hi), min_size=min_size,
                           max_size=max_size))
    return np.array(values, dtype=dtype)


class TestSpanRule:
    def test_boundary_is_four_times_the_rows(self):
        keys = np.array([10, 10 + 4 * 3 - 1, 11], dtype=np.int64)
        assert dense_span(keys, 3) == (10, 12)          # span == 4n
        keys[1] += 1
        assert dense_span(keys, 3) is None              # span == 4n + 1

    def test_extremes_do_not_overflow(self):
        info = np.iinfo(np.int64)
        assert dense_span(np.array([info.min, info.max]), 2) is None
        assert dense_span(np.array([info.max - 1, info.max]), 2) \
            == (info.max - 1, 2)
        assert dense_span(np.array([0, 2**64 - 1], dtype=np.uint64), 2) is None

    def test_only_non_empty_integer_keys_qualify(self):
        assert dense_span(np.array([1.0, 2.0]), 2) is None
        assert dense_span(np.empty(0, dtype=np.int64), 5) is None


class TestGroupEncodeDense:
    @settings(max_examples=300, deadline=None)
    @given(keys=key_arrays())
    def test_equals_sort_path(self, keys):
        assert_same(group_encode([keys]), oracles.group_encode_sorted([keys]))

    @pytest.mark.parametrize("keys", [
        [5], [7, 7, 7, 7], [-3, -1, -3, -2, -1], [0, 11, 5],   # 11 = 4n - 1
        [0, 12, 5],                                            # span 4n + 1
    ])
    def test_named_shapes(self, keys):
        keys = np.array(keys, dtype=np.int64)
        assert_same(group_encode([keys]), oracles.group_encode_sorted([keys]))

    def test_dense_keys_are_not_sorted(self, monkeypatch):
        monkeypatch.setattr(np, "argsort", None)
        keys = np.array([4, 2, 4, 9, 2], dtype=np.int64)
        index, first, n = group_encode([keys])
        assert (list(index), list(first), n) == ([0, 1, 0, 2, 1], [0, 1, 3], 3)


class TestMatchRows:
    @settings(max_examples=300, deadline=None)
    @given(build=key_arrays(max_size=20), probe=key_arrays(max_size=30),
           unique=st.booleans(), data=st.data())
    def test_equals_sorted_lookup(self, build, probe, unique, data):
        build, probe = build.astype(np.int64), probe.astype(np.int64)
        if unique:
            build = data.draw(st.permutations(np.unique(build).tolist()))
            build = np.array(build, dtype=np.int64)
        assert_same(match_rows(build, probe),
                    oracles.match_rows_sorted(build, probe))

    def test_probe_keys_outside_the_build_range_miss(self):
        info = np.iinfo(np.int64)
        build = np.array([12, 10, 11], dtype=np.int64)
        probe = np.array([9, 10, 13, info.min, 12, info.max, -1],
                         dtype=np.int64)
        left, right = match_rows(build, probe)
        assert (list(left), list(right)) == ([1, 4], [1, 0])

    def test_build_at_the_dtype_edge(self):
        info = np.iinfo(np.int64)
        build = np.array([info.min, info.min + 2], dtype=np.int64)
        probe = np.array([info.max, info.min + 2, 0, info.min],
                         dtype=np.int64)
        assert_same(match_rows(build, probe),
                    oracles.match_rows_sorted(build, probe))

    def test_duplicate_build_keys_expand_every_pair(self):
        build = np.array([3, 1, 3, 2, 1], dtype=np.int64)
        probe = np.array([1, 4, 3], dtype=np.int64)
        left, right = match_rows(build, probe)
        assert (list(left), list(right)) == ([0, 0, 2, 2], [1, 4, 0, 2])

    @pytest.mark.parametrize("build, probe", [([], [1, 2]), ([1, 2], []),
                                              ([], [])])
    def test_empty_sides(self, build, probe):
        left, right = match_rows(np.array(build, dtype=np.int64),
                                 np.array(probe, dtype=np.int64))
        assert left.dtype == right.dtype == np.int64
        assert len(left) == len(right) == 0


class TestStringKeyAlignment:
    """Dictionaries are aligned, rows are only mapped through their codes."""

    words = st.lists(st.sampled_from(["a", "b", "ab", "", "zz", "q"]),
                     max_size=12)

    @settings(max_examples=150, deadline=None)
    @given(build=words.filter(len), probe=words, data=st.data())
    def test_same_keys_as_decoding_every_row(self, build, probe, data):
        build_col = column_from_values(varchar(4), build)
        probe_col = column_from_values(varchar(4), probe)
        # A filtered build side carries dictionary values no row uses.
        keep = data.draw(st.lists(st.integers(0, len(build) - 1), min_size=1))
        build_col = build_col.take(np.array(keep))
        assert_same(_aligned_keys(build_col, probe_col),
                    oracles.aligned_string_keys_by_row(build_col, probe_col))

    def test_empty_build_side_matches_nothing(self):
        build_col = column_from_values(varchar(4), [])
        probe_col = column_from_values(varchar(4), ["a", "b"])
        build_keys, probe_keys = _aligned_keys(build_col, probe_col)
        assert len(build_keys) == 0 and list(probe_keys) == [-1, -1]
