"""Unit tests for columnar storage."""

import numpy as np
import pytest

from repro.blu.column import Column, column_from_array, column_from_values
from repro.blu.datatypes import int32, int64, varchar
from repro.errors import SchemaError, TypeMismatchError


class TestConstruction:
    def test_numeric_column_roundtrip(self):
        col = column_from_values(int32(), [3, 1, 2])
        assert list(col.decoded()) == [3, 1, 2]
        assert col.dtype == int32()

    def test_string_column_gets_dictionary(self):
        col = column_from_values(varchar(5), ["b", "a", "b", "c"])
        assert col.dictionary is not None
        assert list(col.decoded()) == ["b", "a", "b", "c"]

    def test_string_without_dictionary_rejected(self):
        with pytest.raises(SchemaError):
            Column(varchar(5), np.zeros(3, dtype=np.int32))

    def test_numeric_with_dictionary_rejected(self):
        string_col = column_from_values(varchar(5), ["x"])
        with pytest.raises(SchemaError):
            Column(int32(), np.zeros(1, np.int32), string_col.dictionary)

    def test_null_mask_length_checked(self):
        with pytest.raises(SchemaError):
            Column(int32(), np.zeros(3, np.int32),
                   null_mask=np.zeros(2, bool))

    def test_column_from_array_rejects_strings(self):
        with pytest.raises(TypeMismatchError):
            column_from_array(varchar(5), np.zeros(2, np.int32))


class TestNulls:
    def test_none_becomes_null(self):
        col = column_from_values(int64(), [1, None, 3])
        assert col.has_nulls
        assert col.values_at([0, 1, 2]) == [1, None, 3]

    def test_no_nulls_no_mask(self):
        col = column_from_values(int64(), [1, 2])
        assert col.null_mask is None

    def test_null_strings(self):
        col = column_from_values(varchar(3), ["a", None, "c"])
        assert col.values_at([0, 1, 2]) == ["a", None, "c"]


class TestTransforms:
    def test_take_preserves_dictionary(self):
        col = column_from_values(varchar(5), ["x", "y", "z"])
        taken = col.take(np.array([2, 0]))
        assert list(taken.decoded()) == ["z", "x"]
        assert taken.dictionary is col.dictionary

    def test_slice(self):
        col = column_from_values(int32(), [1, 2, 3, 4])
        assert list(col.slice(1, 3).decoded()) == [2, 3]

    def test_take_carries_null_mask(self):
        col = column_from_values(int32(), [1, None, 3])
        taken = col.take(np.array([1, 2]))
        assert taken.values_at([0, 1]) == [None, 3]


class TestOrderAwareness:
    def test_sort_keys_for_strings_follow_collation(self):
        col = column_from_values(varchar(5), ["delta", "alpha", "charlie"])
        keys = col.sort_keys()
        order = np.argsort(keys)
        assert list(col.decoded()[order]) == ["alpha", "charlie", "delta"]

    def test_min_max_numeric(self):
        col = column_from_values(int32(), [5, -2, 9])
        assert col.min_max() == (-2, 9)

    def test_min_max_string(self):
        col = column_from_values(varchar(5), ["pear", "apple", "plum"])
        assert col.min_max() == ("apple", "plum")

    def test_min_max_skips_nulls(self):
        col = column_from_values(int32(), [None, 4, 2, None])
        assert col.min_max() == (2, 4)

    def test_min_max_empty(self):
        col = column_from_values(int32(), [])
        assert col.min_max() == (None, None)


class TestSizes:
    def test_encoded_smaller_than_logical_for_wide_strings(self):
        col = column_from_values(varchar(50), ["x" * 40] * 100)
        assert col.encoded_nbytes < col.logical_nbytes

    def test_encoded_bytes_counts_null_mask(self):
        plain = column_from_values(int32(), [1, 2, 3, 4])
        nullable = column_from_values(int32(), [1, 2, None, 4])
        assert nullable.encoded_nbytes > plain.encoded_nbytes
