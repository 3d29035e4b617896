"""Columnar storage: encoded vectors with optional dictionaries.

BLU stores every column as a compressed, dictionary-encoded vector and
evaluates predicates directly on the encoded form where possible.  We keep
the same split:

- numeric/date columns store their values directly in a numpy array;
- string columns store int32 *codes* plus a value dictionary built by
  :mod:`repro.blu.compression` (frequency-ordered, as in BLU).

A column is immutable after construction; all operators produce new columns
via :meth:`Column.take` / :meth:`Column.slice`, which defer their gather
until the result is read.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.blu.datatypes import DataType, TypeKind
from repro.errors import SchemaError, TypeMismatchError


@dataclass(frozen=True)
class Dictionary:
    """An ordered value dictionary for an encoded string column.

    ``values[code]`` is the logical value for ``code``.  ``sort_rank[code]``
    gives the rank of the value in collation order, which lets ORDER BY and
    MIN/MAX work on codes without decoding (BLU evaluates on encoded data
    whenever order is preserved or recoverable).
    """

    values: np.ndarray  # dtype=object / unicode
    sort_rank: np.ndarray  # int32, same length

    def __post_init__(self) -> None:
        if len(self.values) != len(self.sort_rank):
            raise SchemaError("dictionary values/sort_rank length mismatch")

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return self.values[codes]

    def code_of(self, value: str) -> int:
        """Return the code for ``value`` or -1 when absent."""
        matches = np.nonzero(self.values == value)[0]
        return int(matches[0]) if len(matches) else -1


def content_digest(*arrays: Optional[np.ndarray]) -> str:
    """Stable hex digest of the encoded bytes of one column segment.

    ``None`` entries (e.g. an absent null mask) are folded in as a
    marker byte so ``(data, None)`` and ``(data, mask)`` never collide.
    An integer array equal to ``arange(n)`` (a job's untouched row ids)
    stands as a tag, its dtype and ``n``, so equal bytes still give an
    equal digest without hashing them.
    """
    digest = hashlib.sha256()
    for array in arrays:
        if array is None:
            digest.update(b"\x00")
        elif _is_identity(array):
            digest.update(b"\x01arange")
            digest.update(array.dtype.str.encode())
            digest.update(len(array).to_bytes(8, "little"))
        else:
            # A bytes copy, not the array: freeing it lifts glibc's
            # mmap/trim thresholds, which keeps the CPU join's
            # temporaries from faulting.
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:24]


_IDENTITY_BLOCK = 1 << 16


def _is_identity(array: np.ndarray) -> bool:
    """Is ``array`` a 1-D integer ``arange(len(array))``?  Compared a
    block at a time, so no temporary grows with the input."""
    if array.ndim != 1 or array.dtype.kind not in "iu":
        return False
    n = len(array)
    if not n or array[0] != 0 or array[-1] != n - 1:
        return False
    for lo in range(0, n, _IDENTITY_BLOCK):
        hi = min(n, lo + _IDENTITY_BLOCK)
        if not np.array_equal(array[lo:hi], np.arange(lo, hi)):
            return False
    return True


def as_row_ids(indices) -> np.ndarray:
    """``indices`` as a row-id array (a boolean mask selects its set rows)."""
    indices = np.asarray(indices)
    return np.flatnonzero(indices) if indices.dtype == bool else indices


class Column:
    """One immutable column vector.

    Parameters
    ----------
    dtype:
        Logical type of the column.
    data:
        Encoded numpy array (codes for string columns).
    dictionary:
        Required for string columns, forbidden otherwise.
    null_mask:
        Optional boolean array where ``True`` marks NULL rows.

    Materialisation is late: :meth:`take` records ``(source, row ids)``
    and the gather runs when ``data`` or ``null_mask`` is first read — a
    column nobody reads is never gathered.  Length, ``dtype``,
    ``dictionary`` and the presence of a null mask need no gather.
    """

    __slots__ = ("dtype", "dictionary", "_data", "_mask", "_source", "_rows",
                 "_digest")

    def __init__(
        self,
        dtype: DataType,
        data: np.ndarray,
        dictionary: Optional[Dictionary] = None,
        null_mask: Optional[np.ndarray] = None,
    ) -> None:
        if dtype.is_string and dictionary is None:
            raise SchemaError("string columns require a dictionary")
        if not dtype.is_string and dictionary is not None:
            raise SchemaError(f"{dtype} columns must not carry a dictionary")
        if null_mask is not None and len(null_mask) != len(data):
            raise SchemaError("null mask length must match data length")
        self.dtype = dtype
        self.dictionary = dictionary
        if null_mask is not None:
            null_mask = np.asarray(null_mask, dtype=bool)
        self._data = np.ascontiguousarray(data, dtype=dtype.numpy_dtype)
        self._mask = null_mask
        self._source = self._rows = None  # set only while a take is deferred
        self._digest = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows if self._data is None else self._data)

    @property
    def data(self) -> np.ndarray:
        """The encoded vector (gathered on first read when deferred)."""
        if self._data is None:
            self._gather()
        return self._data

    @property
    def null_mask(self) -> Optional[np.ndarray]:
        """Boolean NULL mask, or ``None`` — which never needs a gather."""
        if self._data is None and self._mask is not None:
            self._gather()
        return self._mask

    def _gather(self) -> None:
        """Run the deferred gather; the lineage is not needed afterwards."""
        if self._mask is not None:
            self._mask = self._mask[self._rows]
        self._data = self._source[self._rows]
        self._source = self._rows = None

    def digest(self) -> str:
        """Content digest of ``data`` + ``null_mask`` — the column's name in
        the device cache — hashed on first request and kept (immutable, so
        never stale); equal bytes ⇔ equal digest, whatever the lineage."""
        if self._digest is None:
            self._digest = content_digest(self.data, self.null_mask)
        return self._digest

    @property
    def has_nulls(self) -> bool:
        return self.null_mask is not None and bool(self.null_mask.any())

    @property
    def encoded_nbytes(self) -> int:
        """Bytes of the encoded vector (what a GPU transfer would move)."""
        size = len(self) * self.dtype.numpy_dtype.itemsize
        if self._mask is not None:
            size += len(self) // 8 + 1
        return size

    @property
    def logical_nbytes(self) -> int:
        """Bytes at the declared (uncompressed) width."""
        return len(self) * self.dtype.bytes

    def decoded(self) -> np.ndarray:
        """Materialise logical values (decodes string dictionaries)."""
        if self.dictionary is not None:
            return self.dictionary.decode(self.data)
        return self.data

    def values_at(self, indices: Sequence[int]) -> list:
        """Decoded python values at ``indices`` (None for NULLs)."""
        indices = np.asarray(indices, dtype=np.intp)
        out = self.decoded()[indices].tolist()
        if self.null_mask is not None:
            for position in np.flatnonzero(self.null_mask[indices]):
                out[position] = None
        return out

    # ------------------------------------------------------------------
    # Transformations (all return new columns; none gathers)
    # ------------------------------------------------------------------

    def take(
        self, indices: np.ndarray, composed: Optional[dict] = None
    ) -> "Column":
        """Rows at ``indices`` (row ids or a boolean mask), gathered late.

        Until it is read, the result holds the source's arrays and the row
        ids.  A take of a still-deferred column composes the two row-id
        arrays instead; ``composed`` (``id(row ids) -> composition``) lets
        :meth:`Table.take` do that once for the columns sharing them.
        """
        indices = as_row_ids(indices)
        source, rows = self._data, indices
        if source is None:
            composed = {} if composed is None else composed
            source, rows = self._source, composed.get(id(self._rows))
            if rows is None:
                rows = composed[id(self._rows)] = self._rows[indices]
        out = object.__new__(Column)
        out.dtype, out.dictionary = self.dtype, self.dictionary
        out._data, out._mask = None, self._mask
        out._source, out._rows, out._digest = source, rows, None
        return out

    def slice(self, start: int, stop: int) -> "Column":
        """Rows ``start:stop`` (a :meth:`take`)."""
        return self.take(np.arange(*slice(start, stop).indices(len(self))))

    # ------------------------------------------------------------------
    # Order-aware views
    # ------------------------------------------------------------------

    def sort_keys(self) -> np.ndarray:
        """An array whose natural order matches the logical value order.

        Numerics sort on their values; string columns sort on the
        dictionary's collation rank so comparisons never decode.
        """
        if self.dictionary is not None:
            return self.dictionary.sort_rank[self.data]
        return self.data

    def min_max(self) -> tuple:
        """Logical (min, max); Nones when the column is empty/all-NULL."""
        keys = self.sort_keys()
        valid = None
        if self.null_mask is not None:
            valid = np.flatnonzero(~self.null_mask)
            keys = keys[valid]
        if not len(keys):
            return (None, None)
        lo, hi = np.argmin(keys), np.argmax(keys)
        if valid is not None:
            lo, hi = valid[lo], valid[hi]
        decoded = self.decoded()
        return (decoded[lo], decoded[hi])


# ---------------------------------------------------------------------------
# Constructors from python data
# ---------------------------------------------------------------------------


def column_from_values(dtype: DataType, values: Iterable) -> Column:
    """Build a column from an iterable of python values.

    ``None`` entries become NULLs.  String columns get a frequency-ordered
    dictionary via :mod:`repro.blu.compression`.
    """
    from repro.blu.compression import build_dictionary  # local: avoid cycle

    values = list(values)
    null_mask = np.array([v is None for v in values], dtype=bool)
    if not null_mask.any():
        null_mask = None

    if dtype.is_string:
        filled = ["" if v is None else str(v) for v in values]
        dictionary, codes = build_dictionary(filled)
        return Column(dtype, codes, dictionary, null_mask)

    if dtype.kind is TypeKind.FLOAT:
        filled = [0.0 if v is None else float(v) for v in values]
    else:
        filled = [0 if v is None else int(v) for v in values]
    data = np.asarray(filled, dtype=dtype.numpy_dtype)
    return Column(dtype, data, None, null_mask)


def column_from_array(dtype: DataType, data: np.ndarray) -> Column:
    """Wrap a numeric numpy array directly (no dictionary, no NULLs)."""
    if dtype.is_string:
        raise TypeMismatchError("use column_from_values for string columns")
    return Column(dtype, data)
