"""Frequency-based dictionary compression.

BLU compresses columns with frequency-ordered dictionary coding: values that
appear most often receive the smallest codes so that approximate-Huffman
packing gives them the shortest encodings.  Our reproduction keeps the
frequency-ordered code assignment (it also makes code distributions realistic
inputs for the GPU hash kernels) and models the packed width analytically
instead of actually bit-packing, which is what the transfer-size accounting
uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.blu.column import Dictionary


def build_dictionary(values: list[str],
                     counts=None) -> tuple[Dictionary, np.ndarray]:
    """Dictionary-encode ``values``.

    Returns ``(dictionary, codes)`` where codes are assigned in descending
    frequency order (ties broken by value, so encoding is deterministic) and
    the dictionary carries collation ranks so order-based operations work on
    codes.  ``counts[i]``, when given, is how many rows ``values[i]`` stands
    for, so a vocabulary can be encoded in place of the rows drawn from it.
    """
    arr = np.asarray(values, dtype=object)
    uniques, inverse = np.unique(arr, return_inverse=True)
    counts = np.bincount(inverse, weights=counts, minlength=len(uniques))
    # np.unique returns values in sorted order; re-rank by (-count, value).
    freq_order = np.lexsort((np.arange(len(uniques)), -counts))
    # code_of_sorted[i] = code assigned to uniques[i]
    code_of_sorted = np.empty(len(uniques), dtype=np.int32)
    code_of_sorted[freq_order] = np.arange(len(uniques), dtype=np.int32)
    codes = code_of_sorted[inverse].astype(np.int32)

    dict_values = np.empty(len(uniques), dtype=object)
    dict_values[code_of_sorted] = uniques
    # Collation rank of each code: uniques are already sorted, so the value at
    # code c has rank equal to its position in `uniques`.
    sort_rank = np.empty(len(uniques), dtype=np.int32)
    sort_rank[code_of_sorted] = np.arange(len(uniques), dtype=np.int32)
    return Dictionary(values=dict_values, sort_rank=sort_rank), codes


@dataclass(frozen=True)
class CompressionStats:
    """Analytic model of one column's compressed footprint."""

    rows: int
    cardinality: int
    logical_bytes: int
    packed_bits_per_value: int
    packed_bytes: int
    dictionary_bytes: int

    @property
    def compressed_bytes(self) -> int:
        return self.packed_bytes + self.dictionary_bytes

    @property
    def ratio(self) -> float:
        if self.compressed_bytes == 0:
            return 1.0
        return self.logical_bytes / self.compressed_bytes


def packed_width_bits(cardinality: int) -> int:
    """Bits needed for a fixed-width packed code of ``cardinality`` values."""
    if cardinality <= 1:
        return 1
    return max(1, math.ceil(math.log2(cardinality)))


def packed_transfer_bytes(rows: int, cardinality: int,
                          floor_bits: int = 8, ceil_bits: int = 32) -> int:
    """Bytes needed to ship ``rows`` dictionary codes at their packed width.

    This is what the MEMCPY evaluator stages for a GPU transfer: BLU data
    moves in its encoded form ("minimum conversion cost"), so a 12-store
    key column ships at one byte per row, not its logical width.  Width is
    clamped to whole bytes between ``floor_bits`` and ``ceil_bits``.
    """
    bits = packed_width_bits(max(cardinality, 1))
    bits = min(max(bits, floor_bits), ceil_bits)
    whole_bytes = (bits + 7) // 8
    return rows * whole_bytes


def compression_stats(rows: int, cardinality: int, value_bytes: int) -> CompressionStats:
    """Model the packed size of a dictionary-coded column.

    ``value_bytes`` is the logical width of one value (dictionary entry).
    """
    bits = packed_width_bits(max(cardinality, 1))
    packed_bytes = (rows * bits + 7) // 8
    return CompressionStats(
        rows=rows,
        cardinality=cardinality,
        logical_bytes=rows * value_bytes,
        packed_bits_per_value=bits,
        packed_bytes=packed_bytes,
        dictionary_bytes=cardinality * value_bytes,
    )
