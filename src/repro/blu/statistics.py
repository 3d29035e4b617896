"""Hashing and statistics: murmur3, mod hash, KMV distinct sketches.

Section 4 of the paper uses two hash functions in the GPU kernels — a cheap
mod hash for keys up to 64 bits and MurmurHash for wider keys — and the
K-Minimum-Values (KMV) sketch to estimate the number of groups from the
hashed key stream so the GPU hash table can be sized before launch.

All hashes here are vectorised over numpy int64 arrays and deterministic, so
the GPU/CPU paths agree exactly and property tests can replay them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.blu.operators.aggregate import dense_span

_U64 = np.uint64
_MASK64 = _U64(0xFFFFFFFFFFFFFFFF)


def murmur3_fmix64(keys: np.ndarray) -> np.ndarray:
    """The 64-bit finaliser of MurmurHash3, vectorised.

    This is the standard fmix64 avalanche used as the per-word mixing step of
    MurmurHash3's 128-bit variant; applied to whole words it is the usual way
    engines hash fixed-width keys "with murmur".
    """
    h = np.array(keys, dtype=np.int64).view(np.uint64)     # the one copy
    with np.errstate(over="ignore"):
        h ^= h >> _U64(33)
        h *= _U64(0xFF51AFD7ED558CCD)
        h ^= h >> _U64(33)
        h *= _U64(0xC4CEB9FE1A85EC53)
        h ^= h >> _U64(33)
    return h


def murmur3_combine(parts: list[np.ndarray]) -> np.ndarray:
    """Hash a multi-word (wider than 64-bit) key: fmix each word, then mix.

    Used for concatenated grouping keys (the CCAT evaluator output) and any
    key wider than 64 bits, matching the paper's "Murmur hashing algorithm
    ... when the key size is larger than 64 bit".
    """
    if not parts:
        raise ValueError("murmur3_combine requires at least one key part")
    acc = murmur3_fmix64(np.asarray(parts[0]))
    with np.errstate(over="ignore"):
        for part in parts[1:]:
            word = murmur3_fmix64(np.asarray(part))
            acc = (acc ^ (word + _U64(0x9E3779B97F4A7C15)
                          + (acc << _U64(6)) + (acc >> _U64(2)))) & _MASK64
            acc = murmur3_fmix64(acc.view(np.int64))
    return acc


def mod_hash(keys: np.ndarray, buckets: int) -> np.ndarray:
    """The cheap mod hash the paper uses for keys of at most 64 bits."""
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    return (keys.astype(np.int64).view(np.uint64) % _U64(buckets)).astype(np.int64)


# ---------------------------------------------------------------------------
# KMV distinct-value sketch
# ---------------------------------------------------------------------------


@dataclass
class KmvEstimate:
    """Result of a KMV estimation pass."""

    estimate: float
    k: int
    exact: bool

    @property
    def groups(self) -> int:
        """Integer estimate, never below 1."""
        return max(1, int(round(self.estimate)))


class KmvSketch:
    """K-Minimum-Values sketch over 64-bit hash values.

    Keeps the ``k`` smallest distinct hashes seen; the distinct-count
    estimator is the classical ``(k - 1) / max_kth_normalised``.  When fewer
    than ``k`` distinct hashes were seen the count is exact.

    The hybrid group-by chain feeds it the output of the HASH evaluator, so
    estimating groups costs one pass that the chain performs anyway
    (section 4.1: "use a simple hash function and KMV algorithm to estimate
    the number of groups").
    """

    def __init__(self, k: int = 1024) -> None:
        if k < 2:
            raise ValueError("KMV requires k >= 2")
        self.k = k
        self._values: Optional[np.ndarray] = None   # sorted uint64, <= k of them
        self._saturated = False

    def update(self, hashes: np.ndarray) -> None:
        """Fold a batch of 64-bit hashes into the sketch."""
        batch = _smallest_distinct(
            np.asarray(hashes, dtype=np.uint64).ravel(), self.k + 1)
        if self._values is None:
            merged = batch
        else:
            merged = np.union1d(self._values, batch)
        if len(merged) > self.k:
            merged = merged[: self.k]
            self._saturated = True
        self._values = merged

    def estimate(self) -> KmvEstimate:
        if self._values is None or len(self._values) == 0:
            return KmvEstimate(estimate=0.0, k=self.k, exact=True)
        n = len(self._values)
        if not self._saturated and n < self.k:
            return KmvEstimate(estimate=float(n), k=self.k, exact=True)
        kth = float(self._values[self.k - 1])
        normalised = kth / float(2**64)
        if normalised <= 0.0:
            return KmvEstimate(estimate=float(n), k=self.k, exact=False)
        return KmvEstimate(estimate=(self.k - 1) / normalised, k=self.k, exact=False)


def _smallest_distinct(values: np.ndarray, limit: int) -> np.ndarray:
    """The ``limit`` smallest distinct values, sorted (all when fewer).

    ``np.partition`` isolates a prefix — every value up to some cut, so
    its distinct values are exactly the batch's smallest — without sorting
    the rest; one that holds too few is widened by the multiplicity it
    showed (doubled for slack), at most to the whole batch.
    """
    take = 2 * limit
    while take < len(values):
        head = np.unique(np.partition(values, take - 1)[:take])
        if len(head) >= limit:
            return head[:limit]
        take = 2 * take * limit // len(head)
    return np.unique(values)[:limit]


def estimate_distinct(hashes: np.ndarray, k: int = 1024) -> KmvEstimate:
    """One-shot KMV estimate for a single hash batch."""
    sketch = KmvSketch(k=k)
    sketch.update(hashes)
    return sketch.estimate()


# ---------------------------------------------------------------------------
# Column statistics (what the optimizer keeps in the catalog)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnStats:
    """Catalog statistics for one column."""

    rows: int
    distinct: int
    null_count: int
    min_value: object
    max_value: object

    @property
    def selectivity_equals(self) -> float:
        """Uniform-assumption selectivity of an equality predicate."""
        if self.distinct <= 0:
            return 1.0
        return 1.0 / self.distinct


def compute_column_stats(column) -> ColumnStats:
    """Exact statistics for a stored column (collected at load time).

    BLU collects statistics during LOAD; the optimizer later *estimates*
    derived cardinalities from these.  Using exact base stats plus estimated
    derivations mirrors that split.
    """
    null_count = int(column.null_mask.sum()) if column.null_mask is not None else 0
    lo, hi = column.min_max()
    return ColumnStats(
        rows=len(column),
        distinct=count_distinct(column.data),
        null_count=null_count,
        min_value=lo,
        max_value=hi,
    )


def count_distinct(data: np.ndarray) -> int:
    """Exact distinct count of an encoded vector, in passes over memory.

    Integers and dictionary codes inside the span rule (``dense_span``)
    mark a span-sized table and count the marks; wider integers sort once
    and count the value changes.  Floats (NaNs collapse to one) and empty
    vectors keep ``np.unique``.
    """
    if data.dtype.kind not in "iu" or not len(data):
        return len(np.unique(data))
    span = dense_span(data, len(data))
    if span is None:
        ordered = np.sort(data)
        return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
    seen = np.zeros(span[1], dtype=bool)
    # Read as unsigned, ``data - min`` is the true offset even where it
    # wraps the signed dtype (an int8 column spanning more than 127).
    seen[(data - span[0]).view(f"u{data.dtype.itemsize}")] = True
    return int(np.count_nonzero(seen))
