"""The GPU global hash table: layout, mask initialisation, insertion.

Three pieces of section 4.3.1 live here:

- :class:`HashTableLayout` computes the aligned entry layout and the
  *initialisation mask* of Table 1 (key bytes = 0xF.., SUM -> 0,
  MAX -> type minimum, MIN -> type maximum, trailing padding);
- :func:`combine_keys` packs multi-column grouping keys (the CCAT output)
  into a single comparable word;
- :class:`GpuHashTable` simulates the parallel open-addressing insert:
  rows hash to a slot (mod hash for keys up to 64 bits, Murmur beyond),
  claim empty slots atomically (first writer wins, losers retry — the
  atomicCAS behaviour), and linearly probe past occupied mismatches.  The
  simulation walks each *distinct* key once (all its rows share one probe
  path) and counts every row's probes, so the cost model charges the real
  probe traffic, and raises :class:`~repro.errors.HashTableOverflowError` when
  the table was sized too small — the error path the KMV estimate guards.
  On the host a CAS round is a reversed scatter of key ids into a slot-owner
  array and a gather back, over a compacted ``(key id, slot)`` walk; the key
  words land in ``table`` once, from the final slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blu.datatypes import TypeKind
from repro.blu.expressions import AggFunc
from repro.blu.operators.aggregate import Factorisation
from repro.blu.statistics import murmur3_fmix64, murmur3_combine
from repro.errors import HashTableOverflowError, HashTableReuseError
from repro.gpu.kernels.request import PayloadSpec

_EMPTY = np.int64(np.iinfo(np.int64).min)       # sentinel for a free slot
_ALIGNMENTS = (16, 8, 4, 2, 1)                  # Nvidia-permitted alignments


# ---------------------------------------------------------------------------
# Entry layout and mask (Table 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaskField:
    """One field of the per-entry initialisation mask."""

    name: str
    width_bytes: int
    init_value: object      # "F"*hexdigits for keys, numeric for payloads


@dataclass(frozen=True)
class HashTableLayout:
    """Aligned entry layout for one group-by's hash table."""

    key_bytes: int
    fields: tuple[MaskField, ...]
    entry_bytes: int
    padding_bytes: int

    @classmethod
    def build(cls, key_bits: int, payloads: list[PayloadSpec]) -> "HashTableLayout":
        """Lay out (key, payload..., padding) with Nvidia alignment rules."""
        key_bytes = max(4, (key_bits + 7) // 8)
        fields = [MaskField("key", key_bytes, "F" * (key_bits // 4))]
        for i, payload in enumerate(payloads):
            fields.append(MaskField(
                f"{payload.func.value}{i}",
                payload.width_bytes,
                _payload_init_value(payload),
            ))
        raw = sum(f.width_bytes for f in fields)
        alignment = next(a for a in _ALIGNMENTS
                         if a <= max(f.width_bytes for f in fields))
        entry = ((raw + alignment - 1) // alignment) * alignment
        padding = entry - raw
        if padding:
            fields.append(MaskField("padding", padding, 0))
        return cls(key_bytes=key_bytes, fields=tuple(fields),
                   entry_bytes=entry, padding_bytes=padding)

    def mask_row(self) -> list[object]:
        """The Table-1 mask: one init value per field, in entry order."""
        return [f.init_value for f in self.fields]

    def table_bytes(self, slots: int) -> int:
        return self.entry_bytes * slots


def _payload_init_value(payload: PayloadSpec) -> object:
    """Initial accumulator value for a payload slot (Table 1)."""
    dtype, func = payload.dtype, payload.func
    if func in (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG):
        return 0.0 if dtype.kind is TypeKind.FLOAT else 0
    if dtype.kind is TypeKind.FLOAT:
        return -np.inf if func is AggFunc.MAX else np.inf
    bits = min(dtype.bits, 64)
    lo = -(2 ** (bits - 1))
    hi = 2 ** (bits - 1) - 1
    if dtype.kind is TypeKind.STRING:
        # Collation-rank space: [0, cardinality); use the widest int bounds.
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    return lo if func is AggFunc.MAX else hi


# ---------------------------------------------------------------------------
# Multi-column key packing (CCAT output -> one comparable word)
# ---------------------------------------------------------------------------


def combine_keys(key_arrays: list[np.ndarray]) -> tuple[np.ndarray, bool]:
    """Pack per-column key arrays into one int64 word per row.

    Returns ``(combined, exact)``.  When the value ranges fit in 63 bits the
    packing is exact (bit-shifted, collision-free); otherwise the columns
    are mixed with Murmur and ``exact`` is False — a 64-bit fingerprint
    whose collision probability at our scales is negligible but nonzero,
    which the caller may surface in stats.
    """
    if not key_arrays:
        raise ValueError("combine_keys requires at least one key column")
    if len(key_arrays) == 1:
        return key_arrays[0].astype(np.int64, copy=False), True

    shifted_bits = []
    offsets = []
    for arr in key_arrays:
        if len(arr) == 0:
            lo, hi = 0, 0
        else:
            lo, hi = int(arr.min()), int(arr.max())
        span = hi - lo
        bits = max(1, int(span).bit_length())
        shifted_bits.append(bits)
        offsets.append(lo)
    if sum(shifted_bits) <= 63:
        combined = np.zeros(len(key_arrays[0]), dtype=np.int64)
        for arr, bits, lo in zip(key_arrays, shifted_bits, offsets):
            combined = (combined << np.int64(bits)) | (
                arr.astype(np.int64) - np.int64(lo)
            )
        return combined, True
    mixed = murmur3_combine([a.astype(np.int64) for a in key_arrays])
    return mixed.view(np.int64), False


# ---------------------------------------------------------------------------
# Parallel open-addressing insert simulation
# ---------------------------------------------------------------------------


@dataclass
class InsertStats:
    """What the insert loop observed (drives the cost model)."""

    rows: int
    probes: int               # extra probe steps beyond the first visit
    rounds: int               # CAS retry rounds
    groups: int
    slots: int

    @property
    def fill_ratio(self) -> float:
        return self.groups / self.slots if self.slots else 0.0

    @property
    def total_accesses(self) -> int:
        return self.rows + self.probes


class GpuHashTable:
    """Simulated device-global open-addressing table for one kernel run."""

    def __init__(self, slots: int, key_bits: int,
                 layout: HashTableLayout) -> None:
        if slots <= 0:
            raise ValueError("hash table needs at least one slot")
        self.slots = int(slots)
        self.key_bits = key_bits
        self.layout = layout
        self.table = np.full(self.slots, _EMPTY, dtype=np.int64)
        self.filled = 0
        self.alias: np.int64 | None = None  # what the empty-marker key rides as

    @classmethod
    def sized_for(cls, estimated_groups: int, key_bits: int,
                  payloads: list[PayloadSpec],
                  headroom: float = 1.5) -> "GpuHashTable":
        """Size the table "slightly larger than the estimated number of
        groups" (section 4.3.1)."""
        slots = max(16, int(estimated_groups * headroom))
        layout = HashTableLayout.build(key_bits, payloads)
        return cls(slots, key_bits, layout)

    @property
    def table_bytes(self) -> int:
        return self.layout.table_bytes(self.slots)

    def _slot_of(self, keys: np.ndarray) -> np.ndarray:
        """Slot choice per section 4.3.1: the (cheap) mod hash for keys up
        to 64 bits, Murmur beyond.

        Both paths mod a *fully mixed* word, because the chain's HASH
        evaluator has already avalanche-hashed the keys by the time the
        kernel sees them.  Taking ``key % H`` on raw values — or even on a
        multiplicative (Fibonacci) mix, whose low bits stay structured —
        collapses sequential surrogate keys and packed composites onto a
        small cyclic slot subgroup and blows up linear probing (a real 30x
        probe explosion observed during development).  The cheap/Murmur
        distinction the paper draws survives in the cost model: wide keys
        pay the lock-guarded insert penalty.
        """
        hashed = murmur3_fmix64(keys)
        return (hashed % np.uint64(self.slots)).astype(np.int64)

    def as_stored(self, keys: np.ndarray) -> np.ndarray:
        """``keys`` as this table stores them: the empty marker rides under
        the insert's alias, and a real key equal to that alias becomes the
        marker, which (like every free slot) matches nothing."""
        if self.alias is None:
            return keys
        return np.where(keys == _EMPTY, self.alias,
                        np.where(keys == self.alias, _EMPTY, keys))

    def insert(self,
               factors: Factorisation) -> tuple[np.ndarray, InsertStats]:
        """Insert every row's key; return (slot per row, stats).

        Simulates the massively-parallel loop: all unresolved rows act each
        round; empty slots are claimed first-writer-wins (atomicCAS), losers
        retry, occupied mismatches probe linearly.  Every row of a key walks
        the same probe path, so the rounds run over the *distinct* keys
        (``factors``: ordered by first appearance, weighted by multiplicity):
        the key with the earliest first row wins a contested empty slot, and
        its key-mates find the entry one round later.  A table takes one
        insert: starting empty, it overflows iff the batch has more distinct
        keys than slots, which is decided before the first round.
        """
        if self.filled:
            raise HashTableReuseError(
                "insert runs once per table (it must start empty)")
        group_index, dkeys, weight = factors
        n_keys = len(dkeys)
        if n_keys > self.slots:
            raise HashTableOverflowError(
                f"{n_keys} distinct keys cannot fit {self.slots} slots "
                "(group estimate too small)")
        if (dkeys == _EMPTY).any():
            # The all-F pattern marks a free slot, so a key equal to it
            # rides under the nearest value absent from this (only) batch.
            alias = _EMPTY + 1
            while (dkeys == alias).any():
                alias += 1
            self.alias = alias
            dkeys = self.as_stored(dkeys)
        # owner[s] is the id of the key holding slot s (-1: free).  Ids
        # ascend by first row, so scattering them in reverse leaves the
        # earliest contender in each free slot: the atomicCAS winner.
        owner = np.full(self.slots, -1, dtype=np.int64)
        key_slot = np.empty(n_keys, dtype=np.int64)
        unit = not n_keys or int(weight.max()) == 1
        active = bid = np.arange(n_keys)     # round 1: every slot is free
        pos = self._slot_of(dkeys)
        probes = rounds = 0
        while active.size:      # keys <= slots: every path ends at a free slot
            rounds += 1
            owner[pos[::-1]] = bid[::-1]
            key_slot[active] = pos          # a loser's is rewritten later
            lost = np.flatnonzero(owner[pos] != active)
            if not lost.size:
                # The last winners' key-mates lost the CAS and match one
                # round later.
                rounds += int(not unit and weight[active].max() > 1)
                break
            # Everyone left faces an occupied mismatch: probe onward.
            active, pos = active[lost], pos[lost] + 1
            pos[pos == self.slots] = 0
            probes += active.size if unit else int(weight[active].sum())
            # An occupied slot bids its owner, so only free slots change.
            occupant = owner[pos]
            bid = np.where(occupant < 0, active, occupant)
        self.table[key_slot] = dkeys
        self.filled = n_keys
        return key_slot[group_index], InsertStats(
            rows=len(group_index), probes=probes, rounds=rounds,
            groups=self.filled, slots=self.slots)
