"""Shared request/result types for the group-by kernels."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.blu.datatypes import DataType
from repro.blu.expressions import AggFunc
from repro.blu.operators.aggregate import Factorisation, factorise


@dataclass(frozen=True)
class PayloadSpec:
    """One aggregation payload: the value type and the function applied."""

    dtype: DataType
    func: AggFunc

    @property
    def width_bytes(self) -> int:
        return max(self.dtype.bytes, 4)


@dataclass
class GroupByRequest:
    """Everything a group-by kernel needs, as assembled by the host chain.

    ``keys`` is the combined grouping key per row (the CCAT output packed
    into one int64 word — see :func:`repro.gpu.kernels.hashtable.combine_keys`);
    ``key_bits`` is the *declared* width of the concatenated key, which
    decides the hash function and the atomics-vs-locks insert path exactly
    as in section 4.3.1.  ``factors`` is the chain's factorisation of
    ``keys`` and ``hashes`` the chain's Murmur of its distinct keys: the
    executors hand both in and every kernel, raced rival and regrow attempt
    reads them — :meth:`factorisation` derives the former on first use for
    a request built without one, and the insert hashes for itself without
    the latter.  A piece of a split group-by is cut at the group level: no
    ``keys``, and ``factors`` without a ``group_index`` until a kernel that
    reads rows asks :meth:`factorisation`, which builds it with
    ``row_groups``.
    """

    keys: Optional[np.ndarray]
    key_bits: int
    payloads: list[PayloadSpec]
    estimated_groups: int
    exact_keys: bool = True
    factors: Optional[Factorisation] = field(default=None, repr=False)
    hashes: Optional[np.ndarray] = field(default=None, repr=False)
    row_groups: Optional[Callable[[], np.ndarray]] = field(default=None,
                                                           repr=False)

    def groups(self) -> Factorisation:
        """The factorisation, its ``group_index`` possibly not yet built."""
        if self.factors is None:
            self.factors = factorise(self.keys)[0]
        return self.factors

    def factorisation(self) -> Factorisation:
        """The factorisation, with every row's group id."""
        factors = self.groups()
        if factors.group_index is None:
            self.factors = factors = factors._replace(
                group_index=self.row_groups())
        return factors

    @property
    def rows(self) -> int:
        if self.keys is not None:
            return len(self.keys)
        return int(self.factors.counts.sum())

    @property
    def num_aggs(self) -> int:
        return len(self.payloads)


@dataclass
class GroupByKernelResult:
    """Functional group assignment plus simulated kernel timing."""

    kernel: str
    #: Dense group id per row, first-appearance order (None for a piece
    #: whose rows the kernel did not read).
    group_index: Optional[np.ndarray]
    n_groups: int
    kernel_seconds: float
    table_bytes: int                 # device memory held by the hash table
    stats: dict = field(default_factory=dict)
