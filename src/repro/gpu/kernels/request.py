"""Shared request/result types for the group-by kernels."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    ``keys``: the executors hand it in and every kernel, raced rival and
    regrow attempt reads it through :meth:`factorisation`, which derives
    it on first use for a request built without one.  A piece of a split
    group-by is a slice of its operator's factorisation: no ``keys``.
    """

    keys: Optional[np.ndarray]
    key_bits: int
    payloads: list[PayloadSpec]
    estimated_groups: int
    exact_keys: bool = True
    factors: Optional[Factorisation] = field(default=None, repr=False)

    def factorisation(self) -> Factorisation:
        if self.factors is None:
            self.factors = factorise(self.keys)[0]
        return self.factors

    @property
    def rows(self) -> int:
        return len(self.keys if self.factors is None
                   else self.factors.group_index)

    @property
    def num_aggs(self) -> int:
        return len(self.payloads)


@dataclass
class GroupByKernelResult:
    """Functional group assignment plus simulated kernel timing."""

    kernel: str
    group_index: np.ndarray          # dense group id per row, first-appearance order
    n_groups: int
    kernel_seconds: float
    table_bytes: int                 # device memory held by the hash table
    stats: dict = field(default_factory=dict)
