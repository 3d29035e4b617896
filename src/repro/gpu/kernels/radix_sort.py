"""GPU radix sort over 4-byte partial keys (section 3).

The paper uses Nvidia's Merrill/Grimshaw "Duane" radix sort kernel.  We
model it: a stable LSD radix sort over the 4-byte partial keys, one pass
per 8-bit digit, at the calibrated device rate.  The kernel also returns
the *duplicate ranges* — runs of tuples whose 4-byte partial keys are
identical — which the host turns into follow-up jobs on the next 4 key
bytes.

The functional sort is an LSD radix sort too, at 16 bits per pass — the
digit width numpy's stable sort counts in linear time — so the output is
the one stable order; the cost is priced per modelled 8-bit pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CostModel

_RADIX_BITS = 8
_KEY_BITS = 32
_PASSES = _KEY_BITS // _RADIX_BITS


@dataclass
class RadixSortResult:
    """Sorted order, duplicate ranges, and simulated timing."""

    order: np.ndarray
    #: Start and length of every duplicate range (a run of tuples sharing
    #: one 4-byte partial key), as parallel int64 arrays.
    duplicate_starts: np.ndarray
    duplicate_lengths: np.ndarray
    kernel_seconds: float
    device_bytes: int


class RadixSortKernel:
    """Merrill-style radix sort of (4-byte key, 4-byte payload) pairs."""

    name = "radix_sort"

    def __init__(self, cost: CostModel) -> None:
        self.cost = cost

    def device_bytes(self, rows: int) -> int:
        """Keys + payloads + double buffer (radix sort ping-pongs)."""
        return rows * 8 * 2

    def run(self, keys: np.ndarray) -> RadixSortResult:
        """Sort ``keys`` (uint32 partial keys); stable within equal keys."""
        keys = np.ascontiguousarray(keys, dtype=np.uint32)
        rows = len(keys)
        order = np.argsort(keys.astype(np.uint16), kind="stable")
        high = (keys >> np.uint32(16)).astype(np.uint16)
        order = order[np.argsort(high[order], kind="stable")]

        starts, lengths = find_duplicate_ranges(keys[order])

        kernel_seconds = (
            rows * _PASSES / (self.cost.gpu_radix_sort_rate * _PASSES)
            if rows else 0.0
        )
        # Duplicate-range detection is one extra linear scan on device.
        kernel_seconds += rows / self.cost.gpu_scan_rate if rows else 0.0
        return RadixSortResult(
            order=order,
            duplicate_starts=starts,
            duplicate_lengths=lengths,
            kernel_seconds=kernel_seconds,
            device_bytes=self.device_bytes(rows),
        )


def find_duplicate_ranges(
        sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, lengths)`` of the runs of length > 1 in a sorted array."""
    n = len(sorted_keys)
    change = np.ones(n, dtype=bool)
    change[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(change)
    lengths = np.diff(starts, append=n)
    repeated = lengths > 1
    return starts[repeated], lengths[repeated]
