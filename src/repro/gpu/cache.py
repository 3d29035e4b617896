"""Device-resident column-segment cache.

The paper's own measurements (sections 2.1 and 5) put PCIe transfer at
the top of every offload cost breakdown: consecutive queries over the
same fact table re-ship the same encoded columns on every launch.  The
related GPU-OLAP literature answers with device-side column caching, and
this module is our reservation-friendly version of that idea:

- Entries are *immutable compressed column segments* keyed by
  ``(table, column, segment, catalog_version)``.  Columns are immutable
  after load (:mod:`repro.blu.column`), so a cached copy can never go
  stale; the ``segment`` component is a role-prefixed content digest of
  the encoded bytes, standing in for the segment/TSN identity a real
  column store would carry.  The column owns it (:meth:`~repro.blu.
  column.Column.digest`: hashed once, kept) and identity stays content-
  addressed, not lineage: identical digest implies identical staged
  bytes, so derived tables (a fact table gathered through an
  order-preserving N:1 dimension join) hit on their base columns' entries.
- A hit elides the host->device transfer entirely: the executor stages
  and ships only the missed bytes (``transfer_seconds(0) == 0.0`` -- no
  setup overhead either).
- Every entry holds its own :class:`~repro.gpu.memory.Reservation`
  (tag ``"cache"``), so cached bytes are visible to the section-2.1.1
  reservation discipline instead of hiding from it.  The budget is a
  configurable fraction of device memory (``SystemConfig.
  cache_fraction``); eviction is LRU within the budget and
  *pressure-driven* beyond it -- when a query's reservation cannot be
  satisfied, the scheduler shrinks the cache before falling back to the
  CPU.
- Device loss or quarantine invalidates that device's entries
  wholesale; a catalog version bump makes every older key unreachable.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

from repro.blu.column import content_digest  # noqa: F401  (re-export)
from repro.errors import DeviceMemoryError
from repro.gpu.memory import DeviceMemoryManager, Reservation
from repro.obs.tracing import NULL_TRACER


@dataclass(frozen=True)
class SegmentKey:
    """Identity of one cached segment.

    ``segment`` is a role-prefixed content digest (``"key:..."``,
    ``"agg:..."``, ``"sort:..."``, ``"join-build:..."``): the same
    column staged in different encodings (packed grouping codes vs.
    4-byte agg payloads) must occupy distinct entries.

    ``table``/``column`` are *provenance labels* for observability and
    are excluded from equality: a fact column gathered unchanged through
    an order-preserving N:1 join arrives under a derived table name, yet
    its staged bytes — and therefore its digest — are identical to the
    base column's, and the whole point of the cache is that such a
    segment need not be shipped twice.  Content-addressed identity makes
    that sharing sound by construction.
    """

    table: str = field(compare=False)
    column: str = field(compare=False)
    segment: str = field(compare=True)
    catalog_version: int = field(compare=True)


@dataclass(frozen=True)
class StagedSegment:
    """One cacheable slice of an operator's staged input."""

    key: SegmentKey
    nbytes: int


class DeviceColumnCache:
    """LRU cache of column segments resident in one device's memory.

    The cache *reserves* what it holds: every entry owns a live
    ``tag="cache"`` reservation against the device's
    :class:`~repro.gpu.memory.DeviceMemoryManager`, bounded by
    ``budget_bytes``.  A budget of zero disables the cache.
    """

    def __init__(
        self,
        memory: DeviceMemoryManager,
        budget_bytes: int,
        device_id: int = -1,
        tracer=NULL_TRACER,
        metrics=None,
    ) -> None:
        self.memory = memory
        self.budget_bytes = max(0, budget_bytes)
        self.device_id = device_id
        self.tracer = tracer
        self.metrics = metrics
        self._entries: OrderedDict[SegmentKey, Reservation] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.inserted_bytes = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.insert_failures = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.budget_bytes > 0

    @property
    def cached_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: SegmentKey) -> bool:
        return key in self._entries

    def cached_bytes_for(self, keys: Iterable[SegmentKey]) -> int:
        """Bytes of ``keys`` already resident (no LRU touch, no stats).

        This is what the scheduler's cache-affinity ranking consults.
        """
        entries = self._entries
        return sum(entries[k].nbytes for k in set(keys) if k in entries)

    def stats(self) -> dict:
        """Counter snapshot for ``repro cache-stats`` and tests."""
        lookups = self.hits + self.misses
        return {
            "device_id": self.device_id,
            "budget_bytes": self.budget_bytes,
            "cached_bytes": self._bytes,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_bytes": self.hit_bytes,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "inserted_bytes": self.inserted_bytes,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "insert_failures": self.insert_failures,
            "invalidations": self.invalidations,
        }

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def lookup(self, key: SegmentKey) -> bool:
        """True when ``key`` is resident; touches LRU order and stats."""
        reservation = self._entries.get(key)
        if reservation is None:
            self.misses += 1
            self._count("repro_cache_misses_total", "Cache segment misses")
            return False
        self._entries.move_to_end(key)
        self.hits += 1
        self.hit_bytes += reservation.nbytes
        self._count("repro_cache_hits_total", "Cache segment hits")
        self.tracer.instant(
            "cache.hit",
            device_id=self.device_id,
            table=key.table,
            column=key.column,
            bytes=reservation.nbytes,
        )
        return True

    def insert(self, key: SegmentKey, nbytes: int) -> bool:
        """Admit one segment under the byte budget; True on success.

        Older entries are LRU-evicted until the segment fits the budget;
        the device memory itself is claimed through the reservation
        protocol, so an injected ``reserve``/``alloc`` fault (or genuine
        contention with in-flight query reservations) skips the insert
        cleanly -- the cache never holds a half-materialised entry.
        """
        if not self.enabled or nbytes <= 0 or nbytes > self.budget_bytes:
            return False
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        while self._entries and self._bytes + nbytes > self.budget_bytes:
            self._evict(next(iter(self._entries)), reason="budget")
        reservation = self.memory.try_reserve(nbytes, tag="cache")
        if reservation is None:
            self.insert_failures += 1
            return False
        try:
            self.memory.allocate(reservation, nbytes)
        except DeviceMemoryError:
            self.memory.release(reservation)
            self.insert_failures += 1
            return False
        self._entries[key] = reservation
        self._bytes += nbytes
        self.inserted_bytes += nbytes
        self._observe_bytes()
        self.tracer.instant(
            "cache.insert",
            device_id=self.device_id,
            table=key.table,
            column=key.column,
            bytes=nbytes,
        )
        return True

    # ------------------------------------------------------------------
    # Eviction / invalidation
    # ------------------------------------------------------------------

    def shrink(
        self,
        nbytes: int,
        protect: Iterable[SegmentKey] = (),
    ) -> int:
        """Evict LRU-first until ``nbytes`` are freed; returns freed bytes.

        This is the pressure path: the scheduler calls it when a query
        reservation cannot be satisfied but would fit if the cache gave
        ground.  ``protect`` marks the segments the very query is about
        to use -- they are sacrificed only if nothing else is left.
        """
        protected = set(protect)
        freed = 0
        for key in list(self._entries):
            if freed >= nbytes:
                return freed
            if key in protected:
                continue
            freed += self._evict(key, reason="pressure")
        for key in list(self._entries):
            if freed >= nbytes:
                break
            freed += self._evict(key, reason="pressure")
        return freed

    def invalidate_all(self, reason: str) -> int:
        """Drop every entry (device loss / quarantine); returns count."""
        dropped = len(self._entries)
        if not dropped:
            return 0
        dropped_bytes = self._bytes
        for key in list(self._entries):
            self._evict(key, reason=reason)
        self.invalidations += 1
        self.tracer.instant(
            "cache.invalidate",
            device_id=self.device_id,
            reason=reason,
            entries=dropped,
            bytes=dropped_bytes,
        )
        return dropped

    def _evict(self, key: SegmentKey, reason: str) -> int:
        reservation = self._entries.pop(key)
        self.memory.release(reservation)
        self._bytes -= reservation.nbytes
        self.evictions += 1
        self.evicted_bytes += reservation.nbytes
        self._count(
            "repro_cache_evictions_total",
            "Cache entries evicted",
        )
        self._observe_bytes()
        self.tracer.instant(
            "cache.evict",
            device_id=self.device_id,
            table=key.table,
            column=key.column,
            bytes=reservation.nbytes,
            reason=reason,
        )
        return reservation.nbytes

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------

    def _count(self, name: str, help: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                name,
                help,
                labelnames=("device",),
            ).labels(device=str(self.device_id)).inc()

    def _observe_bytes(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_cache_bytes",
                "Bytes of column segments resident in the device cache",
                labelnames=("device",),
            ).labels(device=str(self.device_id)).set(self._bytes)
