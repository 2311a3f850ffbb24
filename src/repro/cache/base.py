"""Byte-capacity cache interface shared by all replacement policies."""

from __future__ import annotations

import abc
from typing import Dict, Iterator, List, Optional

from repro.cache.descriptors import ObjectDescriptor


class CacheTooSmallError(Exception):
    """Raised when an insertion cannot be accommodated.

    Covers both an object larger than the cache's total capacity and the
    rarer case where the policy's victim selection cannot free enough
    space (e.g. every large-enough entry is excluded from eviction).
    Callers treat it as "do not cache here"; the cache is left unchanged.
    """


class CacheEntry:
    """A cached object copy plus its descriptor."""

    __slots__ = ("descriptor",)

    def __init__(self, descriptor: ObjectDescriptor) -> None:
        self.descriptor = descriptor

    @property
    def object_id(self) -> int:
        return self.descriptor.object_id

    @property
    def size(self) -> int:
        return self.descriptor.size


class Cache(abc.ABC):
    """A store of object copies bounded by a byte capacity.

    Subclasses implement the replacement policy through
    :meth:`select_victims`.  Insertions that need space call it and evict
    the returned victims; infeasible insertions (object larger than the
    whole cache, or victim selection unable to free enough space) raise
    :class:`CacheTooSmallError` (callers treat that as "do not cache").
    """

    #: Short replacement-policy tag stamped on eviction events by the
    #: instrumentation layer (subclasses override).
    policy_name: str = "cache"

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        # object id -> entry.  Readable by callers that need a membership
        # test without a call frame (the schemes' per-hop lookup); only
        # the cache's own operations (and the fast path's state
        # write-back) write it.
        self.entries: Dict[int, CacheEntry] = {}
        self._used = 0
        # Instrumentation hook (see repro.obs.instruments.CacheObserver):
        # strictly observational, None in uninstrumented runs.
        self.observer = None

    # -- inspection --------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self.entries

    def object_ids(self) -> Iterator[int]:
        return iter(self.entries)

    def entry(self, object_id: int) -> Optional[CacheEntry]:
        """Entry for an object without touching recency state."""
        return self.entries.get(object_id)

    # -- policy hooks ------------------------------------------------------

    @abc.abstractmethod
    def select_victims(
        self, needed_bytes: int, now: float, exclude: Optional[int] = None
    ) -> List[CacheEntry]:
        """Pick entries to evict to free at least ``needed_bytes``.

        Must not mutate the cache.  ``exclude`` names an object id that is
        never a victim (the object being inserted).
        """

    def on_access(self, entry: CacheEntry, now: float) -> None:
        """Policy hook invoked on a cache hit (default: no-op)."""

    def on_insert(self, entry: CacheEntry, now: float) -> None:
        """Policy hook invoked after an entry joins the cache."""

    def on_remove(self, entry: CacheEntry) -> None:
        """Policy hook invoked after an entry leaves the cache."""

    # -- operations --------------------------------------------------------

    def access(self, object_id: int, now: float) -> Optional[CacheEntry]:
        """Look up an object on a request; updates policy recency state."""
        entry = self.entries.get(object_id)
        if entry is not None:
            self.on_access(entry, now)
        return entry

    def insert(self, descriptor: ObjectDescriptor, now: float) -> List[CacheEntry]:
        """Insert an object copy, evicting victims as needed.

        Returns the evicted entries (empty when none were needed).  If the
        object is already present this is a no-op returning ``[]``.  When
        the object cannot be accommodated -- larger than the whole cache,
        or victim selection cannot free enough space -- the insertion is
        refused with :class:`CacheTooSmallError` and the cache is left
        untouched (no partial eviction).
        """
        object_id = descriptor.object_id
        if object_id in self.entries:
            return []
        if descriptor.size > self.capacity_bytes:
            raise CacheTooSmallError(
                f"object {object_id} ({descriptor.size} B) exceeds capacity "
                f"{self.capacity_bytes} B"
            )
        evicted: List[CacheEntry] = []
        observer = self.observer
        needed = descriptor.size - self.free_bytes
        if needed > 0:
            if observer is None:
                victims = self.select_victims(needed, now, exclude=object_id)
            else:
                victims = observer.select_victims(
                    self, needed, now, object_id
                )
            freed = sum(v.size for v in victims)
            if freed < needed:
                # Infeasible eviction: refuse gracefully before touching
                # any entry, so the caller can simply not cache here.
                raise CacheTooSmallError(
                    f"cannot make room for object {object_id}: victims free "
                    f"{freed} B of the {needed} B needed"
                )
            for victim in victims:
                self._remove_entry(victim)
                evicted.append(victim)
            if observer is not None and evicted:
                observer.on_evictions(self, evicted, now)
        entry = CacheEntry(descriptor)
        self.entries[object_id] = entry
        self._used += descriptor.size
        self.on_insert(entry, now)
        if observer is not None:
            observer.on_occupancy(self._used)
        return evicted

    def remove(self, object_id: int) -> Optional[CacheEntry]:
        """Remove an object explicitly (e.g. invalidation)."""
        entry = self.entries.get(object_id)
        if entry is None:
            return None
        self._remove_entry(entry)
        if self.observer is not None:
            self.observer.on_invalidation(entry)
        return entry

    def _remove_entry(self, entry: CacheEntry) -> None:
        del self.entries[entry.object_id]
        self._used -= entry.size
        self.on_remove(entry)

    def check_invariants(self) -> None:
        """Assert accounting consistency (used by tests)."""
        actual = sum(e.size for e in self.entries.values())
        if actual != self._used:
            raise AssertionError(f"byte accounting drift: {actual} != {self._used}")
        if self._used > self.capacity_bytes:
            raise AssertionError("cache over capacity")
