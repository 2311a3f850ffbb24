"""GreedyDual-Size cache [Cao & Irani 1997; Jin & Bestavros 2000].

A classic cost-aware single-cache policy from the paper's related-work
space (section 5 cites the popularity-aware variant [8]).  Each cached
object carries a priority ``H(O) = L + f(O) * cost(O) / s(O)`` where ``L``
is a running inflation value; eviction removes the minimum-priority
object and raises ``L`` to its priority, aging out objects that stopped
being referenced.  With the frequency factor this is GreedyDual-Size-
Popularity (GDSP); setting ``popularity_aware=False`` gives plain GDS.

The object's ``cost`` is taken from its descriptor's miss penalty, which
the schemes set to the immediate upstream link cost (the same convention
the LNC-R baseline uses).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.cache.base import Cache, CacheEntry


class GDSCache(Cache):
    """Cache ordered by inflated GreedyDual-Size priorities."""

    policy_name = "gds"

    def __init__(self, capacity_bytes: int, popularity_aware: bool = True) -> None:
        super().__init__(capacity_bytes)
        self.popularity_aware = popularity_aware
        self._inflation = 0.0
        self._order: List[Tuple[float, int]] = []
        self._keys: Dict[int, float] = {}

    @property
    def inflation(self) -> float:
        """The running aging value ``L``."""
        return self._inflation

    def _priority(self, entry: CacheEntry, now: float) -> float:
        descriptor = entry.descriptor
        value = descriptor.miss_penalty / descriptor.size
        if self.popularity_aware:
            value *= descriptor.frequency(now)
        return self._inflation + value

    def _insert_key(self, object_id: int, key: float) -> None:
        bisect.insort(self._order, (key, object_id))
        self._keys[object_id] = key

    def _delete_key(self, object_id: int) -> None:
        key = self._keys.pop(object_id)
        index = bisect.bisect_left(self._order, (key, object_id))
        if self._order[index] != (key, object_id):
            raise AssertionError("GDS order list out of sync")
        del self._order[index]

    def select_victims(
        self, needed_bytes: int, now: float, exclude: Optional[int] = None
    ) -> List[CacheEntry]:
        victims: List[CacheEntry] = []
        freed = 0
        for _, object_id in self._order:
            if object_id == exclude:
                continue
            entry = self.entries[object_id]
            victims.append(entry)
            freed += entry.size
            if freed >= needed_bytes:
                break
        return victims

    def on_access(self, entry: CacheEntry, now: float) -> None:
        """Re-inflate the touched object's priority (GreedyDual refresh)."""
        entry.descriptor.record_access(now)
        self._delete_key(entry.object_id)
        self._insert_key(entry.object_id, self._priority(entry, now))

    def on_insert(self, entry: CacheEntry, now: float) -> None:
        self._insert_key(entry.object_id, self._priority(entry, now))

    def on_remove(self, entry: CacheEntry) -> None:
        # Eviction raises L to the victim's priority -- the GreedyDual
        # aging step.  (Explicit invalidations inflate too; the effect is
        # a slightly faster aging, harmless for the baseline.)
        key = self._keys[entry.object_id]
        if key > self._inflation:
            self._inflation = key
        self._delete_key(entry.object_id)

    def eviction_order(self) -> List[int]:
        """Object ids from smallest to largest priority (for tests)."""
        return [object_id for _, object_id in self._order]

    def check_invariants(self) -> None:
        super().check_invariants()
        if len(self._order) != len(self.entries):
            raise AssertionError("GDS key bookkeeping drift")
        if any(key < self._inflation - 1e12 for key, _ in self._order):
            raise AssertionError("priority below inflation floor")
