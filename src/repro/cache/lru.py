"""Least-recently-used cache (baseline replacement policy)."""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.cache.base import Cache, CacheEntry


class LRUCache(Cache):
    """Evicts the least recently accessed objects first.

    This is the replacement policy of the paper's LRU and MODULO baselines
    (section 3.3).
    """

    policy_name = "lru"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._recency: "OrderedDict[int, None]" = OrderedDict()

    def select_victims(
        self, needed_bytes: int, now: float, exclude: Optional[int] = None
    ) -> List[CacheEntry]:
        victims: List[CacheEntry] = []
        freed = 0
        for object_id in self._recency:
            if object_id == exclude:
                continue
            entry = self.entries[object_id]
            victims.append(entry)
            freed += entry.size
            if freed >= needed_bytes:
                break
        return victims

    def on_access(self, entry: CacheEntry, now: float) -> None:
        self._recency.move_to_end(entry.object_id)

    def on_insert(self, entry: CacheEntry, now: float) -> None:
        self._recency[entry.object_id] = None

    def on_remove(self, entry: CacheEntry) -> None:
        self._recency.pop(entry.object_id, None)

    def recency_order(self) -> List[int]:
        """Object ids from least to most recently used (for tests)."""
        return list(self._recency)
