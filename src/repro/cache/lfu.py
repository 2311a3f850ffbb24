"""Least-frequently-used cache.

Not used by any of the paper's object caches directly, but provided as a
classic baseline and as the policy backbone of the d-cache (which manages
descriptors by LFU, section 2.4).  Eviction order is lowest hit count
first, ties broken least-recently-used first.  Bookkeeping is O(1) via
frequency buckets, and so is the swap the d-cache makes on every
insertion into a full d-cache (:meth:`_FrequencyBuckets.replace_victim`
drops the victim and adds the new id in one operation); only
:class:`LFUCache`'s multi-victim walk (which may skip an excluded id)
sorts the bucket counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.base import Cache, CacheEntry


class _FrequencyBuckets:
    """hit-count -> insertion-ordered ids, with O(1) promote and victim swap.

    Buckets are plain dicts (insertion-ordered, like ``OrderedDict``, and
    cheaper).  ``_min_count`` is kept equal to ``min(_buckets)`` whenever
    a bucket exists, so the victim -- the oldest id of the lowest count --
    is the first key of ``_buckets[_min_count]`` without sorting.
    """

    __slots__ = ("_counts", "_buckets", "_min_count")

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._buckets: Dict[int, Dict[int, None]] = {}
        self._min_count = 0

    def __contains__(self, key: int) -> bool:
        return key in self._counts

    def count(self, key: int) -> int:
        return self._counts[key]

    def add(self, key: int) -> None:
        if key in self._counts:
            raise KeyError(f"duplicate key {key}")
        self._counts[key] = 1
        bucket = self._buckets.get(1)
        if bucket is None:
            self._buckets[1] = {key: None}
        else:
            bucket[key] = None
        self._min_count = 1

    def promote(self, key: int) -> None:
        counts = self._counts
        buckets = self._buckets
        count = counts[key]
        bucket = buckets[count]
        del bucket[key]
        if not bucket:
            del buckets[count]
            if self._min_count == count:
                self._min_count = count + 1
        count += 1
        counts[key] = count
        bucket = buckets.get(count)
        if bucket is None:
            buckets[count] = {key: None}
        else:
            bucket[key] = None

    def discard(self, key: int) -> None:
        count = self._counts.pop(key, None)
        if count is None:
            return
        bucket = self._buckets[count]
        del bucket[key]
        if not bucket:
            del self._buckets[count]
            if self._min_count == count:
                self._min_count = min(self._buckets, default=0)

    def replace_victim(self, key: int) -> int:
        """Swap the first key of :meth:`eviction_order` for a new ``key``.

        Leaves the state that removing the victim and then calling
        :meth:`add` would: the victim leaves the lowest-count bucket and
        ``key`` (which must be absent) joins count 1 as its newest id.
        Returns the victim.
        """
        counts = self._counts
        buckets = self._buckets
        count = self._min_count
        bucket = buckets[count]
        for victim in bucket:
            break
        del bucket[victim]
        del counts[victim]
        counts[key] = 1
        if count == 1:
            bucket[key] = None
            return victim
        if not bucket:
            del buckets[count]
        buckets[1] = {key: None}
        self._min_count = 1
        return victim

    def eviction_order(self):
        """Yield keys lowest-count-first, LRU-first within a count."""
        for count in sorted(self._buckets):
            yield from self._buckets[count]

    def check_invariants(self) -> None:
        if any(not bucket for bucket in self._buckets.values()):
            raise AssertionError("empty frequency bucket left behind")
        if self._buckets and self._min_count != min(self._buckets):
            raise AssertionError(
                f"min count {self._min_count} is not the lowest bucket "
                f"{min(self._buckets)}"
            )
        bucketed = {
            key: count
            for count, bucket in self._buckets.items()
            for key in bucket
        }
        if bucketed != self._counts:
            raise AssertionError("frequency buckets disagree with counts")


class LFUCache(Cache):
    """Evicts least-frequently-accessed objects first (ties: LRU)."""

    policy_name = "lfu"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._buckets = _FrequencyBuckets()

    def select_victims(
        self, needed_bytes: int, now: float, exclude: Optional[int] = None
    ) -> List[CacheEntry]:
        victims: List[CacheEntry] = []
        freed = 0
        for object_id in self._buckets.eviction_order():
            if object_id == exclude:
                continue
            entry = self.entries[object_id]
            victims.append(entry)
            freed += entry.size
            if freed >= needed_bytes:
                break
        return victims

    def hit_count(self, object_id: int) -> int:
        """Accesses recorded for a cached object (for tests)."""
        return self._buckets.count(object_id)

    def on_access(self, entry: CacheEntry, now: float) -> None:
        self._buckets.promote(entry.object_id)

    def on_insert(self, entry: CacheEntry, now: float) -> None:
        self._buckets.add(entry.object_id)

    def on_remove(self, entry: CacheEntry) -> None:
        self._buckets.discard(entry.object_id)
