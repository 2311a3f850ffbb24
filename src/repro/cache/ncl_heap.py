"""Heap-organized NCL cache (the paper's suggested data structure).

Section 2.4: "descriptors of cached objects can be organized as a heap
based on their normalized cost losses.  In this way, the time complexity
for each adjustment (e.g., insertion and removal) is O(log m)."

:class:`HeapNCLCache` implements that design with lazy deletion: every
descriptor mutation pushes a fresh ``(ncl, object_id, version)`` entry
with a globally unique version; stale heap entries are discarded when
popped.  The heap is compacted when it grows past a small multiple of
the live population, keeping amortized costs at O(log m).

It is policy-equivalent to :class:`repro.cache.ncl.NCLCache` (the
bisect-list variant used by default) -- the property tests replay random
workloads through both and require identical victim choices -- and the
micro-benchmark compares their costs.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Dict, List, Optional, Tuple

from repro.cache.base import Cache, CacheEntry

_COMPACT_FACTOR = 4


class HeapNCLCache(Cache):
    """NCL-ordered cache backed by a lazy-deletion min-heap."""

    policy_name = "ncl-heap"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        # Heap items: (ncl, tiebreak object_id, version).  The object id
        # participates in ordering so equal-NCL ties resolve identically
        # to the sorted-list implementation.  Versions are globally
        # unique and monotone so a re-inserted object can never match a
        # stale heap entry from an earlier incarnation.
        self._heap: List[Tuple[float, int, int]] = []
        self._versions: Dict[int, int] = {}
        self._seq = count()

    # -- internal ----------------------------------------------------------

    def _push(self, object_id: int, now: float) -> None:
        entry = self.entries[object_id]
        version = next(self._seq)
        self._versions[object_id] = version
        key = entry.descriptor.normalized_cost_loss(now)
        heapq.heappush(self._heap, (key, object_id, version))

    def _is_live(self, item: Tuple[float, int, int]) -> bool:
        _, object_id, version = item
        return self._versions.get(object_id) == version

    def _compact(self) -> None:
        if len(self._heap) > _COMPACT_FACTOR * max(len(self.entries), 1):
            self._heap = [item for item in self._heap if self._is_live(item)]
            heapq.heapify(self._heap)

    # -- descriptor mutation entry points ------------------------------------

    def record_access(self, object_id: int, now: float) -> None:
        """Record a reference on a cached object's descriptor."""
        entry = self.entries.get(object_id)
        if entry is None:
            raise KeyError(f"object {object_id} not cached")
        entry.descriptor.record_access(now)
        self._push(object_id, now)
        self._compact()

    def set_miss_penalty(self, object_id: int, miss_penalty: float, now: float) -> None:
        """Update a cached object's miss penalty (response-path update)."""
        entry = self.entries.get(object_id)
        if entry is None:
            raise KeyError(f"object {object_id} not cached")
        entry.descriptor.miss_penalty = miss_penalty
        self._push(object_id, now)
        self._compact()

    # -- policy ----------------------------------------------------------------

    def select_victims(
        self, needed_bytes: int, now: float, exclude: Optional[int] = None
    ) -> List[CacheEntry]:
        victims: List[CacheEntry] = []
        freed = 0
        # Non-mutating scan: pop live items in order, then restore.
        popped: List[Tuple[float, int, int]] = []
        seen: set = set()
        while self._heap and freed < needed_bytes:
            item = heapq.heappop(self._heap)
            popped.append(item)
            if not self._is_live(item):
                continue
            _, object_id, _ = item
            if object_id in seen or object_id == exclude:
                continue
            seen.add(object_id)
            entry = self.entries[object_id]
            victims.append(entry)
            freed += entry.size
        for item in popped:
            if self._is_live(item):
                heapq.heappush(self._heap, item)
        # Dead items dropped: the scan doubles as compaction.
        return victims

    def cost_loss(self, object_id: int, size: int, now: float) -> Optional[float]:
        """Cost loss ``l`` of making room for an object (no mutation).

        Victim order follows the NCL keys recorded at the victims' last
        refresh, but each victim's loss contribution is its *current*
        ``f(O_i) * m(O_i)`` at ``now`` -- the same semantics as
        :class:`repro.cache.ncl.NCLCache`, so the two structures stay
        decision-identical.
        """
        if size > self.capacity_bytes:
            return None
        if object_id in self.entries:
            return 0.0
        needed = size - self.free_bytes
        if needed <= 0:
            return 0.0
        loss = 0.0
        freed = 0
        popped: List[Tuple[float, int, int]] = []
        seen: set = set()
        while self._heap and freed < needed:
            item = heapq.heappop(self._heap)
            popped.append(item)
            if not self._is_live(item):
                continue
            _, victim_id, _ = item
            if victim_id in seen:
                continue
            seen.add(victim_id)
            entry = self.entries[victim_id]
            loss += entry.descriptor.cost_rate(now)
            freed += entry.size
        for item in popped:
            if self._is_live(item):
                heapq.heappush(self._heap, item)
        if freed < needed:
            return None
        return loss

    def on_insert(self, entry: CacheEntry, now: float) -> None:
        self._push(entry.object_id, now)

    def on_remove(self, entry: CacheEntry) -> None:
        del self._versions[entry.object_id]

    def eviction_order(self) -> List[int]:
        """Live object ids in ascending NCL order (for tests; O(m log m))."""
        live = {}
        for key, object_id, version in self._heap:
            if self._versions.get(object_id) == version:
                live[object_id] = (key, object_id)
        return [oid for _, oid in sorted(live.values())]

    def check_invariants(self) -> None:
        super().check_invariants()
        if set(self._versions) != set(self.entries):
            raise AssertionError("heap version bookkeeping drift")
        live = {
            object_id
            for _, object_id, version in self._heap
            if self._versions.get(object_id) == version
        }
        if live != set(self.entries):
            raise AssertionError("heap is missing live entries")
