"""Cost-based cache ordered by normalized cost loss (NCL).

This is the storage substrate of both the coordinated scheme and the
LNC-R baseline.  Victim selection implements the paper's greedy knapsack
heuristic (section 2.1): order cached objects by
``NCL(O) = f(O) * m(O) / s(O)`` and purge from the smallest NCL upward
until enough space is free.  The cache additionally exposes
:meth:`cost_loss`, the *hypothetical* total cost loss ``l`` of making room
for a given object -- the quantity nodes piggyback on request messages.

Entries are kept in a bisect-maintained sorted key list.  The key of an
entry is its NCL at the last (lazy) refresh; any mutation of frequency or
miss penalty flows through :meth:`record_access` / :meth:`set_miss_penalty`
/ :meth:`refresh_key`, which re-sort the touched entry in O(log n + n)
worst case (list memmove) but O(log n) comparisons -- fast at realistic
per-node cache populations.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.cache.base import Cache, CacheEntry


class NCLCache(Cache):
    """Cache whose eviction order is ascending normalized cost loss."""

    policy_name = "ncl"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        # Sorted list of (ncl_key, object_id); one tuple per entry.
        self._order: List[Tuple[float, int]] = []
        self._keys: Dict[int, float] = {}

    # -- key maintenance ---------------------------------------------------

    def _insert_key(self, object_id: int, key: float) -> None:
        bisect.insort(self._order, (key, object_id))
        self._keys[object_id] = key

    def _delete_key(self, object_id: int) -> None:
        key = self._keys.pop(object_id)
        index = bisect.bisect_left(self._order, (key, object_id))
        # The tuple is guaranteed present at `index`.
        if self._order[index] != (key, object_id):
            raise AssertionError("NCL order list out of sync")
        del self._order[index]

    def refresh_key(self, object_id: int, now: float) -> None:
        """Re-sort one entry after its descriptor changed."""
        entry = self.entries.get(object_id)
        if entry is None:
            return
        new_key = entry.descriptor.normalized_cost_loss(now)
        if new_key != self._keys[object_id]:
            self._delete_key(object_id)
            self._insert_key(object_id, new_key)

    # -- descriptor mutation entry points -----------------------------------

    def record_access(self, object_id: int, now: float) -> None:
        """Record a reference on a cached object's descriptor."""
        entry = self.entries.get(object_id)
        if entry is None:
            raise KeyError(f"object {object_id} not cached")
        entry.descriptor.record_access(now)
        self.refresh_key(object_id, now)

    def set_miss_penalty(self, object_id: int, miss_penalty: float, now: float) -> None:
        """Update a cached object's miss penalty (response-path update)."""
        entry = self.entries.get(object_id)
        if entry is None:
            raise KeyError(f"object {object_id} not cached")
        entry.descriptor.miss_penalty = miss_penalty
        self.refresh_key(object_id, now)

    # -- policy ---------------------------------------------------------------

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

    def cost_loss(self, object_id: int, size: int, now: float) -> Optional[float]:
        """Cost loss ``l`` of making room for an object (no mutation).

        Sums each victim's *current* ``f(O_i) * m(O_i)`` at ``now`` over
        the greedy victim prefix; the prefix itself follows the same
        lazily refreshed key order as :meth:`select_victims`, so the
        reported ``l`` prices exactly the eviction that would happen.
        (Summing the stale sorted keys instead would inflate the
        piggybacked ``l_i`` for aged victims and bias the placement DP
        against caching.)  Returns 0 when the object already fits (or is
        already cached), and ``None`` when the object cannot fit at all
        (larger than capacity) -- callers treat ``None`` as "node cannot
        cache this object".
        """
        if size > self.capacity_bytes:
            return None
        if object_id in self.entries:
            return 0.0
        needed = size - (self.capacity_bytes - self._used)
        if needed <= 0:
            return 0.0
        loss = 0.0
        freed = 0
        entries = self.entries
        # The loop variable must not be named ``object_id``: it would
        # shadow the parameter, which is still meaningful after the loop.
        for _, victim_id in self._order:
            descriptor = entries[victim_id].descriptor
            loss += descriptor.value(now) * descriptor.miss_penalty
            freed += descriptor.size
            if freed >= needed:
                return loss
        # Even a full purge cannot make room for ``object_id``.
        return None

    def on_insert(self, entry: CacheEntry, now: float) -> None:
        self._insert_key(
            entry.object_id, entry.descriptor.normalized_cost_loss(now)
        )

    def on_remove(self, entry: CacheEntry) -> None:
        self._delete_key(entry.object_id)

    def eviction_order(self) -> List[int]:
        """Object ids from smallest to largest NCL key (for tests)."""
        return [object_id for _, object_id in self._order]

    def check_invariants(self) -> None:
        super().check_invariants()
        if len(self._order) != len(self.entries) or len(self._keys) != len(self.entries):
            raise AssertionError("NCL key bookkeeping drift")
        if any(
            self._order[i] > self._order[i + 1]
            for i in range(len(self._order) - 1)
        ):
            raise AssertionError("NCL order list not sorted")
        if {oid for _, oid in self._order} != set(self.entries):
            raise AssertionError("NCL order list does not match entries")
        if any(self._keys.get(oid) != key for key, oid in self._order):
            raise AssertionError("NCL order keys disagree with key map")
