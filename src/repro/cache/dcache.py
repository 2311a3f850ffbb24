"""The d-cache: an auxiliary descriptor cache (paper section 2.4).

Each node keeps a small d-cache holding the descriptors of the most
frequently accessed objects *not* stored in the main cache, so cost
savings of candidate objects can be evaluated without keeping descriptors
for the whole universe.  Capacity is measured in descriptor count (a
descriptor is a few tens of bytes, so the d-cache's byte footprint is
negligible, section 3.2).

The paper manages the d-cache with simple LFU, and notes that descriptors
can alternatively be organized into LRU stacks for O(1) maintenance when
frequencies come from a sliding window.  Both policies are provided here
(``policy="lfu"`` -- the default -- and ``policy="lru"``); the ablation
bench ``benchmarks/test_ablation_dcache_policy.py`` compares them.  Each
policy is one order object with the same four operations (``add``,
``promote``, ``discard``, ``replace_victim``), picked once at
construction, and every one of them is O(1): the LFU victim is the oldest
id of the lowest-count bucket, the LRU victim the oldest id overall.

Admitting a descriptor into a full d-cache is one swap: ``insert`` asks
the order object to replace its victim with the new id in a single
``replace_victim`` call, drops the victim's descriptor and hands it to
the observer -- the same state and the same victim as evicting first and
adding second.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.cache.lfu import _FrequencyBuckets
from repro.cache.descriptors import ObjectDescriptor

_POLICIES = ("lfu", "lru")


class _RecencyOrder:
    """LRU order over ids, least recently referenced first."""

    __slots__ = ("_order",)

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def add(self, key: int) -> None:
        self._order[key] = None

    def promote(self, key: int) -> None:
        self._order.move_to_end(key)

    def discard(self, key: int) -> None:
        self._order.pop(key, None)

    def replace_victim(self, key: int) -> int:
        order = self._order
        victim = order.popitem(last=False)[0]
        order[key] = None
        return victim

    def eviction_order(self):
        return iter(self._order)

    def check_invariants(self) -> None:
        pass


class DescriptorCache:
    """Store of up to ``capacity`` object descriptors (LFU or LRU managed)."""

    def __init__(self, capacity: int, policy: str = "lfu") -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}")
        self.capacity = capacity
        self.policy = policy
        # Instrumentation hook (see repro.obs.instruments.DcacheObserver):
        # strictly observational, None in uninstrumented runs.
        self.observer = None
        # object id -> descriptor.  Readable by callers that need a lookup
        # without a call frame (the schemes' per-hop walk); only the
        # d-cache's own operations (and the fast path's state write-back)
        # write it.
        self.descriptors: Dict[int, ObjectDescriptor] = {}
        self._order = _FrequencyBuckets() if policy == "lfu" else _RecencyOrder()

    def __len__(self) -> int:
        return len(self.descriptors)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self.descriptors

    def eviction_order(self) -> List[int]:
        """Descriptor ids in the order the policy would evict them."""
        return list(self._order.eviction_order())

    # -- operations ------------------------------------------------------------

    def get(self, object_id: int) -> Optional[ObjectDescriptor]:
        """Descriptor lookup; counts as a policy reference when present."""
        descriptor = self.descriptors.get(object_id)
        if descriptor is not None:
            self._order.promote(object_id)
        return descriptor

    def peek(self, object_id: int) -> Optional[ObjectDescriptor]:
        """Descriptor lookup without touching policy state."""
        return self.descriptors.get(object_id)

    def insert(self, descriptor: ObjectDescriptor) -> List[ObjectDescriptor]:
        """Insert a descriptor, evicting per policy if full.

        Returns evicted descriptors.  Inserting an already-present id
        replaces the stored descriptor without resetting its policy state.
        A full d-cache swaps its policy victim for the new id in one
        order operation.
        """
        object_id = descriptor.object_id
        descriptors = self.descriptors
        if object_id in descriptors:
            descriptors[object_id] = descriptor
            return []
        if len(descriptors) < self.capacity:
            descriptors[object_id] = descriptor
            self._order.add(object_id)
            return []
        if self.capacity == 0:
            return [descriptor]
        evicted = [descriptors.pop(self._order.replace_victim(object_id))]
        descriptors[object_id] = descriptor
        if self.observer is not None:
            self.observer.on_evictions(self, evicted)
        return evicted

    def remove(self, object_id: int) -> Optional[ObjectDescriptor]:
        """Remove a descriptor (e.g. when the object enters the main cache)."""
        descriptor = self.descriptors.pop(object_id, None)
        if descriptor is not None:
            self._order.discard(object_id)
        return descriptor

    def check_invariants(self) -> None:
        if len(self.descriptors) > self.capacity:
            raise AssertionError("d-cache over capacity")
        self._order.check_invariants()
        tracked = self.eviction_order()
        if len(tracked) != len(self.descriptors) or set(tracked) != (
            self.descriptors.keys()
        ):
            raise AssertionError("d-cache policy bookkeeping drift")
