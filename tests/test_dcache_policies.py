"""Tests for the d-cache's LRU policy variant (paper section 2.4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.dcache import DescriptorCache
from repro.cache.descriptors import ObjectDescriptor


def desc(object_id: int) -> ObjectDescriptor:
    return ObjectDescriptor(object_id, size=100)


class TestLRUPolicy:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            DescriptorCache(4, policy="fifo")

    def test_evicts_least_recently_referenced(self):
        dcache = DescriptorCache(2, policy="lru")
        dcache.insert(desc(1))
        dcache.insert(desc(2))
        dcache.get(1)  # 2 becomes LRU
        evicted = dcache.insert(desc(3))
        assert [d.object_id for d in evicted] == [2]
        assert 1 in dcache and 3 in dcache

    def test_peek_does_not_refresh_recency(self):
        dcache = DescriptorCache(2, policy="lru")
        dcache.insert(desc(1))
        dcache.insert(desc(2))
        dcache.peek(1)
        evicted = dcache.insert(desc(3))
        assert [d.object_id for d in evicted] == [1]

    def test_remove_and_reinsert(self):
        dcache = DescriptorCache(2, policy="lru")
        dcache.insert(desc(1))
        assert dcache.remove(1).object_id == 1
        dcache.insert(desc(1))
        assert 1 in dcache
        dcache.check_invariants()

    def test_policies_diverge_on_frequency_skew(self):
        """LFU protects a hot descriptor that LRU would age out."""
        lfu = DescriptorCache(2, policy="lfu")
        lru = DescriptorCache(2, policy="lru")
        for cache in (lfu, lru):
            cache.insert(desc(1))
            for _ in range(5):
                cache.get(1)  # object 1 is hot
            cache.insert(desc(2))
            cache.get(2)
            cache.get(2)
        # One more recent but colder insert after touching 2:
        lfu.get(2)
        lru.get(2)
        lfu.insert(desc(3))
        lru.insert(desc(3))
        assert 1 in lfu  # protected by its reference count
        assert 1 not in lru  # aged out by recency

    def test_invariants_under_churn(self):
        for policy in ("lfu", "lru"):
            dcache = DescriptorCache(3, policy=policy)
            for i in range(40):
                dcache.insert(desc(i))
                if i % 2 == 0:
                    dcache.get(i)
                dcache.check_invariants()


class TestSchemesAcceptPolicy:
    def test_factory_passes_dcache_policy(self, chain_costs):
        from repro.sim.factory import build_scheme

        scheme = build_scheme(
            "coordinated", chain_costs, 1000, 8, dcache_policy="lru"
        )
        assert scheme.node_state(0).dcache.policy == "lru"
        scheme2 = build_scheme("lnc-r", chain_costs, 1000, 8)
        assert scheme2.node_state(0).dcache.policy == "lfu"


class _VictimModel:
    """Executable statement of each policy's victim rule, by brute force.

    Every tracked id carries the stamp of the operation that last moved
    it (insertion, or a ``get``); LFU also its reference count.  The LFU
    victim is the lowest count, oldest stamp within it -- the first id of
    the sorted-bucket order; the LRU victim is the oldest stamp.
    """

    def __init__(self, capacity: int, policy: str) -> None:
        self.capacity = capacity
        self.policy = policy
        self.tracked = {}  # id -> (count, stamp)
        self.clock = 0

    def _stamp(self) -> int:
        self.clock += 1
        return self.clock

    def get(self, key: int) -> None:
        if key in self.tracked:
            count, _ = self.tracked[key]
            self.tracked[key] = (count + 1, self._stamp())

    def remove(self, key: int) -> None:
        self.tracked.pop(key, None)

    def insert(self, key: int) -> list:
        if key in self.tracked or self.capacity == 0:
            return [key] if self.capacity == 0 else []
        victims = []
        while len(self.tracked) >= self.capacity:
            if self.policy == "lfu":
                victim = min(self.tracked, key=lambda k: self.tracked[k])
            else:
                victim = min(self.tracked, key=lambda k: self.tracked[k][1])
            victims.append(victim)
            del self.tracked[victim]
        self.tracked[key] = (1, self._stamp())
        return victims


class _RecordingObserver:
    """A d-cache observer that keeps every eviction batch it is handed."""

    def __init__(self) -> None:
        self.calls = []

    def on_evictions(self, dcache, victims) -> None:
        self.calls.append((dcache, [d.object_id for d in victims]))


_OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "get", "remove"]), st.integers(0, 7)),
    max_size=120,
)


class TestVictimRule:
    """The O(1) victim pop picks exactly the rule's victim, every time."""

    @pytest.mark.parametrize("policy", ["lfu", "lru"])
    @given(capacity=st.integers(0, 5), ops=_OPS)
    @settings(max_examples=200, deadline=None)
    def test_evictions_follow_the_rule(self, policy, capacity, ops):
        dcache = DescriptorCache(capacity, policy=policy)
        model = _VictimModel(capacity, policy)
        for op, key in ops:
            if op == "insert":
                evicted = dcache.insert(desc(key))
                assert [d.object_id for d in evicted] == model.insert(key)
            elif op == "get":
                found = dcache.get(key)
                assert (found is not None) == (key in model.tracked)
                model.get(key)
            else:
                removed = dcache.remove(key)
                assert (removed is not None) == (key in model.tracked)
                model.remove(key)
            dcache.check_invariants()
            assert sorted(dcache.eviction_order()) == sorted(model.tracked)

    @pytest.mark.parametrize("policy", ["lfu", "lru"])
    @given(capacity=st.integers(0, 5), ops=_OPS)
    @settings(max_examples=200, deadline=None)
    def test_observer_receives_each_swapped_victim(self, policy, capacity, ops):
        """A full d-cache swaps out exactly the rule's victim, observed."""
        dcache = DescriptorCache(capacity, policy=policy)
        observer = _RecordingObserver()
        dcache.observer = observer
        model = _VictimModel(capacity, policy)
        for op, key in ops:
            if op == "insert":
                descriptor = desc(key)
                seen = len(observer.calls)
                evicted = dcache.insert(descriptor)
                expected = model.insert(key)
                calls = observer.calls[seen:]
                if capacity == 0:
                    # Refused outright: the new descriptor comes back
                    # and nothing is observed.
                    assert evicted == [descriptor]
                    assert calls == []
                elif expected:
                    assert [d.object_id for d in evicted] == expected
                    assert calls == [(dcache, expected)]
                else:
                    assert evicted == []
                    assert calls == []
            elif op == "get":
                dcache.get(key)
                model.get(key)
            else:
                dcache.remove(key)
                model.remove(key)
            dcache.check_invariants()
            assert len(dcache) <= capacity

    @pytest.mark.parametrize("policy", ["lfu", "lru"])
    def test_zero_capacity_admits_nothing(self, policy):
        dcache = DescriptorCache(0, policy=policy)
        observer = _RecordingObserver()
        dcache.observer = observer
        for key in range(3):
            descriptor = desc(key)
            assert dcache.insert(descriptor) == [descriptor]
            assert key not in dcache
            dcache.check_invariants()
        assert len(dcache) == 0
        assert observer.calls == []

    def test_invariants_catch_a_stale_min_count(self):
        dcache = DescriptorCache(3)
        dcache.insert(desc(1))
        dcache.get(1)  # the only bucket is now count 2
        dcache._order._min_count = 1
        with pytest.raises(AssertionError, match="min count"):
            dcache.check_invariants()

    def test_invariants_catch_an_empty_bucket(self):
        dcache = DescriptorCache(3)
        dcache.insert(desc(1))
        dcache._order._buckets[4] = {}
        with pytest.raises(AssertionError, match="empty frequency bucket"):
            dcache.check_invariants()
