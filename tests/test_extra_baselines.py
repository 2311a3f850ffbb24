"""Tests for the extended baseline family (GDS, LFU, admission LRU)."""

from __future__ import annotations

import pytest

from repro.cache.descriptors import ObjectDescriptor
from repro.cache.gds import GDSCache
from repro.costs.model import LatencyCostModel
from repro.schemes.extra_baselines import (
    AdmissionLRUScheme,
    GDSScheme,
    LFUEverywhereScheme,
)
from repro.topology.builder import build_chain

PATH = [0, 1, 2, 3, 4, 5]


@pytest.fixture
def costs():
    return LatencyCostModel(build_chain([1.0] * 5), avg_size=100.0)


def gds_desc(object_id, size, cost, now):
    d = ObjectDescriptor(object_id, size, miss_penalty=cost)
    d.record_access(now)
    return d


class TestGDSCache:
    def test_evicts_lowest_priority(self):
        cache = GDSCache(100, popularity_aware=False)
        cache.insert(gds_desc(1, 50, cost=0.1, now=0.0), now=0.0)
        cache.insert(gds_desc(2, 50, cost=10.0, now=0.0), now=0.0)
        cache.insert(gds_desc(3, 50, cost=1.0, now=1.0), now=1.0)
        assert 1 not in cache
        assert 2 in cache

    def test_inflation_rises_on_eviction(self):
        cache = GDSCache(100, popularity_aware=False)
        cache.insert(gds_desc(1, 100, cost=5.0, now=0.0), now=0.0)
        assert cache.inflation == 0.0
        cache.insert(gds_desc(2, 100, cost=5.0, now=1.0), now=1.0)
        assert cache.inflation == pytest.approx(5.0 / 100)

    def test_inflation_enables_aging_out_of_stale_high_cost(self):
        """A once-valuable object loses to fresh ones after inflation."""
        cache = GDSCache(100, popularity_aware=False)
        cache.insert(gds_desc(1, 50, cost=3.0, now=0.0), now=0.0)   # H=0.06
        cache.insert(gds_desc(2, 50, cost=1.0, now=0.0), now=0.0)   # H=0.02
        cache.insert(gds_desc(3, 50, cost=1.0, now=1.0), now=1.0)   # evicts 2, L=0.02
        cache.insert(gds_desc(4, 50, cost=1.0, now=2.0), now=2.0)   # evicts 3 (H=0.04 < 0.06)
        assert 1 in cache
        cache.insert(gds_desc(5, 50, cost=3.0, now=3.0), now=3.0)
        # L has risen to 0.04; the new object's H = 0.04+0.06 = 0.10 > 0.06,
        # so the stale object 1 is finally aged out.
        assert 1 not in cache
        assert 5 in cache

    def test_access_refreshes_priority(self):
        cache = GDSCache(100, popularity_aware=False)
        cache.insert(gds_desc(1, 50, cost=1.0, now=0.0), now=0.0)
        cache.insert(gds_desc(2, 50, cost=1.0, now=0.0), now=0.0)
        # Touch 1 after some evictions would have inflated... here simply
        # verify the access path reorders without error.
        cache.access(1, now=1.0)
        cache.check_invariants()

    def test_invariants_under_churn(self):
        cache = GDSCache(500, popularity_aware=True)
        for i in range(100):
            cache.insert(
                gds_desc(i, 20 + (i * 7) % 90, cost=float(1 + i % 5), now=float(i)),
                now=float(i),
            )
            if i % 3 == 0 and (i - 1) in cache:
                cache.access(i - 1, now=float(i))
            cache.check_invariants()


class TestGDSScheme:
    def test_caches_everywhere_and_serves(self, costs):
        scheme = GDSScheme(costs, capacity_bytes=1000)
        assert scheme.name == "gdsp"
        outcome = scheme.process_request(PATH, 7, 100, now=0.0)
        assert outcome.inserted_nodes == (4, 3, 2, 1, 0)
        second = scheme.process_request(PATH, 7, 100, now=1.0)
        assert second.hit_index == 0

    def test_plain_gds_name(self, costs):
        assert GDSScheme(costs, 100, popularity_aware=False).name == "gds"

    def test_oversized_objects_skipped(self, costs):
        scheme = GDSScheme(costs, capacity_bytes=50)
        outcome = scheme.process_request(PATH, 7, 100, now=0.0)
        assert outcome.inserted_nodes == ()


class TestLFUEverywhere:
    def test_protects_frequent_objects(self, costs):
        scheme = LFUEverywhereScheme(costs, capacity_bytes=200)
        for t in range(3):
            scheme.process_request(PATH, 1, 100, now=float(t))
        scheme.process_request(PATH, 2, 100, now=10.0)
        scheme.process_request(PATH, 3, 100, now=11.0)  # evicts 2, not 1
        assert scheme.has_object(0, 1)
        assert not scheme.has_object(0, 2)


class TestAdmissionLRU:
    def test_first_request_not_admitted(self, costs):
        scheme = AdmissionLRUScheme(costs, capacity_bytes=1000)
        outcome = scheme.process_request(PATH, 7, 100, now=0.0)
        assert outcome.inserted_nodes == ()

    def test_second_request_admitted(self, costs):
        scheme = AdmissionLRUScheme(costs, capacity_bytes=1000)
        scheme.process_request(PATH, 7, 100, now=0.0)
        outcome = scheme.process_request(PATH, 7, 100, now=1.0)
        assert outcome.inserted_nodes == (4, 3, 2, 1, 0)

    def test_history_is_bounded(self, costs):
        scheme = AdmissionLRUScheme(costs, capacity_bytes=1000, history_entries=2)
        path = [0, 1]
        scheme.process_request(path, 1, 10, now=0.0)
        scheme.process_request(path, 2, 10, now=1.0)
        scheme.process_request(path, 3, 10, now=2.0)  # pushes 1 out of history
        outcome = scheme.process_request(path, 1, 10, now=3.0)
        assert outcome.inserted_nodes == ()  # forgotten, treated as first hit

    def test_keeps_one_hit_wonders_out(self, costs):
        scheme = AdmissionLRUScheme(costs, capacity_bytes=200)
        # Popular object admitted...
        scheme.process_request(PATH, 1, 100, now=0.0)
        scheme.process_request(PATH, 1, 100, now=1.0)
        # ...then a parade of one-hit wonders cannot displace it.
        for oid in range(50, 60):
            scheme.process_request(PATH, oid, 100, now=float(oid))
        assert scheme.has_object(0, 1)

    def test_validation(self, costs):
        with pytest.raises(ValueError):
            AdmissionLRUScheme(costs, 100, history_entries=0)


class TestFactoryIntegration:
    def test_builds_extended_schemes(self, costs):
        from repro.sim.factory import build_scheme

        assert build_scheme("lfu", costs, 100, 0).name == "lfu"
        assert build_scheme("gds", costs, 100, 0).name == "gdsp"
        assert (
            build_scheme("gds", costs, 100, 0, popularity_aware=False).name
            == "gds"
        )
        scheme = build_scheme("admission-lru", costs, 100, 0, history_entries=7)
        assert scheme.history_entries == 7
