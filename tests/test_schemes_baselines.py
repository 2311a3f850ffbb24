"""Tests for the LRU, MODULO and LNC-R baseline schemes (paper section 3.3)."""

from __future__ import annotations

import pytest

from repro.costs.model import LatencyCostModel
from repro.schemes.lncr import LNCRScheme
from repro.schemes.lru_everywhere import LRUEverywhereScheme
from repro.schemes.modulo import ModuloScheme
from repro.topology.builder import build_chain


@pytest.fixture
def chain5():
    """Chain 0-1-2-3-4-5; node 5 is the origin attachment."""
    return build_chain([1.0] * 5)


@pytest.fixture
def costs(chain5):
    return LatencyCostModel(chain5, avg_size=100.0)


PATH = [0, 1, 2, 3, 4, 5]


class TestLRUEverywhere:
    def test_first_request_misses_and_caches_everywhere(self, costs):
        scheme = LRUEverywhereScheme(costs, capacity_bytes=1000)
        outcome = scheme.process_request(PATH, object_id=7, size=100, now=0.0)
        assert outcome.hit_index == 5
        assert not outcome.served_by_cache
        assert outcome.inserted_nodes == (4, 3, 2, 1, 0)
        assert outcome.bytes_written == 500
        assert outcome.bytes_read == 0
        for node in range(5):
            assert scheme.has_object(node, 7)

    def test_second_request_hits_first_cache(self, costs):
        scheme = LRUEverywhereScheme(costs, capacity_bytes=1000)
        scheme.process_request(PATH, 7, 100, now=0.0)
        outcome = scheme.process_request(PATH, 7, 100, now=1.0)
        assert outcome.hit_index == 0
        assert outcome.served_by_cache
        assert outcome.hops == 0
        assert outcome.bytes_read == 100
        assert outcome.inserted_nodes == ()

    def test_partial_path_hit_fills_below_only(self, costs):
        scheme = LRUEverywhereScheme(costs, capacity_bytes=1000)
        # Request from node 3's position (sub-path) first.
        scheme.process_request([3, 4, 5], 7, 100, now=0.0)
        outcome = scheme.process_request(PATH, 7, 100, now=1.0)
        assert outcome.hit_index == 3
        assert outcome.inserted_nodes == (2, 1, 0)

    def test_oversized_object_not_cached_but_served(self, costs):
        scheme = LRUEverywhereScheme(costs, capacity_bytes=50)
        outcome = scheme.process_request(PATH, 7, size=100, now=0.0)
        assert outcome.hit_index == 5
        assert outcome.inserted_nodes == ()
        assert not scheme.has_object(0, 7)

    def test_eviction_counted(self, costs):
        scheme = LRUEverywhereScheme(costs, capacity_bytes=100)
        scheme.process_request(PATH, 1, 100, now=0.0)
        outcome = scheme.process_request(PATH, 2, 100, now=1.0)
        assert outcome.evicted_objects == 5  # one eviction per node

    def test_trivial_path_client_at_server(self, costs):
        outcome = LRUEverywhereScheme(costs, 100).process_request(
            [5], 7, 100, now=0.0
        )
        assert outcome.hit_index == 0
        assert outcome.hops == 0
        assert not outcome.served_by_cache


class TestModulo:
    def test_radius_one_equals_lru_placement(self, costs):
        scheme = ModuloScheme(costs, 1000, radius=1)
        outcome = scheme.process_request(PATH, 7, 100, now=0.0)
        assert outcome.inserted_nodes == (4, 3, 2, 1, 0)

    def test_radius_anchored_at_server(self, costs):
        # Path has 5 hops; with radius 2 the nodes 2 and 4 hops from the
        # server attachment store copies (path indices 3 and 1).
        scheme = ModuloScheme(costs, 1000, radius=2)
        outcome = scheme.process_request(PATH, 7, 100, now=0.0)
        assert set(outcome.inserted_nodes) == {1, 3}

    def test_radius_larger_than_path_caches_nothing_or_little(self, costs):
        scheme = ModuloScheme(costs, 1000, radius=7)
        outcome = scheme.process_request(PATH, 7, 100, now=0.0)
        assert outcome.inserted_nodes == ()

    def test_placement_restricted_below_hit(self, costs):
        scheme = ModuloScheme(costs, 1000, radius=2)
        scheme.process_request(PATH, 7, 100, now=0.0)  # cached at 1 and 3
        outcome = scheme.process_request(PATH, 7, 100, now=1.0)
        assert outcome.hit_index == 1
        assert outcome.inserted_nodes == ()  # no eligible node below 1

    def test_hierarchical_blind_spot(self, costs):
        """Radius 4 on a 4-hop path uses only the node 4 hops from origin."""
        path = [0, 1, 2, 3, 4]  # 4 hops: node 4 = server attachment
        scheme = ModuloScheme(costs, 1000, radius=4)
        outcome = scheme.process_request(path, 7, 100, now=0.0)
        assert outcome.inserted_nodes == (0,)

    def test_rejects_bad_radius(self, costs):
        with pytest.raises(ValueError):
            ModuloScheme(costs, 1000, radius=0)

    def test_name_includes_radius(self, costs):
        assert ModuloScheme(costs, 10, radius=3).name == "modulo(r=3)"


class TestLNCR:
    def test_caches_everywhere_below_hit(self, costs):
        scheme = LNCRScheme(costs, 1000, dcache_entries=10)
        outcome = scheme.process_request(PATH, 7, 100, now=0.0)
        assert outcome.inserted_nodes == (4, 3, 2, 1, 0)

    def test_miss_penalty_is_immediate_upstream_link(self, costs):
        scheme = LNCRScheme(costs, 1000, dcache_entries=10)
        scheme.process_request(PATH, 7, size=200, now=0.0)
        # Each link has delay 1.0 at avg size 100 -> cost 2.0 for size 200.
        for node in range(5):
            entry = scheme.cache_at(node).entry(7)
            assert entry.descriptor.miss_penalty == pytest.approx(2.0)

    def test_evicts_least_ncl_not_lru(self, costs):
        scheme = LNCRScheme(costs, capacity_bytes=200, dcache_entries=10)
        path = [0, 1]
        # Object 1: requested twice (higher f); object 2 once.
        scheme.process_request(path, 1, 100, now=0.0)
        scheme.process_request(path, 1, 100, now=10.0)
        scheme.process_request(path, 2, 100, now=20.0)
        # Cache full (1, 2); new object 3 should evict object 2 (lower f)
        # even though object 1 is the LRU one... object 1 was accessed at
        # t=10 vs object 2 inserted t=20 -> LRU would evict 1.
        scheme.process_request(path, 3, 100, now=21.0)
        cache = scheme.cache_at(0)
        assert 1 in cache
        assert 2 not in cache

    def test_evicted_descriptor_moves_to_dcache(self, costs):
        scheme = LNCRScheme(costs, capacity_bytes=100, dcache_entries=10)
        path = [0, 1]
        scheme.process_request(path, 1, 100, now=0.0)
        scheme.process_request(path, 2, 100, now=1.0)  # evicts object 1
        state = scheme.node_state(0)
        assert 1 not in state.cache
        assert 1 in state.dcache

    def test_dcache_history_survives_reinsertion(self, costs):
        scheme = LNCRScheme(costs, capacity_bytes=100, dcache_entries=10)
        path = [0, 1]
        scheme.process_request(path, 1, 100, now=0.0)
        scheme.process_request(path, 2, 100, now=1.0)
        scheme.process_request(path, 1, 100, now=2.0)
        descriptor = scheme.cache_at(0).entry(1).descriptor
        # Two references recorded for object 1 (t=0 and t=2).
        assert descriptor.estimator.reference_count == 2

    def test_invariants_after_churn(self, costs, tiny_trace):
        trace, _ = tiny_trace
        scheme = LNCRScheme(costs, capacity_bytes=5000, dcache_entries=20)
        for record in trace.records[:500]:
            scheme.process_request(
                PATH, record.object_id, record.size, record.time
            )
        scheme.check_invariants()
