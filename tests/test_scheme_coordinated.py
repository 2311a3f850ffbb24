"""Tests for the coordinated caching scheme (paper sections 2.3-2.4)."""

from __future__ import annotations

import pytest

from repro.core.coordinated import CoordinatedScheme
from repro.core.piggyback import node_report
from repro.costs.model import LatencyCostModel
from repro.topology.builder import build_chain


@pytest.fixture
def chain5():
    return build_chain([1.0] * 5)


@pytest.fixture
def costs(chain5):
    return LatencyCostModel(chain5, avg_size=100.0)


@pytest.fixture
def scheme(costs):
    return CoordinatedScheme(costs, capacity_bytes=1000, dcache_entries=16)


PATH = [0, 1, 2, 3, 4, 5]


class TestFirstContact:
    def test_first_request_caches_nowhere(self, scheme):
        """No node has a descriptor yet, so the DP candidate set is empty."""
        outcome = scheme.process_request(PATH, 7, 100, now=0.0)
        assert outcome.hit_index == 5
        assert outcome.inserted_nodes == ()
        for node in range(5):
            assert not scheme.has_object(node, 7)

    def test_first_request_seeds_dcache_descriptors(self, scheme):
        scheme.process_request(PATH, 7, 100, now=0.0)
        for node in range(5):
            descriptor = scheme.node_state(node).dcache.peek(7)
            assert descriptor is not None
            # Miss penalty = accumulated cost from the origin (size 100 =
            # avg size, so 1.0 per hop): node 4 is 1 hop below the origin.
            assert descriptor.miss_penalty == pytest.approx(5 - node)

    def test_repeated_requests_eventually_cache(self, scheme):
        for t in range(4):
            scheme.process_request(PATH, 7, 100, now=float(t * 10))
        assert any(scheme.has_object(node, 7) for node in range(5))

    def test_cached_copy_serves_later_requests(self, scheme):
        for t in range(5):
            outcome = scheme.process_request(PATH, 7, 100, now=float(t * 10))
        assert outcome.served_by_cache


class TestPlacementDecision:
    """``decide_step`` at the origin on a hand-built request message
    (the report list, in travel order)."""

    def _decide(self, scheme, reports):
        return scheme.decide_step(PATH, len(PATH) - 1, reports, 1, 100, 0.0)

    def test_empty_candidates_yield_no_placement(self, scheme):
        decision = self._decide(
            scheme,
            [node_report(0, 0.0, 0.0, None, has_descriptor=False)],
        )
        assert decision["cache_at"] == []
        assert decision["gain"] == 0.0

    def test_single_beneficial_candidate_selected(self, scheme):
        decision = self._decide(
            scheme,
            [node_report(0, frequency=2.0, miss_penalty=3.0, cost_loss=1.0,
                         has_descriptor=True)],
        )
        assert decision["cache_at"] == [0]
        assert decision["gain"] == pytest.approx(5.0)

    def test_harmful_candidate_rejected(self, scheme):
        decision = self._decide(
            scheme,
            [node_report(0, frequency=1.0, miss_penalty=1.0, cost_loss=10.0,
                         has_descriptor=True)],
        )
        assert decision["cache_at"] == []

    def test_nodes_without_descriptor_pruned(self, scheme):
        # Reports travel client -> server; node 9 lacks a descriptor.
        decision = self._decide(
            scheme,
            [
                node_report(9, 0.0, 0.0, None, has_descriptor=False),
                node_report(3, frequency=2.0, miss_penalty=3.0, cost_loss=0.0,
                            has_descriptor=True),
            ],
        )
        assert decision["cache_at"] == [3]

    def test_uncacheable_node_pruned(self, scheme):
        decision = self._decide(
            scheme,
            [node_report(0, frequency=5.0, miss_penalty=5.0, cost_loss=None,
                         has_descriptor=True)],
        )
        assert decision["cache_at"] == []

    def test_noisy_frequencies_are_repaired(self, scheme):
        # Downstream frequency larger than upstream: must not raise.
        decision = self._decide(
            scheme,
            [
                node_report(0, frequency=9.0, miss_penalty=2.0, cost_loss=0.0,
                            has_descriptor=True),
                node_report(1, frequency=1.0, miss_penalty=1.0, cost_loss=0.0,
                            has_descriptor=True),
            ],
        )
        assert 0 in decision["cache_at"]


class TestMissPenaltyProtocol:
    def test_accumulator_resets_at_caching_node(self, scheme, costs):
        """After a copy is placed, downstream penalties measure from it."""
        # Warm up until the object is cached somewhere.
        for t in range(6):
            scheme.process_request(PATH, 7, 100, now=float(t * 10))
        cached_nodes = [n for n in range(5) if scheme.has_object(n, 7)]
        assert cached_nodes
        highest = max(cached_nodes)
        # Below the cached node, d-cache descriptors measure from it.
        state = scheme.node_state(highest)
        entry = state.cache.entry(7)
        # Its own penalty measures to the next copy above (or origin).
        upstream = [n for n in cached_nodes if n > highest]
        assert entry.descriptor.miss_penalty <= 5 - highest + 1e-9

    def test_descriptor_penalty_updated_on_pass_through(self, scheme):
        scheme.process_request(PATH, 7, 100, now=0.0)
        first = {
            n: scheme.node_state(n).dcache.peek(7).miss_penalty
            for n in range(5)
        }
        # Penalties decrease with proximity to the origin.
        assert first[4] < first[0]


class TestEndToEnd:
    def test_popular_object_cached_closer_than_unpopular(self, costs):
        scheme = CoordinatedScheme(costs, capacity_bytes=150, dcache_entries=32)
        # Popular object 1 requested often; objects 2..9 once each.
        t = 0.0
        for round_ in range(6):
            scheme.process_request(PATH, 1, 100, now=t)
            t += 5.0
            scheme.process_request(PATH, 2 + round_, 100, now=t)
            t += 5.0
        # The popular object must be cached somewhere; with capacity for
        # only one object per node, it should win the space.
        assert any(scheme.has_object(n, 1) for n in range(5))

    def test_no_cache_thrash_on_alternating_unpopular(self, costs):
        """One-off objects never displace an established popular object."""
        scheme = CoordinatedScheme(costs, capacity_bytes=100, dcache_entries=64)
        t = 0.0
        for _ in range(8):
            scheme.process_request(PATH, 1, 100, now=t)
            t += 1.0
        popular_nodes = {n for n in range(5) if scheme.has_object(n, 1)}
        assert popular_nodes
        for oid in range(100, 110):
            scheme.process_request(PATH, oid, 100, now=t)
            t += 1.0
        still = {n for n in popular_nodes if scheme.has_object(n, 1)}
        assert still  # the popular object survived the one-off parade

    def test_invariants_after_trace_replay(self, costs, tiny_trace):
        trace, _ = tiny_trace
        scheme = CoordinatedScheme(costs, capacity_bytes=5000, dcache_entries=30)
        for record in trace.records[:800]:
            scheme.process_request(PATH, record.object_id, record.size, record.time)
        scheme.check_invariants()

    def test_outcome_accounting_consistency(self, scheme):
        for t in range(10):
            outcome = scheme.process_request(PATH, t % 3, 100, now=float(t))
            assert outcome.bytes_written == 100 * len(outcome.inserted_nodes)
            assert 0 <= outcome.hit_index <= 5
