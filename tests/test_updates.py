"""Tests for the coherency extension (update events + invalidation)."""

from __future__ import annotations

import pytest

from repro.core.coordinated import CoordinatedScheme
from repro.costs.model import LatencyCostModel
from repro.schemes.lru_everywhere import LRUEverywhereScheme
from repro.sim.architecture import build_hierarchical_architecture
from repro.sim.engine import SimulationEngine
from repro.topology.builder import build_chain
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.updates import UpdateEvent, generate_update_events


class TestUpdateEvents:
    def test_validation(self):
        with pytest.raises(ValueError):
            UpdateEvent(-1.0, 0)
        with pytest.raises(ValueError):
            UpdateEvent(0.0, -1)
        with pytest.raises(ValueError):
            generate_update_events(0, 10.0, 1.0)
        with pytest.raises(ValueError):
            generate_update_events(10, -1.0, 1.0)
        with pytest.raises(ValueError):
            generate_update_events(10, 10.0, -1.0)

    def test_zero_rate_empty(self):
        assert generate_update_events(10, 100.0, 0.0) == []
        assert generate_update_events(10, 0.0, 5.0) == []

    def test_events_time_ordered_and_in_range(self):
        events = generate_update_events(
            50, duration=100.0, update_rate=2.0, seed=3
        )
        assert events
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0 <= e.time <= 100.0 for e in events)
        assert all(0 <= e.object_id < 50 for e in events)

    def test_deterministic_by_seed(self):
        a = generate_update_events(50, 100.0, 2.0, seed=4)
        b = generate_update_events(50, 100.0, 2.0, seed=4)
        assert a == b

    def test_rate_roughly_respected(self):
        events = generate_update_events(100, 1000.0, 3.0, seed=0)
        assert 2500 < len(events) < 3500


class TestInvalidation:
    def test_lru_scheme_invalidation(self):
        network = build_chain([1.0] * 3)
        cost = LatencyCostModel(network, 100.0)
        scheme = LRUEverywhereScheme(cost, capacity_bytes=1000)
        path = [0, 1, 2, 3]
        scheme.process_request(path, 7, 100, now=0.0)
        assert scheme.has_object(0, 7) and scheme.has_object(2, 7)
        removed = scheme.invalidate_object(7)
        assert removed == 3
        assert not any(scheme.has_object(n, 7) for n in range(3))
        assert scheme.invalidate_object(7) == 0

    def test_coordinated_invalidation_keeps_statistics(self):
        network = build_chain([1.0] * 3)
        cost = LatencyCostModel(network, 100.0)
        scheme = CoordinatedScheme(cost, capacity_bytes=1000, dcache_entries=8)
        path = [0, 1, 2, 3]
        for t in range(5):
            scheme.process_request(path, 7, 100, now=float(t * 10))
        cached = [n for n in range(3) if scheme.has_object(n, 7)]
        assert cached
        removed = scheme.invalidate_object(7)
        assert removed == len(cached)
        # Descriptors (with history) survived in the d-caches.
        for node in cached:
            descriptor = scheme.node_state(node).dcache.peek(7)
            assert descriptor is not None
            assert descriptor.reference_count > 1
        scheme.check_invariants()


class TestEngineWithUpdates:
    def _run(self, update_rate):
        workload = WorkloadConfig(
            num_objects=80,
            num_servers=4,
            num_clients=10,
            num_requests=3_000,
            seed=6,
        )
        generator = BoeingLikeTraceGenerator(workload)
        trace = generator.generate()
        arch = build_hierarchical_architecture(
            workload.num_clients, workload.num_servers, seed=0
        )
        cost = LatencyCostModel(arch.network, generator.catalog.mean_size)
        scheme = LRUEverywhereScheme(cost, capacity_bytes=100_000)
        updates = generate_update_events(
            workload.num_objects, trace.duration, update_rate, seed=1
        )
        engine = SimulationEngine(arch, cost, scheme)
        return engine.run(trace, updates=updates)

    def test_no_updates_reports_zero(self):
        result = self._run(update_rate=0.0)
        assert result.updates_applied == 0
        assert result.copies_invalidated == 0

    def test_updates_applied_and_hurt_hit_ratio(self):
        quiet = self._run(update_rate=0.0)
        churned = self._run(update_rate=5.0)
        assert churned.updates_applied > 0
        assert churned.copies_invalidated > 0
        assert churned.summary.byte_hit_ratio < quiet.summary.byte_hit_ratio
