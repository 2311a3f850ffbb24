"""Tests for the static scheme and the greedy oracle planner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.static_plan import greedy_static_plan, node_demand_rates
from repro.costs.model import LatencyCostModel
from repro.schemes.static import StaticPlacementScheme
from repro.sim.architecture import build_hierarchical_architecture
from repro.sim.engine import SimulationEngine
from repro.topology.builder import build_chain
from repro.workload.catalog import ObjectCatalog
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.zipf import ZipfSampler


@pytest.fixture
def chain_costs_small():
    network = build_chain([1.0, 1.0])
    return LatencyCostModel(network, avg_size=100.0)


class TestStaticScheme:
    def test_preloaded_objects_serve_hits(self, chain_costs_small):
        catalog = ObjectCatalog(np.array([100, 100]), np.array([0, 0]))
        scheme = StaticPlacementScheme(
            chain_costs_small,
            capacity_bytes=500,
            placements={0: [1]},
            catalog=catalog,
        )
        hit = scheme.process_request([0, 1, 2], 1, 100, now=0.0)
        assert hit.hit_index == 0
        miss = scheme.process_request([0, 1, 2], 0, 100, now=1.0)
        assert miss.hit_index == 2
        assert miss.inserted_nodes == ()  # static: never inserts

    def test_capacity_enforced(self, chain_costs_small):
        catalog = ObjectCatalog(np.array([400, 400]), np.array([0, 0]))
        with pytest.raises(ValueError, match="overflows"):
            StaticPlacementScheme(
                chain_costs_small,
                capacity_bytes=500,
                placements={0: [0, 1]},
                catalog=catalog,
            )

    def test_contents_never_change(self, chain_costs_small):
        catalog = ObjectCatalog(np.array([100, 100]), np.array([0, 0]))
        scheme = StaticPlacementScheme(
            chain_costs_small, 500, placements={0: [0]}, catalog=catalog
        )
        for t in range(20):
            scheme.process_request([0, 1, 2], 1, 100, now=float(t))
        assert scheme.has_object(0, 0)
        assert not scheme.has_object(0, 1)

    def test_steps_by_hand_never_insert(self, chain_costs_small):
        """The steps say what the scheme means: a served static scheme
        (``lookup_step`` / ``decide_step`` / ``deliver_step`` per node,
        as ``repro.serve`` drives them) changes no cache."""
        catalog = ObjectCatalog(np.array([100, 100]), np.array([0, 0]))
        scheme = StaticPlacementScheme(
            chain_costs_small, 500, placements={1: [0]}, catalog=catalog
        )
        path = [0, 1, 2]

        def contents():
            return {
                node: (sorted(cache.object_ids()), cache.used_bytes)
                for node, cache in scheme.caches().items()
            }

        for node in path[:-1]:
            scheme.cache_at(node)  # caches are created on first touch
        before = contents()
        for object_id, expected_hit in ((0, 1), (1, 2)):
            hit_index = len(path) - 1
            for i, node in enumerate(path[:-1]):
                hit, report = scheme.lookup_step(node, object_id, 100, 0.0)
                assert report is None
                if hit:
                    hit_index = i
                    break
            assert hit_index == expected_hit
            decision = scheme.decide_step(
                path, hit_index, [], object_id, 100, 0.0
            )
            assert decision["cache_at"] == []
            for index in range(hit_index - 1, -1, -1):
                assert scheme.deliver_step(
                    index, path, decision, object_id, 100, 0.0
                ) == (False, 0)
            assert contents() == before


class TestNodeDemandRates:
    def test_splits_rate_over_attachments(self):
        arch = build_hierarchical_architecture(num_clients=10, num_servers=1, seed=0)
        rates = np.array([5.0, 1.0])
        demand = node_demand_rates(arch, rates, total_clients=10)
        total = np.zeros(2)
        for node_rates in demand.values():
            total += node_rates
        assert total == pytest.approx(rates)

    def test_validation(self):
        arch = build_hierarchical_architecture(num_clients=2, num_servers=1, seed=0)
        with pytest.raises(ValueError):
            node_demand_rates(arch, [1.0], total_clients=0)


@pytest.fixture(scope="module", name="setup")
def _plan_setup():
    workload = WorkloadConfig(
        num_objects=120,
        num_servers=3,
        num_clients=20,
        num_requests=15_000,
        zipf_theta=0.9,
        seed=8,
    )
    generator = BoeingLikeTraceGenerator(workload)
    trace = generator.generate()
    arch = build_hierarchical_architecture(
        workload.num_clients, workload.num_servers, seed=2
    )
    # True per-object rates from the generator's construction.
    sampler = ZipfSampler(workload.num_objects, workload.zipf_theta)
    rng = np.random.default_rng(workload.seed + 1)
    rank_to_object = rng.permutation(workload.num_objects)
    rates = np.zeros(workload.num_objects)
    for rank in range(workload.num_objects):
        rates[rank_to_object[rank]] = (
            sampler.probability(rank) * workload.request_rate
        )
    return workload, generator, trace, arch, rates


class TestGreedyStaticPlan:
    def test_plan_respects_capacity(self, setup):
        _, generator, _, arch, rates = setup
        catalog = generator.catalog
        capacity = int(0.05 * catalog.total_bytes)
        plan = greedy_static_plan(arch, catalog, rates, capacity)
        for node, object_ids in plan.items():
            assert len(object_ids) == len(set(object_ids))
            used = sum(catalog.size(o) for o in object_ids)
            assert used <= capacity

    def test_plan_places_popular_objects(self, setup):
        _, generator, _, arch, rates = setup
        catalog = generator.catalog
        capacity = int(0.05 * catalog.total_bytes)
        plan = greedy_static_plan(arch, catalog, rates, capacity)
        placed = {o for object_ids in plan.values() for o in object_ids}
        assert placed
        top_by_traffic = set(
            np.argsort(-(rates * catalog.sizes))[:5].tolist()
        )
        cacheable_top = {
            o for o in top_by_traffic if catalog.size(o) <= capacity
        }
        assert cacheable_top & placed

    def test_oracle_beats_no_caching(self, setup):
        workload, generator, trace, arch, rates = setup
        catalog = generator.catalog
        capacity = int(0.05 * catalog.total_bytes)
        plan = greedy_static_plan(arch, catalog, rates, capacity)
        cost = LatencyCostModel(arch.network, catalog.mean_size)
        oracle = StaticPlacementScheme(
            cost, capacity, placements=plan, catalog=catalog
        )
        result = SimulationEngine(arch, cost, oracle).run(trace)
        assert result.summary.byte_hit_ratio > 0.2

    def test_rejects_multi_tree_architecture(self, setup):
        from repro.sim.architecture import build_enroute_architecture

        _, generator, _, _, rates = setup
        arch = build_enroute_architecture(num_clients=10, num_servers=10, seed=0)
        with pytest.raises(ValueError, match="single-tree"):
            greedy_static_plan(arch, generator.catalog, rates, 1000)

    def test_rejects_wrong_rate_length(self, setup):
        _, generator, _, arch, _ = setup
        with pytest.raises(ValueError, match="catalog"):
            greedy_static_plan(arch, generator.catalog, [1.0], 1000)


class TestMultiTreePlan:
    def test_enroute_plan_respects_capacity_and_roots(self, setup):
        from repro.analysis.static_plan import greedy_static_plan_multi_tree
        from repro.sim.architecture import build_enroute_architecture

        workload, generator, _, _, rates = setup
        catalog = generator.catalog
        arch = build_enroute_architecture(
            num_clients=workload.num_clients,
            num_servers=workload.num_servers,
            seed=3,
        )
        capacity = int(0.05 * catalog.total_bytes)
        plan = greedy_static_plan_multi_tree(arch, catalog, rates, capacity)
        assert plan
        for node, object_ids in plan.items():
            used = sum(catalog.size(o) for o in object_ids)
            assert used <= capacity
            # An object never lands on its own origin node.
            for o in object_ids:
                assert arch.server_nodes[catalog.server(o)] != node

    def test_enroute_oracle_beats_no_caching(self, setup):
        from repro.analysis.static_plan import greedy_static_plan_multi_tree
        from repro.sim.architecture import build_enroute_architecture

        workload, generator, trace, _, rates = setup
        catalog = generator.catalog
        arch = build_enroute_architecture(
            num_clients=workload.num_clients,
            num_servers=workload.num_servers,
            seed=3,
        )
        capacity = int(0.05 * catalog.total_bytes)
        plan = greedy_static_plan_multi_tree(arch, catalog, rates, capacity)
        cost = LatencyCostModel(arch.network, catalog.mean_size)
        oracle = StaticPlacementScheme(
            cost, capacity, placements=plan, catalog=catalog
        )
        result = SimulationEngine(arch, cost, oracle).run(trace)
        assert result.summary.byte_hit_ratio > 0.15

    def test_single_tree_matches_dedicated_function(self, setup):
        from repro.analysis.static_plan import greedy_static_plan_multi_tree

        _, generator, _, arch, rates = setup
        catalog = generator.catalog
        capacity = int(0.05 * catalog.total_bytes)
        a = greedy_static_plan(arch, catalog, rates, capacity)
        b = greedy_static_plan_multi_tree(arch, catalog, rates, capacity)
        assert a == b
