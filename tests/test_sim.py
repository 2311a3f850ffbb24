"""Tests for the simulation layer: architectures, config, factory, engine."""

from __future__ import annotations

import pytest

from repro.core.coordinated import CoordinatedScheme
from repro.costs.model import LatencyCostModel
from repro.schemes.adaptive import AdaptiveScheme
from repro.schemes.costaware import CostAwareScheme
from repro.schemes.extra_baselines import (
    AdmissionLRUScheme,
    GDSScheme,
    LFUEverywhereScheme,
)
from repro.schemes.lncr import LNCRScheme
from repro.schemes.lru_everywhere import LRUEverywhereScheme
from repro.schemes.modulo import ModuloScheme
from repro.sim.architecture import (
    build_enroute_architecture,
    build_hierarchical_architecture,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import SCHEME_NAMES, build_scheme
from repro.topology.graph import NodeKind
from repro.topology.tiers import TiersConfig
from repro.topology.tree import TreeConfig
from repro.workload.generator import BoeingLikeTraceGenerator
from repro.workload.trace import Trace


class TestEnrouteArchitecture:
    def test_attachment_to_man_nodes_only(self):
        arch = build_enroute_architecture(num_clients=30, num_servers=10, seed=0)
        man = set(arch.network.nodes_of_kind(NodeKind.MAN))
        assert set(arch.client_nodes.values()) <= man
        assert set(arch.server_nodes.values()) <= man

    def test_request_path_endpoints(self):
        arch = build_enroute_architecture(num_clients=5, num_servers=5, seed=1)
        path = arch.request_path(client_id=0, server_id=0)
        assert path[0] == arch.client_nodes[0]
        assert path[-1] == arch.server_nodes[0]

    def test_deterministic_by_seed(self):
        a = build_enroute_architecture(5, 5, seed=2)
        b = build_enroute_architecture(5, 5, seed=2)
        assert a.client_nodes == b.client_nodes
        assert a.server_nodes == b.server_nodes

    def test_mean_hops_close_to_paper(self):
        """Table 1 reports ~12 hops between origin servers and clients."""
        arch = build_enroute_architecture(
            num_clients=100, num_servers=50, seed=0,
            tiers_config=TiersConfig(seed=0),
        )
        hops = arch.mean_client_server_hops()
        assert 6 <= hops <= 18

    def test_validation(self):
        with pytest.raises(ValueError):
            build_enroute_architecture(0, 1)


class TestHierarchicalArchitecture:
    def test_clients_at_leaves_servers_at_server_node(self):
        arch = build_hierarchical_architecture(num_clients=20, num_servers=5)
        levels = {arch.network.level(n) for n in arch.client_nodes.values()}
        assert levels == {0}
        assert len(set(arch.server_nodes.values())) == 1

    def test_path_runs_leaf_to_server_through_root(self):
        arch = build_hierarchical_architecture(num_clients=2, num_servers=1)
        path = arch.request_path(0, 0)
        assert len(path) == 5  # leaf, l1, l2, root, server
        assert [arch.network.level(n) for n in path] == [0, 1, 2, 3, 4]

    def test_requires_server_node(self):
        with pytest.raises(ValueError):
            build_hierarchical_architecture(
                1, 1, tree_config=TreeConfig(include_server_node=False)
            )

    def test_cache_nodes_exclude_server_attachment(self):
        arch = build_hierarchical_architecture(num_clients=3, num_servers=2)
        server_node = next(iter(arch.server_nodes.values()))
        assert server_node not in arch.cache_nodes
        assert len(arch.cache_nodes) == arch.network.num_nodes - 1

    def test_enroute_every_node_hosts_a_cache(self):
        arch = build_enroute_architecture(num_clients=3, num_servers=2, seed=0)
        assert len(arch.cache_nodes) == arch.network.num_nodes


class TestSimulationConfig:
    def test_capacity_from_relative_size(self):
        config = SimulationConfig(relative_cache_size=0.01)
        assert config.capacity_bytes(1_000_000) == 10_000
        assert config.capacity_bytes(10) == 1  # floor of at least one byte

    def test_dcache_entries_rule(self):
        config = SimulationConfig(relative_cache_size=0.01, dcache_ratio=3.0)
        # capacity 10_000, mean size 1_000 -> 10 objects -> 30 descriptors.
        assert config.dcache_entries(1_000_000, 1_000.0) == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(relative_cache_size=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(dcache_ratio=-1)
        with pytest.raises(ValueError):
            SimulationConfig(warmup_fraction=1.0)
        with pytest.raises(ValueError):
            SimulationConfig().dcache_entries(100, 0.0)


class TestFactory:
    def test_registry_contents(self):
        assert {"lru", "modulo", "lnc-r", "coordinated"} <= set(SCHEME_NAMES)
        assert {"lfu", "gds", "admission-lru"} <= set(SCHEME_NAMES)
        assert {"adaptive", "costaware"} <= set(SCHEME_NAMES)

    def test_registry_rejects_duplicate_names(self):
        from repro.sim.factory import register_scheme

        with pytest.raises(ValueError, match="duplicate scheme registration"):
            register_scheme("coordinated", lambda *a, **k: None)

    def test_adaptive_step_size_parameter(self, chain_costs):
        scheme = build_scheme("adaptive", chain_costs, 1000, 10, step_size=0.25)
        assert scheme.step_size == 0.25
        with pytest.raises(ValueError, match="step_size"):
            build_scheme("adaptive", chain_costs, 1000, 10, step_size=0.0)

    def test_builds_each_scheme(self, chain4, chain_costs):
        for name in SCHEME_NAMES:
            scheme = build_scheme(name, chain_costs, 1000, 10)
            assert scheme.capacity_bytes == 1000

    # name -> (class, the parent registry's defaults), in registry order.
    _DESCRIPTOR_DEFAULTS = {
        "dcache_entries": 10,
        "dcache_policy": "lfu",
        "ncl_structure": "list",
    }
    REGISTRY_TABLE = {
        "lru": (LRUEverywhereScheme, {}),
        "modulo": (ModuloScheme, {"radius": 4}),
        "lnc-r": (LNCRScheme, _DESCRIPTOR_DEFAULTS),
        "coordinated": (CoordinatedScheme, _DESCRIPTOR_DEFAULTS),
        "adaptive": (AdaptiveScheme, {"step_size": 0.5, **_DESCRIPTOR_DEFAULTS}),
        "costaware": (CostAwareScheme, _DESCRIPTOR_DEFAULTS),
        "lfu": (LFUEverywhereScheme, {}),
        "gds": (GDSScheme, {"popularity_aware": True}),
        "admission-lru": (AdmissionLRUScheme, {"history_entries": 1024}),
    }

    def test_registered_defaults_and_overrides(self, chain_costs):
        assert SCHEME_NAMES == tuple(self.REGISTRY_TABLE)
        for name, (scheme_type, defaults) in self.REGISTRY_TABLE.items():
            # A keyword the scheme does not know is ignored, so one
            # parameter set can build any scheme.
            scheme = build_scheme(
                name, chain_costs, 1000, 10,
                capacity_overrides={2: 77}, not_a_parameter=1,
            )
            assert type(scheme) is scheme_type, name
            for attribute, value in defaults.items():
                assert getattr(scheme, attribute) == value, (name, attribute)
            assert scheme.capacity_for(2) == 77, name
            assert scheme.capacity_for(1) == 1000, name

    def test_modulo_radius_parameter(self, chain_costs):
        scheme = build_scheme("modulo", chain_costs, 1000, 10, radius=2)
        assert scheme.radius == 2

    def test_unknown_scheme_raises(self, chain_costs):
        with pytest.raises(ValueError, match="unknown scheme"):
            build_scheme("magic", chain_costs, 1000, 10)

    def test_unknown_scheme_error_lists_registry(self, chain_costs):
        """The error must tell the user what the valid names are."""
        with pytest.raises(ValueError) as excinfo:
            build_scheme("magic", chain_costs, 1000, 10)
        message = str(excinfo.value)
        for name in SCHEME_NAMES:
            assert name in message


class TestSimulationEngine:
    def _setup(self, tiny_workload):
        generator = BoeingLikeTraceGenerator(tiny_workload)
        trace = generator.generate()
        arch = build_hierarchical_architecture(
            num_clients=tiny_workload.num_clients,
            num_servers=tiny_workload.num_servers,
            seed=0,
        )
        catalog = generator.catalog
        cost = LatencyCostModel(arch.network, catalog.mean_size)
        return arch, trace, catalog, cost

    def test_run_produces_summary(self, tiny_workload):
        arch, trace, catalog, cost = self._setup(tiny_workload)
        scheme = LRUEverywhereScheme(cost, capacity_bytes=50_000)
        engine = SimulationEngine(arch, cost, scheme, warmup_fraction=0.5)
        result = engine.run(trace)
        assert result.requests_total == len(trace)
        assert result.requests_measured == len(trace) - len(trace) // 2
        assert result.summary.mean_latency > 0
        assert 0 <= result.summary.byte_hit_ratio <= 1

    def test_warmup_excluded_from_measurement(self, tiny_workload):
        arch, trace, catalog, cost = self._setup(tiny_workload)
        scheme = LRUEverywhereScheme(cost, capacity_bytes=50_000)
        engine = SimulationEngine(arch, cost, scheme, warmup_fraction=0.9)
        result = engine.run(trace)
        assert result.requests_measured == len(trace) - int(len(trace) * 0.9)

    def test_empty_trace_rejected(self, tiny_workload):
        arch, trace, catalog, cost = self._setup(tiny_workload)
        scheme = LRUEverywhereScheme(cost, capacity_bytes=1000)
        engine = SimulationEngine(arch, cost, scheme)
        with pytest.raises(ValueError):
            engine.run(Trace([]))

    def test_bad_warmup_fraction_rejected(self, tiny_workload):
        arch, trace, catalog, cost = self._setup(tiny_workload)
        scheme = LRUEverywhereScheme(cost, capacity_bytes=1000)
        with pytest.raises(ValueError):
            SimulationEngine(arch, cost, scheme, warmup_fraction=1.5)

    def test_zero_capacity_all_origin_hits(self, tiny_workload):
        arch, trace, catalog, cost = self._setup(tiny_workload)
        scheme = LRUEverywhereScheme(cost, capacity_bytes=0)
        engine = SimulationEngine(arch, cost, scheme, warmup_fraction=0.0)
        result = engine.run(trace)
        assert result.summary.byte_hit_ratio == 0.0
        assert result.summary.mean_hops == pytest.approx(4.0)

    def test_run_reports_timing_and_throughput(self, tiny_workload):
        arch, trace, catalog, cost = self._setup(tiny_workload)
        scheme = LRUEverywhereScheme(cost, capacity_bytes=50_000)
        engine = SimulationEngine(arch, cost, scheme)
        result = engine.run(trace)
        assert result.duration_seconds > 0
        assert result.requests_per_second == pytest.approx(
            result.requests_total / result.duration_seconds
        )

    def test_progress_callback_fires_every_n_requests(self, tiny_workload):
        arch, trace, catalog, cost = self._setup(tiny_workload)
        scheme = LRUEverywhereScheme(cost, capacity_bytes=50_000)
        engine = SimulationEngine(arch, cost, scheme)
        calls = []
        engine.run(
            trace,
            progress_every=100,
            progress_callback=lambda done, total: calls.append((done, total)),
        )
        total = len(trace)
        expected = [(i, total) for i in range(100, total + 1, 100)]
        if total % 100 != 0:
            expected.append((total, total))
        assert calls == expected

    def test_progress_callback_without_interval_is_an_error(self, tiny_workload):
        # A callback with progress_every == 0 used to be silently ignored;
        # it is a configuration mistake and must be loud.
        arch, trace, catalog, cost = self._setup(tiny_workload)
        scheme = LRUEverywhereScheme(cost, capacity_bytes=50_000)
        engine = SimulationEngine(arch, cost, scheme)
        with pytest.raises(ValueError, match="progress_every"):
            engine.run(trace, progress_callback=lambda d, t: None)
        with pytest.raises(ValueError):
            engine.run(trace, progress_every=-1)
