"""The simulator-vs-cluster differential oracle.

The serving layer's correctness gate: replaying a seeded trace through
an in-process cluster (closed loop, concurrency 1, trace order) must
reproduce the simulator's :class:`~repro.metrics.collector.
MetricsSummary` **bit-for-bit** -- every float equal, not approximately
equal -- for the coordinated scheme and the baselines.  Any divergence
means the live protocol (piggybacked reports, shipped decisions, the
downstream cost accumulator) no longer implements the paper's algorithm
the simulator implements.

This is the contract pinning the per-node step decomposition
(``lookup_step`` / ``decide_step`` / ``deliver_step`` /
``invalidate_step``) to ``process_request``; see
``repro/schemes/base.py``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.costs.model import LatencyCostModel
from repro.experiments.presets import build_architecture
from repro.obs.instruments import Instruments
from repro.obs.registry import StatRegistry
from repro.serve import Cluster, LoadGenerator, ShardPlan
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import build_scheme
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.updates import generate_update_events

WORKLOAD = WorkloadConfig(
    num_objects=100,
    num_servers=4,
    num_clients=12,
    num_requests=900,
    zipf_theta=0.8,
    seed=5,
)
CONFIG = SimulationConfig(relative_cache_size=0.01, dcache_ratio=3.0)


@pytest.fixture(scope="module")
def seeded_trace():
    generator = BoeingLikeTraceGenerator(WORKLOAD)
    return generator.generate(), generator.catalog


def simulate(arch, catalog, scheme_name, trace, updates=(), registry=None):
    """One engine run with the standard execute_point derivation."""
    cost_model = LatencyCostModel(arch.network, catalog.mean_size)
    capacity = CONFIG.capacity_bytes(catalog.total_bytes)
    dcache = CONFIG.dcache_entries(catalog.total_bytes, catalog.mean_size)
    scheme = build_scheme(scheme_name, cost_model, capacity, dcache)
    engine = SimulationEngine(
        arch, cost_model, scheme, warmup_fraction=CONFIG.warmup_fraction
    )
    instruments = Instruments(registry=registry) if registry is not None else None
    return engine.run(trace, updates=updates, instruments=instruments)


def serve_replay(arch, catalog, scheme_name, trace, updates=()):
    """The same trace through a live in-process cluster, trace order."""

    async def scenario():
        cluster = Cluster.build(arch, catalog, scheme_name, config=CONFIG)
        await cluster.start()
        loadgen = LoadGenerator(
            cluster,
            trace,
            updates=updates,
            warmup_fraction=CONFIG.warmup_fraction,
        )
        report = await loadgen.run(mode="sequential")
        merged = StatRegistry()
        for node_id, node in cluster.nodes.items():
            snap = node.registry.snapshot().get(node_id)
            if snap is not None:
                stats = merged.node(node_id)
                for field, value in snap.items():
                    setattr(stats, field, value)
        await cluster.stop()
        return report, merged

    return asyncio.run(scenario())


class TestBitForBitOracle:
    """ISSUE gate: exact MetricsSummary equality, coordinated + baselines."""

    @pytest.mark.parametrize("arch_name", ["hierarchical", "en-route"])
    def test_coordinated(self, seeded_trace, arch_name):
        trace, catalog = seeded_trace
        arch = build_architecture(arch_name, WORKLOAD, seed=2)
        sim = simulate(arch, catalog, "coordinated", trace)
        report, _ = serve_replay(arch, catalog, "coordinated", trace)
        assert report.summary == sim.summary

    @pytest.mark.parametrize("scheme_name", ["lru", "lnc-r", "gds"])
    def test_baselines(self, seeded_trace, scheme_name):
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        sim = simulate(arch, catalog, scheme_name, trace)
        report, _ = serve_replay(arch, catalog, scheme_name, trace)
        assert report.summary == sim.summary

    def test_measured_window_matches_engine(self, seeded_trace):
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        sim = simulate(arch, catalog, "coordinated", trace)
        report, _ = serve_replay(arch, catalog, "coordinated", trace)
        assert report.requests_total == sim.requests_total
        assert report.requests_measured == sim.requests_measured


class TestUpdateStreamEquivalence:
    """Push invalidation through the cluster == engine update handling."""

    def test_coordinated_with_updates(self, seeded_trace):
        trace, catalog = seeded_trace
        updates = generate_update_events(
            num_objects=WORKLOAD.num_objects,
            duration=trace[len(trace) - 1].time,
            update_rate=0.5,
            seed=9,
        )
        assert updates, "seed must yield a non-empty update stream"
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        sim = simulate(arch, catalog, "coordinated", trace, updates=updates)
        report, _ = serve_replay(
            arch, catalog, "coordinated", trace, updates=updates
        )
        assert report.summary == sim.summary
        assert report.updates_applied == sim.updates_applied
        assert report.copies_invalidated == sim.copies_invalidated


class TestNodeRegistryEquivalence:
    """Per-node live counters must equal the instrumented engine's."""

    @pytest.mark.parametrize("scheme_name", ["coordinated", "lru"])
    def test_registry_snapshots_match(self, seeded_trace, scheme_name):
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        registry = StatRegistry()
        simulate(arch, catalog, scheme_name, trace, registry=registry)
        _, merged = serve_replay(arch, catalog, scheme_name, trace)
        assert merged.snapshot() == registry.snapshot()


class TestClusterLifecycle:
    def test_snapshot_and_drain(self, seeded_trace):
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)

        async def scenario():
            cluster = Cluster.build(arch, catalog, "lru", config=CONFIG)
            await cluster.start()
            loadgen = LoadGenerator(cluster, trace)
            await loadgen.run(mode="sequential")
            assert await cluster.drain()
            snap = await cluster.stop()
            return snap

        snap = asyncio.run(scenario())
        assert snap["scheme"] == "lru"
        assert snap["architecture"] == "hierarchical"
        handled = sum(
            entry["requests_handled"] for entry in snap["nodes"].values()
        )
        # Every request walks at least its ingress node.
        assert handled >= len(trace)
        assert any(
            entry["cached_bytes"] > 0 for entry in snap["nodes"].values()
        )

    def test_healthz_reports_liveness_and_readiness(self, seeded_trace):
        """A serving node is ready; a draining node is live but not ready."""
        self.check_healthz(seeded_trace, sharded=False)

    def test_healthz_of_a_shard_is_the_same(self, seeded_trace):
        """One shard of two is the same object, so the same endpoint."""
        self.check_healthz(seeded_trace, sharded=True)

    @staticmethod
    def check_healthz(seeded_trace, sharded):
        import json as json_module

        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        shard = (0, ShardPlan.compute(arch, 2).assignment) if sharded else None

        async def http_get(host, port, target):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"GET {target} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            head, _, body = raw.decode().partition("\r\n\r\n")
            return int(head.split()[1]), body

        async def scenario():
            cluster = Cluster.build(
                arch, catalog, "lru", config=CONFIG, shard=shard
            )
            await cluster.start()
            endpoints = await cluster.enable_metrics()
            assert sorted(endpoints) == sorted(cluster.nodes)
            host, port = next(iter(endpoints.values()))
            serving = await http_get(host, port, "/healthz")
            cluster.begin_drain()
            draining = await http_get(host, port, "/healthz")
            await cluster.stop()
            return serving, draining

        (up_status, up_body), (drain_status, drain_body) = asyncio.run(
            scenario()
        )
        assert up_status == 200
        assert json_module.loads(up_body) == {"live": True, "ready": True}
        assert drain_status == 503
        assert json_module.loads(drain_body) == {"live": True, "ready": False}

    def test_closed_loop_covers_whole_trace(self, seeded_trace):
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)

        async def scenario():
            cluster = Cluster.build(
                arch, catalog, "coordinated", config=CONFIG
            )
            await cluster.start()
            loadgen = LoadGenerator(cluster, trace)
            report = await loadgen.run(mode="closed", concurrency=4)
            await cluster.stop()
            return report

        report = asyncio.run(scenario())
        warmup_end, total = trace.split_warmup(CONFIG.warmup_fraction)
        assert report.requests_total == total
        assert report.requests_measured == total - warmup_end
        assert report.errors == 0
        assert 0.0 < report.summary.hit_ratio < 1.0
