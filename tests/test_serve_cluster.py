"""The simulator-vs-cluster differential oracle.

The serving layer's correctness gate: replaying a seeded trace through
an in-process cluster (closed loop, concurrency 1, trace order) must
reproduce the simulator's :class:`~repro.metrics.collector.
MetricsSummary` **bit-for-bit** -- every float equal, not approximately
equal -- for the coordinated scheme and the baselines.  Any divergence
means the live protocol (piggybacked reports, shipped decisions, the
downstream cost accumulator) no longer implements the paper's algorithm
the simulator implements.

A one-process cluster crosses every hop in memory, so the only frames
it exchanges are at its client edge: one ``get``/``resp`` pair per
request and one ``inv`` entry frame per in-band update.

This is the contract pinning the per-node step decomposition
(``lookup_step`` / ``decide_step`` / ``deliver_step`` /
``invalidate_step``) to ``process_request``; see
``repro/schemes/base.py``.
"""

from __future__ import annotations

import asyncio
import gc
from collections import Counter
from dataclasses import replace

import pytest

from repro.coherency import CoherencyConfig
from repro.costs.model import LatencyCostModel
from repro.experiments.presets import SMALL_SCALE, build_architecture
from repro.obs.instruments import Instruments
from repro.obs.registry import StatRegistry
from repro.schemes.base import StepObserver
from repro.serve import Cluster, InProcessTransport, LoadGenerator, ShardPlan
from repro.serve.transport import Transport
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


class ObservedInstruments(Instruments):
    """Instruments that also attach ``observer`` to every walk position."""

    __slots__ = ("observer",)

    def __init__(self, observer, **channels):
        super().__init__(**channels)
        self.observer = observer

    def steps_at(self, node):
        return (*super().steps_at(node), self.observer)


def simulate(arch, catalog, scheme_name, trace, updates=(), registry=None,
             observer=None):
    """One engine run with the standard execute_point derivation;
    ``observer`` joins every walk position's step observers."""
    cost_model = LatencyCostModel(arch.network, catalog.mean_size)
    capacity = CONFIG.capacity_bytes(catalog.total_bytes)
    dcache = CONFIG.dcache_entries(catalog.total_bytes, catalog.mean_size)
    scheme = build_scheme(scheme_name, cost_model, capacity, dcache)
    engine = SimulationEngine(
        arch, cost_model, scheme, warmup_fraction=CONFIG.warmup_fraction
    )
    instruments = None
    if observer is not None:
        instruments = ObservedInstruments(observer, registry=registry)
    elif registry is not None:
        instruments = Instruments(registry=registry)
    return engine.run(trace, updates=updates, instruments=instruments)


def serve_replay(arch, catalog, scheme_name, trace, updates=(), observer=None):
    """The same trace through a live in-process cluster, trace order;
    ``observer`` joins every node's step observers."""

    async def scenario():
        cluster = Cluster.build(arch, catalog, scheme_name, config=CONFIG)
        await cluster.start()
        if observer is not None:
            for node in cluster.nodes.values():
                node.steps += (observer,)
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


class RecordingWire(Transport):
    """An in-process transport keeping the type of every frame it carries."""

    def __init__(self) -> None:
        self.inner = InProcessTransport()
        self.sent: Counter = Counter()
        self.replies: Counter = Counter()

    async def start_node(self, node_id, handler):
        return await self.inner.start_node(node_id, handler)

    async def call(self, address, message):
        self.sent[message["type"]] += 1
        reply = await self.inner.call(address, message)
        self.replies[reply["type"]] += 1
        return reply

    async def close(self) -> None:
        await self.inner.close()


class TestFramesOnlyAtTheEdge:
    def test_one_get_one_resp_per_request_one_inv_per_update(
        self, seeded_trace
    ):
        """Every hop of a one-process cluster runs in memory: the walk
        and the inv relay leave no frame behind the client's."""
        trace, catalog = seeded_trace
        updates = generate_update_events(
            num_objects=WORKLOAD.num_objects,
            duration=trace[len(trace) - 1].time,
            update_rate=0.5,
            seed=9,
        )
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        sim = simulate(arch, catalog, "coordinated", trace, updates=updates)

        async def scenario():
            wire = RecordingWire()
            cluster = Cluster.build(
                arch, catalog, "coordinated", config=CONFIG, transport=wire
            )
            await cluster.start()
            report = await LoadGenerator(
                cluster,
                trace,
                updates=updates,
                warmup_fraction=CONFIG.warmup_fraction,
            ).run(mode="sequential")
            handled = sum(n.requests_handled for n in cluster.nodes.values())
            await cluster.stop()
            return report, wire, handled

        report, wire, handled = asyncio.run(scenario())
        assert report.summary == sim.summary
        assert report.updates_applied == len(updates) > 0
        assert wire.sent == {"get": len(trace), "inv": len(updates)}
        assert wire.replies == {"resp": len(trace), "inv-ok": len(updates)}
        # The walks still visited their positions: many hops, no frames.
        assert handled > len(trace)


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


class StepRecorder(StepObserver):
    """Logs ``(node, step, hit | stored)`` for every step it observes."""

    def __init__(self):
        self.log = []

    def looked_up(self, walk, hit, report):
        self.log.append((walk.path[walk.index], "looked_up", hit))

    def failed_over(self, walk, index):
        self.log.append((walk.path[walk.index], "failed_over", index))

    def decided(self, walk):
        self.log.append((walk.path[walk.index], "decided", None))

    def delivered(self, walk, stored, came_from):
        self.log.append((walk.path[walk.index], "delivered", stored))


class TestOneStepSequence:
    """Both drivers report one step sequence through the walk's seam."""

    @pytest.mark.parametrize("arch_name", ["en-route", "hierarchical"])
    @pytest.mark.parametrize("scheme_name", ["coordinated", "lru"])
    def test_simulator_and_cluster_see_the_same_steps(
        self, seeded_trace, scheme_name, arch_name
    ):
        trace, catalog = seeded_trace
        arch = build_architecture(arch_name, WORKLOAD, seed=2)
        simulated, served = StepRecorder(), StepRecorder()
        simulate(arch, catalog, scheme_name, trace, registry=StatRegistry(),
                 observer=simulated)
        serve_replay(arch, catalog, scheme_name, trace, observer=served)
        steps = Counter(step for _, step, _ in simulated.log)
        assert steps["decided"] == len(trace)
        assert steps["delivered"] > 0
        assert served.log == simulated.log


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

    @pytest.mark.parametrize(
        "scheme_name, coherency",
        [
            ("coordinated", None),
            ("lru", CoherencyConfig(mode="channel", poll_interval=5.0)),
        ],
    )
    def test_a_stopped_cluster_is_no_cyclic_garbage(
        self, scheme_name, coherency
    ):
        """Dropping a stopped cluster frees its nodes, schemes and caches
        by reference counting: the collector finds none of them."""
        workload = replace(SMALL_SCALE.workload, num_requests=300, seed=5)
        generator = BoeingLikeTraceGenerator(workload)
        trace = generator.generate()
        arch = build_architecture("hierarchical", workload, seed=5)

        async def scenario():
            cluster = Cluster.build(
                arch, generator.catalog, scheme_name, coherency=coherency
            )
            await cluster.start()
            await LoadGenerator(cluster, trace).run(
                mode="closed" if coherency is None else "sequential",
                concurrency=4 if coherency is None else 1,
            )
            await cluster.stop()
            return cluster

        cluster = asyncio.run(scenario())
        assert len(cluster.nodes) == 41  # still readable after stop()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            del cluster
            gc.collect()
            left = Counter(type(thing).__name__ for thing in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        kinds = (
            "Cluster", "CacheNode", "CoordinatedScheme", "NCLCache",
            "LRUEverywhereScheme", "ChannelBroker", "ChannelSubscriber",
        )
        assert {kind: left[kind] for kind in kinds if left[kind]} == {}

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
