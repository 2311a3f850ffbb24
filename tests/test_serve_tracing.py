"""Serve-side distributed tracing: the two binding contracts.

**Bit-identical when on**: a traced sequential replay reproduces the
untraced run's metrics exactly -- spans only observe -- which, chained
with the existing simulator oracle, pins traced serving to the
simulator too.  **Faithful**: reconstructed span trees match the frame
path hop for hop, including the ``skipped`` indices of failover under
injected faults, across process boundaries in a sharded cluster, and
under ingress sampling (a sampled trace is complete or absent, never a
fragment).

The zero-overhead-when-off half of the contract is enforced by
``test_serve_cluster.py`` / ``test_serve_shard.py`` passing unmodified:
an untraced node runs the exact pre-tracing code path.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.costs.model import LatencyCostModel
from repro.experiments.presets import build_architecture
from repro.faults import FaultInjector, FaultPlan, FaultyTransport, NodeFault
from repro.obs import read_trace_events, reconstruct_traces
from repro.serve import (
    Cluster,
    ClusterClient,
    InProcessTransport,
    LoadGenerator,
    RetryPolicy,
    ShardPlan,
    ShardedCluster,
    TCPTransport,
    TracingConfig,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import build_scheme
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig

WORKLOAD = WorkloadConfig(
    num_objects=80,
    num_servers=3,
    num_clients=10,
    num_requests=400,
    zipf_theta=0.8,
    seed=7,
)
CONFIG = SimulationConfig(relative_cache_size=0.01)
FAST_RETRY = RetryPolicy(
    attempts=3, backoff_base=0.0005, backoff_max=0.002, jitter=0.5
)


@pytest.fixture(scope="module")
def scenario():
    generator = BoeingLikeTraceGenerator(WORKLOAD)
    trace = generator.generate()
    return build_architecture("hierarchical", WORKLOAD, seed=4), trace, (
        generator.catalog
    )


def run(coro, timeout=120.0):
    async def bounded():
        return await asyncio.wait_for(coro, timeout=timeout)

    return asyncio.run(bounded())


def replay_inprocess(arch, catalog, trace, tracing=None, transport=None,
                     retry=None, shard=None):
    """One sequential in-process replay; returns (report, cluster)."""

    async def scenario():
        cluster = Cluster.build(
            arch,
            catalog,
            "coordinated",
            config=CONFIG,
            transport=transport if transport is not None else (
                InProcessTransport()
            ),
            retry=retry,
            tracing=tracing,
            shard=shard,
        )
        await cluster.start()
        loadgen = LoadGenerator(
            cluster, trace, warmup_fraction=CONFIG.warmup_fraction
        )
        report = await loadgen.run(mode="sequential")
        await cluster.stop()
        return report

    return run(scenario())


def assert_tree_matches_frame_path(tree):
    """One reconstructed walk == the frame path, hop for hop.

    Every executed hop has exactly one span; the union of executed and
    skipped indices is the contiguous prefix of the path up to the
    serving hop; parent links follow the forwarding chain.
    """
    walks = tree.walk_spans()
    assert len(tree.roots) == 1, tree.format()
    root = tree.roots[0]
    assert root.index == 0 and root.path, tree.format()
    hit = tree.hit_index()
    assert hit is not None
    executed = [span.index for span in walks]
    assert sorted(executed + tree.skipped_indices()) == list(range(hit + 1))
    # Node per executed hop agrees with the recorded path.
    for span in walks:
        assert span.node == root.path[span.index]
    # Parent links: each hop's parent is the previous executed hop.
    by_id = {span.span_id: span for span in walks}
    for span in walks:
        if span.parent_id is None:
            assert span is root
        else:
            assert by_id[span.parent_id].index < span.index


class TestTracedEqualsUntraced:
    def test_bit_identical_metrics_and_faithful_trees(self, scenario, tmp_path):
        arch, trace, catalog = scenario
        baseline = replay_inprocess(arch, catalog, trace)
        trace_file = tmp_path / "spans.jsonl"
        traced = replay_inprocess(
            arch, catalog, trace, tracing=TracingConfig(path=trace_file)
        )

        # The whole MetricsSummary, exactly: spans only observe.
        assert traced.summary == baseline.summary
        assert traced.requests_measured == baseline.requests_measured
        assert traced.cache_served == baseline.cache_served
        assert traced.errors == 0

        events = list(read_trace_events(trace_file))
        assert events and all(e["kind"] == "span" for e in events)
        trees = reconstruct_traces(events)
        walk_trees = [
            t for t in trees.values() if not t.trace_id.startswith("tinv.")
        ]
        # Every request walked exactly one complete trace.
        assert len(walk_trees) == traced.requests_total
        for tree in walk_trees:
            assert_tree_matches_frame_path(tree)
            assert tree.total_failovers() == 0
            assert tree.skipped_indices() == []
        # Cache/origin split recomputed from spans alone matches the report.
        origin_hits = sum(
            1
            for tree in walk_trees
            if tree.hit_index() == len(tree.roots[0].path) - 1
        )
        assert origin_hits == traced.origin_served
        # Scheme-step and wall timings landed on the serving hops.
        served = [t.walk_spans()[-1] for t in walk_trees]
        assert all(s.wall is not None and s.wall >= 0 for s in served)
        assert any(s.lookup is not None for s in served)
        assert any(s.decide is not None for s in served)

    def test_invalidations_are_traced(self, scenario, tmp_path):
        arch, trace, catalog = scenario
        trace_file = tmp_path / "spans.jsonl"

        async def scenario_run():
            cluster = Cluster.build(
                arch,
                catalog,
                "coordinated",
                config=CONFIG,
                tracing=TracingConfig(path=trace_file),
            )
            await cluster.start()
            loadgen = LoadGenerator(cluster, trace)
            await loadgen.run(mode="sequential")
            removed = await cluster.invalidate(trace[0].object_id)
            await cluster.stop()
            return removed

        run(scenario_run())
        trees = reconstruct_traces(read_trace_events(trace_file))
        inv_trees = [
            t for t in trees.values() if t.trace_id.startswith("tinv.")
        ]
        assert len(inv_trees) == 1
        (tree,) = inv_trees
        # One flat span per cache node of the broadcast (the origin is
        # authoritative and outside the coherency plane).
        assert tree.span_count == len(arch.cache_nodes)
        assert all(s.op == "inv" for s in tree.spans)
        assert len(tree.roots) == tree.span_count

    def test_ingress_sampling_keeps_traces_complete(self, scenario, tmp_path):
        arch, trace, catalog = scenario
        trace_file = tmp_path / "spans.jsonl"
        traced = replay_inprocess(
            arch,
            catalog,
            trace,
            tracing=TracingConfig(path=trace_file, sample_every=5),
        )
        trees = [
            t
            for t in reconstruct_traces(read_trace_events(trace_file)).values()
            if not t.trace_id.startswith("tinv.")
        ]
        # A fifth of the walks traced -- and each one is a complete tree,
        # because the sampling decision is taken once, at ingress.
        assert 0 < len(trees) < traced.requests_total
        assert len(trees) == -(-traced.requests_total // 5)
        for tree in trees:
            assert_tree_matches_frame_path(tree)


class TestFailoverTracing:
    def test_skipped_hops_recorded(self, scenario, tmp_path):
        """Acceptance gate: under a crashed interior node, reconstructed
        trees still match the frame path, with the dead hop in
        ``skipped`` instead of the visited chain."""
        arch, trace, catalog = scenario
        interior = {
            node
            for record in trace.records
            for node in arch.request_path(record.client_id, record.server_id)[
                1:-1
            ]
        }
        ingress = set(arch.client_nodes.values())
        victims = sorted(
            interior
            - ingress
            - {
                arch.request_path(r.client_id, r.server_id)[-1]
                for r in trace.records
            }
        )
        assert victims, "no crashable interior node in this topology"
        victim = victims[0]
        plan = FaultPlan(
            seed=13, nodes=(NodeFault(node=victim, kind="crash"),)
        )
        trace_file = tmp_path / "spans.jsonl"
        report = replay_inprocess(
            arch,
            catalog,
            trace,
            tracing=TracingConfig(path=trace_file),
            transport=FaultyTransport(InProcessTransport(), FaultInjector(plan)),
            retry=FAST_RETRY,
        )
        assert report.errors == 0
        trees = [
            t
            for t in reconstruct_traces(read_trace_events(trace_file)).values()
            if not t.trace_id.startswith("tinv.")
        ]
        assert len(trees) == report.requests_total
        touched = 0
        for tree in trees:
            assert_tree_matches_frame_path(tree)
            path = tree.roots[0].path
            if victim in path[1:-1]:
                index = path.index(victim)
                if index <= tree.hit_index():
                    touched += 1
                    # The dead node never ran, so it has no span...
                    assert victim not in tree.nodes_visited()
                    # ...and the surviving hop recorded the bypass.
                    assert index in tree.skipped_indices()
                    assert tree.total_failovers() >= 1
        assert touched > 0, "victim never sat on a served prefix"
        # Retries the resilience layer burned are attributed to spans.
        assert sum(t.total_retries() for t in trees) > 0


class TestInMemoryHopSpans:
    def test_one_nested_span_per_position(self, scenario, tmp_path):
        """A one-piece shard crosses every hop in memory: still one span
        per visited position, each wait inside its span, and each child
        inside its parent's wait -- so self and link time stay >= 0."""
        arch, trace, catalog = scenario
        baseline = replay_inprocess(arch, catalog, trace)
        trace_file = tmp_path / "spans.jsonl"
        traced = replay_inprocess(
            arch,
            catalog,
            trace,
            tracing=TracingConfig(path=trace_file),
            shard=(0, ShardPlan.compute(arch, 1).assignment),
        )
        assert traced.summary == baseline.summary and traced.errors == 0
        trees = [
            t
            for t in reconstruct_traces(read_trace_events(trace_file)).values()
            if not t.trace_id.startswith("tinv.")
        ]
        assert len(trees) == traced.requests_total
        for tree in trees:
            assert_tree_matches_frame_path(tree)
            walks = tree.walk_spans()
            assert len(walks) == (
                tree.hit_index() + 1 - len(tree.skipped_indices())
            )
            for span in walks:
                upstream = span.upstream or 0.0
                steps = sum(
                    t or 0.0 for t in (span.lookup, span.decide, span.deliver)
                )
                assert 0.0 <= upstream <= span.wall
                assert span.wall - upstream - steps >= -1e-9
                for child in span.children:
                    assert child.wall <= upstream


class TestShardedTracing:
    def test_two_shard_trace_covers_both_processes(self, scenario, tmp_path):
        arch, trace, catalog = scenario
        cost_model = LatencyCostModel(arch.network, catalog.mean_size)
        capacity = CONFIG.capacity_bytes(catalog.total_bytes)
        dcache = CONFIG.dcache_entries(catalog.total_bytes, catalog.mean_size)
        sim = SimulationEngine(
            arch,
            cost_model,
            build_scheme("coordinated", cost_model, capacity, dcache),
            warmup_fraction=CONFIG.warmup_fraction,
        ).run(trace)

        base = tmp_path / "trace.jsonl"
        cluster = ShardedCluster(
            arch,
            catalog,
            "coordinated",
            num_shards=2,
            config=CONFIG,
            trace_path=str(base),
        )
        addresses = cluster.start()
        try:

            async def drive():
                client = ClusterClient(
                    arch, cost_model, addresses, TCPTransport()
                )
                loadgen = LoadGenerator(
                    client, trace, warmup_fraction=CONFIG.warmup_fraction
                )
                try:
                    return await loadgen.run(mode="sequential")
                finally:
                    await client.close()

            report = run(drive())
        finally:
            cluster.stop()

        # Bit-identical when on, across process boundaries too.
        assert report.errors == 0
        assert report.summary.hit_ratio == sim.summary.hit_ratio
        assert report.summary.mean_latency == sim.summary.mean_latency

        paths = cluster.trace_paths()
        assert len(paths) == 2 and not base.exists()
        events = [e for p in paths for e in read_trace_events(p)]
        trees = [
            t
            for t in reconstruct_traces(events).values()
            if not t.trace_id.startswith("tinv.")
        ]
        assert len(trees) == report.requests_total
        for tree in trees:
            assert_tree_matches_frame_path(tree)
        # At least one walk executed spans on both shard processes, and
        # its hop below the boundary is flagged as the crossing.
        cross = [t for t in trees if len(t.shards()) >= 2]
        assert cross, "no trace crossed the shard boundary"
        assert any(
            span.crossed_shard for t in cross for span in t.walk_spans()
        )
        # Ids minted by independent processes never collide.
        span_ids = [e["span"] for e in events]
        assert len(span_ids) == len(set(span_ids))
