"""The sharded cluster: tree-contiguous plan, worker fleet, backpressure.

Five layers of guarantees:

* the plan is a deterministic, balanced, total partition of the
  topology that a root-ward walk crosses at most ``num_shards - 1``
  times and never re-enters (pure functions, no processes);
* a **multi-process** TCP run -- one shard (every hop a direct call) or
  two (direct and framed hops mixed) -- replays a trace with zero
  client-visible errors and the simulator's exact summary and per-node
  counters -- sharding is an ownership split, never a behavior change
  -- while the ``cross_shard_fwds`` counters prove walks crossed the
  process boundary exactly when there is one, and an in-band update
  stream reaches every cache node of every shard; the same oracle holds
  for two ``Cluster(shard=...)`` halves in this process, and a worker's
  scrape endpoint is a ``Cluster``'s;
* a same-shard hop, which carries no frame, still fails, sheds and
  isolates values the way a framed hop does;
* an update broadcast puts one ``inv`` frame on the wire per process,
  is relayed inside each shard, skips what it cannot reach without
  touching a walk's retry state, and refuses malformed frames;
* admission control sheds with retryable ``busy`` frames once a node's
  inflight bound is hit, and never fires under sequential replay.
"""

from __future__ import annotations

import asyncio
import json
import random
import urllib.request

import pytest

from repro.cache.descriptors import ObjectDescriptor
from repro.coherency.config import CoherencyConfig
from repro.costs.model import LatencyCostModel
from repro.experiments.presets import STANDARD_SCALE, build_architecture
from repro.serve import (
    Cluster,
    ClusterClient,
    InProcessTransport,
    LoadGenerator,
    NodeBusy,
    ShardPlan,
    ShardedCluster,
    TCPTransport,
    fetch_stats,
)
from repro.obs.instruments import Instruments
from repro.obs.registry import StatRegistry
from repro.serve.cluster import broadcast_invalidate, shard_forwarder
from repro.serve.node import CacheNode, ResilienceConfig
from repro.serve.protocol import (
    MSG_GET,
    MSG_INV,
    MSG_INV_OK,
    MSG_RESP,
    NodeUnreachable,
    ProtocolError,
    RemoteProtocolError,
)
from repro.serve.transport import CircuitBreaker, RetryPolicy
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import build_scheme
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.updates import generate_update_events

WORKLOAD = WorkloadConfig(
    num_objects=80,
    num_servers=3,
    num_clients=10,
    num_requests=400,
    zipf_theta=0.8,
    seed=7,
)
CONFIG = SimulationConfig(relative_cache_size=0.01)
UPDATE_RATE = 4.0


@pytest.fixture(scope="module")
def scenario():
    generator = BoeingLikeTraceGenerator(WORKLOAD)
    trace = generator.generate()
    catalog = generator.catalog
    arch = build_architecture("hierarchical", WORKLOAD, seed=4)
    return arch, trace, catalog


def run(coro, timeout=120.0):
    async def bounded():
        return await asyncio.wait_for(coro, timeout=timeout)

    return asyncio.run(bounded())


def path_shards(arch, plan):
    """The shard sequence along every client->server request path."""
    return [
        [
            plan.assignment[node]
            for node in arch.request_path(client_id, server_id)
        ]
        for client_id in arch.client_nodes
        for server_id in arch.server_nodes
    ]


def crossings(shards):
    return sum(a != b for a, b in zip(shards, shards[1:]))


class TestTreeContiguousPlan:
    """What the post-order split guarantees, whatever its bytes."""

    @pytest.mark.parametrize("num_shards", [2, 3, 4, 5])
    def test_walks_only_move_to_later_shards(self, scenario, num_shards):
        arch, _, _ = scenario
        plan = ShardPlan.compute(arch, num_shards)
        for shards in path_shards(arch, plan):
            # Non-decreasing: no shard is re-entered, so at most
            # num_shards - 1 crossings.
            assert shards == sorted(shards)

    @pytest.mark.parametrize("num_shards", [2, 3, 4, 5])
    def test_balanced_and_root_with_origin(self, scenario, num_shards):
        arch, _, _ = scenario
        plan = ShardPlan.compute(arch, num_shards)
        sizes = [len(plan.nodes_of(shard)) for shard in range(num_shards)]
        assert max(sizes) - min(sizes) <= 1
        # Every path ends [..., cache root, origin attachment].
        root, origin = arch.request_path(0, 0)[-2:]
        assert plan.assignment[root] == plan.assignment[origin]

    def test_enroute_paths_cross_less_than_once(self):
        """Many trees, one plan: the split still keeps subtrees whole."""
        arch = build_architecture("en-route", STANDARD_SCALE.workload, seed=4)
        paths = path_shards(arch, ShardPlan.compute(arch, 2))
        assert sum(map(crossings, paths)) / len(paths) < 1.0


class TestShardPlan:
    def test_total_disjoint_partition(self, scenario):
        arch, _, _ = scenario
        plan = ShardPlan.compute(arch, 3)
        nodes = sorted(arch.network.nodes())
        assert sorted(plan.assignment) == nodes
        owned = [n for s in range(3) for n in plan.nodes_of(s)]
        assert sorted(owned) == nodes

    def test_no_shard_is_empty(self, scenario):
        arch, _, _ = scenario
        for shards in (2, 3, 5, 8):
            plan = ShardPlan.compute(arch, shards)
            for shard in range(shards):
                assert plan.nodes_of(shard), f"shard {shard} empty"

    def test_deterministic(self, scenario):
        arch, _, _ = scenario
        assert (
            ShardPlan.compute(arch, 4).assignment
            == ShardPlan.compute(arch, 4).assignment
        )

    def test_client_edge_follows_attachment(self, scenario):
        arch, _, _ = scenario
        plan = ShardPlan.compute(arch, 2)
        for client_id, node in arch.client_nodes.items():
            assert plan.client_shard(arch, client_id) == (
                plan.assignment[node]
            )

    def test_assignment_is_pinned(self, scenario):
        """The split has no knob: this scenario's second shard is the
        origin attachment, the root, the root's last subtree and the
        tail of the one before."""
        arch, _, _ = scenario
        assert ShardPlan.compute(arch, 2).nodes_of(1) == [
            0, 2, 3, 9, 10, 11, 12, *range(28, 41),
        ]

    def test_bounds(self, scenario):
        arch, _, _ = scenario
        with pytest.raises(ValueError):
            ShardPlan.compute(arch, 0)
        with pytest.raises(ValueError):
            ShardPlan.compute(arch, len(arch.network.nodes()) + 1)


def coordinated_scheme(arch, catalog):
    """The scheme every node, and the simulator, is built from."""
    cost_model = LatencyCostModel(arch.network, catalog.mean_size)
    capacity = CONFIG.capacity_bytes(catalog.total_bytes)
    dcache = CONFIG.dcache_entries(catalog.total_bytes, catalog.mean_size)
    return build_scheme("coordinated", cost_model, capacity, dcache)


def simulated(scenario):
    """The reference run with an update stream: ``(cost model, updates,
    result, per-node counters)``."""
    arch, trace, catalog = scenario
    cost_model = LatencyCostModel(arch.network, catalog.mean_size)
    updates = generate_update_events(
        num_objects=WORKLOAD.num_objects,
        duration=trace[len(trace) - 1].time,
        update_rate=UPDATE_RATE,
        seed=9,
    )
    registry = StatRegistry()
    sim = SimulationEngine(
        arch,
        cost_model,
        coordinated_scheme(arch, catalog),
        warmup_fraction=CONFIG.warmup_fraction,
    ).run(trace, updates=updates, instruments=Instruments(registry=registry))
    return cost_model, updates, sim, registry.snapshot()


class TestShardedClusterLive:
    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_two_shard_run_matches_simulator(self, scenario, num_shards):
        """The acceptance oracle: multi-process == simulator, exactly.

        One shard makes every hop a direct call, two mix direct calls
        with TCP frames; neither may move a single per-node counter.
        """
        arch, trace, catalog = scenario
        cost_model, updates, sim, expected = simulated(scenario)

        cluster = ShardedCluster(
            arch, catalog, "coordinated", num_shards=num_shards, config=CONFIG
        )
        addresses = cluster.start()
        try:
            assert len(addresses) == len(arch.network.nodes())

            async def drive():
                client = ClusterClient(
                    arch,
                    cost_model,
                    addresses,
                    TCPTransport(),
                    coherency=CoherencyConfig(mode="inband"),
                )
                loadgen = LoadGenerator(
                    client,
                    trace,
                    updates=updates,
                    warmup_fraction=CONFIG.warmup_fraction,
                )
                try:
                    report = await loadgen.run(mode="sequential")
                    stats = await fetch_stats(addresses)
                finally:
                    await client.close()
                return report, stats

            report, stats = run(drive())
        finally:
            final = cluster.stop()

        assert report.errors == 0 and report.rejected == 0
        assert report.requests_measured == sim.requests_measured
        assert report.summary.hit_ratio == sim.summary.hit_ratio
        assert report.summary.byte_hit_ratio == sim.summary.byte_hit_ratio
        assert report.summary.mean_hops == sim.summary.mean_hops
        assert report.summary.mean_latency == sim.summary.mean_latency
        for node in arch.network.nodes():
            live = stats[node]["stats"]
            for counter in ("hits", "misses", "insertions", "evictions"):
                assert live.get(counter, 0) == expected.get(node, {}).get(
                    counter, 0
                ), f"node {node} {counter}"
        # Every update reached every cache node, relayed inside each
        # shard, and dropped exactly the copies the simulator dropped.
        assert report.updates_applied == len(updates) == sim.updates_applied
        assert report.copies_invalidated == sim.copies_invalidated > 0
        assert report.coherency["inv_frames"] == len(updates) * len(
            arch.cache_nodes
        )
        # Walks crossed a process boundary exactly when there is one.
        live_xfwd = sum(
            s["stats"].get("cross_shard_fwds", 0) for s in stats.values()
        )
        assert live_xfwd > 0 if num_shards == 2 else live_xfwd == 0
        # The workers' final stats agree with what the wire reported.
        final_xfwd = sum(
            n["stats"].get("cross_shard_fwds", 0) for n in final.values()
        )
        assert final_xfwd == live_xfwd
        # Sequential replay can never trip admission control.
        assert all(
            s["stats"].get("busy_rejections", 0) == 0 for s in stats.values()
        )

    def test_worker_stats_cover_every_node(self, scenario):
        """... and a worker serves the scrape endpoint ``Cluster`` serves:
        the handled-requests counter, and readiness on ``/healthz``."""
        arch, trace, catalog = scenario
        ingress = arch.client_nodes[trace[0].client_id]
        cluster = ShardedCluster(
            arch, catalog, "lru", num_shards=2, config=CONFIG, metrics=True
        )

        def scrape(target):
            host, port = cluster.metrics_addresses[ingress]
            with urllib.request.urlopen(
                f"http://{host}:{port}{target}", timeout=10
            ) as reply:
                return reply.status, reply.read().decode()

        def handled():
            (line,) = [
                line
                for line in scrape("/metrics")[1].splitlines()
                if line.startswith("repro_node_requests_handled_total{")
            ]
            assert f'node="{ingress}"' in line
            return int(line.rsplit(" ", 1)[1])

        addresses = cluster.start()
        try:
            assert sorted(cluster.metrics_addresses) == sorted(addresses)
            before = handled()
            cost_model = LatencyCostModel(arch.network, catalog.mean_size)

            async def drive():
                client = ClusterClient(
                    arch, cost_model, addresses, TCPTransport()
                )
                loadgen = LoadGenerator(client, trace)
                try:
                    return await loadgen.run(mode="closed", concurrency=4)
                finally:
                    await client.close()

            report = run(drive())
            after = handled()
            status, body = scrape("/healthz")
        finally:
            final = cluster.stop()
        assert report.errors == 0
        assert sorted(final) == sorted(arch.network.nodes())
        assert sum(n["requests_handled"] for n in final.values()) > 0
        entered = sum(
            arch.client_nodes[r.client_id] == ingress for r in trace.records
        )
        assert before == 0 and after >= entered > 0
        assert after == final[ingress]["requests_handled"]
        assert (status, json.loads(body)) == (
            200, {"live": True, "ready": True}
        )


class TestTwoShardsInProcess:
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_two_cluster_halves_match_the_simulator(
        self, scenario, num_shards
    ):
        """The sharded oracle with no subprocess: the ``Cluster`` pieces
        of one plan over one wire, with an update stream."""
        arch, trace, catalog = scenario
        cost_model, updates, sim, expected = simulated(scenario)
        plan = ShardPlan.compute(arch, num_shards)

        async def replay():
            wire = InProcessTransport()
            halves = [
                Cluster.build(
                    arch,
                    catalog,
                    "coordinated",
                    config=CONFIG,
                    transport=wire,
                    shard=(shard, plan.assignment),
                )
                for shard in range(num_shards)
            ]
            addresses = {}
            for half in halves:
                addresses.update(await half.start())
            for shard, half in enumerate(halves):
                assert sorted(half.nodes) == plan.nodes_of(shard)
                half.addresses.update(addresses)
            client = ClusterClient(
                arch,
                cost_model,
                addresses,
                wire,
                coherency=CoherencyConfig(mode="inband"),
            )
            report = await LoadGenerator(
                client,
                trace,
                updates=updates,
                warmup_fraction=CONFIG.warmup_fraction,
            ).run(mode="sequential")
            stats = {}
            for half in halves:
                snapshot = await half.stop()
                stats.update(
                    {int(n): e["stats"] for n, e in snapshot["nodes"].items()}
                )
            return report, stats

        report, stats = run(replay())
        assert report.errors == 0 and report.rejected == 0
        assert report.summary == sim.summary
        assert report.updates_applied == len(updates) == sim.updates_applied
        assert report.copies_invalidated == sim.copies_invalidated > 0
        assert report.coherency["inv_frames"] == len(updates) * len(
            arch.cache_nodes
        )
        for node in arch.network.nodes():
            for counter in ("hits", "misses", "insertions", "evictions"):
                assert stats[node].get(counter, 0) == expected.get(
                    node, {}
                ).get(counter, 0), f"node {node} {counter}"
        # Every walk heads for the plan's root: it can only move to a
        # later shard, so it crosses at most num_shards - 1 times.
        xfwd = sum(s.get("cross_shard_fwds", 0) for s in stats.values())
        assert 0 < xfwd <= (num_shards - 1) * len(trace)


def get_frame(record, object_id):
    return {
        "type": MSG_GET,
        "client_id": record.client_id,
        "server_id": record.server_id,
        "object_id": object_id,
        "size": 100,
        "time": 0.0,
    }


def host(scenario, node_ids, forward, options=None):
    """Cache nodes wired to ``forward``; ``options`` per node id."""
    arch, _, catalog = scenario
    return {
        node_id: CacheNode(
            node_id,
            coordinated_scheme(arch, catalog),
            arch.request_path,
            forward,
            **(options or {}).get(node_id, {}),
        )
        for node_id in node_ids
    }


class GatedLink:
    """Stands in for the link out of the shard: calls queue at a gate,
    keeping the walks that reached it in flight in the nodes below."""

    def __init__(self, far: InProcessTransport) -> None:
        self.far = far
        self.gate = asyncio.Event()
        self.frames: list = []

    async def call(self, address, message: dict) -> dict:
        self.frames.append(message)
        await self.gate.wait()
        return await self.far.call(address, message)


class TestSameShardHops:
    """A hop inside a shard carries no frame (``shard_forwarder``); what
    the codec round trip gave it for free must hold all the same."""

    def test_handler_error_surfaces_as_over_a_frame(self, scenario):
        arch, trace, _ = scenario
        record = trace[0]
        path = arch.request_path(record.client_id, record.server_id)

        def boom(*args, **kwargs):
            raise ValueError("boom")

        async def walk(framed: bool):
            wire = InProcessTransport()
            nodes = {}
            forward = shard_forwarder(
                {} if framed else nodes, wire, {n: n for n in path}
            )
            nodes.update(host(scenario, path, forward))
            for node_id, node in nodes.items():
                await wire.start_node(node_id, node.handle)
            nodes[path[1]].scheme.lookup_step = boom
            with pytest.raises(RemoteProtocolError) as caught:
                await forward(path[0], get_frame(record, 1))
            ingress = nodes[path[0]].registry.node(path[0])
            return (
                str(caught.value),
                ingress.rpc_retries,
                ingress.failovers,
                nodes[path[2]].requests_handled,
            )

        direct = run(walk(framed=False))
        # The framed text; not retried, not failed over, went no further.
        assert direct == ("RemoteProtocolError: ValueError: boom", 0, 0, 0)
        assert direct == run(walk(framed=True))

    def test_hop_at_its_bound_sheds_and_the_walk_fails_over(self, scenario):
        arch, trace, _ = scenario
        record = trace[0]
        path = arch.request_path(record.client_id, record.server_id)
        ingress, bounded = path[0], path[1]

        async def two_walks():
            far = InProcessTransport()
            link = GatedLink(far)
            near = {}
            forward = shard_forwarder(near, link, {n: n for n in path[2:]})
            near.update(
                host(
                    scenario,
                    [ingress, bounded],
                    forward,
                    {bounded: {"max_inflight": 1}},
                )
            )
            for node_id, node in host(scenario, path[2:], far.call).items():
                await far.start_node(node_id, node.handle)

            async def reaches_the_link(walk, frames):
                while len(link.frames) < frames:
                    assert not walk.done(), walk.result()
                    await asyncio.sleep(0.005)

            # The first walk holds the bounded node's only slot while it
            # waits at the link; the second finds the node at its bound.
            first = asyncio.ensure_future(
                forward(ingress, get_frame(record, 1))
            )
            await reaches_the_link(first, 1)
            second = asyncio.ensure_future(
                forward(ingress, get_frame(record, 2))
            )
            await reaches_the_link(second, 2)
            link.gate.set()
            replies = await asyncio.gather(first, second)
            return replies, near, link.frames

        replies, near, frames = run(two_walks())
        assert [reply["type"] for reply in replies] == [MSG_RESP, MSG_RESP]
        shed = near[bounded].registry.node(bounded)
        attempts = ResilienceConfig().retry.attempts
        # Shed on every attempt, before any cache state was touched ...
        assert shed.busy_rejections == attempts
        assert near[bounded].requests_handled == 1 and shed.misses == 1
        # ... and the walk went round the busy hop instead of failing.
        upstream = near[ingress].registry.node(ingress)
        assert upstream.rpc_retries == attempts - 1
        assert upstream.failovers == 1
        assert (frames[0]["index"], frames[0]["skipped"]) == (2, [])
        assert (frames[1]["index"], frames[1]["skipped"]) == (2, [1])

    def test_each_candidate_frame_owns_its_lists(self, scenario):
        """A hosted receiver is handed the frame dict itself and appends
        to its lists; what it added must not reach the next candidate."""
        arch, trace, _ = scenario
        record = trace[0]
        path = arch.request_path(record.client_id, record.server_id)
        seen = []

        async def forward(node_id, message):
            seen.append(
                (node_id, list(message["reports"]), list(message["skipped"]))
            )
            if len(seen) == 1:
                message["reports"].append({"n": node_id, "d": False})
                message["skipped"].append(99)
                raise NodeUnreachable("down after touching its frame")
            return {
                "type": MSG_RESP,
                "hit_index": message["index"],
                "decision": {"cache_at": [], "gain": 0.0, "acc": 0.0},
                "inserted": [],
                "evictions": 0,
            }

        once = ResilienceConfig(retry=RetryPolicy(attempts=1))
        node = host(
            scenario, [path[0]], forward, {path[0]: {"resilience": once}}
        )[path[0]]
        reply = run(node.handle(get_frame(record, 1)))
        assert reply["type"] == MSG_RESP
        (_, first_reports, _), (target, reports, skipped) = seen
        assert target == path[2]
        assert reports == first_reports and len(reports) == 1
        assert skipped == [1]


class CountingWire:
    """Everything that is a frame -- client to entry node, shard to
    shard -- crosses here, is counted, and round-trips the codec."""

    def __init__(self) -> None:
        self.inner = InProcessTransport()
        self.frames: list = []
        self.down: set = set()

    async def call(self, address, message: dict) -> dict:
        self.frames.append((address, message))
        if address in self.down:
            raise NodeUnreachable(f"node {address} is down")
        return await self.inner.call(address, message)


async def two_shards(scenario, wire):
    """Both halves of a two-shard plan in this process, each behind its
    own ``shard_forwarder``, warmed with the head of the trace."""
    arch, trace, _ = scenario
    plan = ShardPlan.compute(arch, 2)
    addresses = {node: node for node in plan.assignment}
    rngs = {node: random.Random(node) for node in plan.assignment}
    nodes = {}
    for shard in range(2):
        hosted: dict = {}
        hosted.update(
            host(
                scenario,
                plan.nodes_of(shard),
                shard_forwarder(hosted, wire, addresses),
                {
                    node: {"shard_of": plan.assignment, "rng": rngs[node]}
                    for node in plan.nodes_of(shard)
                },
            )
        )
        nodes.update(hosted)
    for node_id, node in nodes.items():
        await wire.inner.start_node(node_id, node.handle)
    for record in trace.records[:200]:
        await wire.call(
            arch.client_nodes[record.client_id],
            {**get_frame(record, record.object_id), "size": record.size,
             "time": record.time},
        )
    wire.frames.clear()
    return plan, nodes, addresses, rngs


def invalidations(nodes, targets):
    return [nodes[n].scheme.protocol_stats.invalidations for n in targets]


class TestInvalidationRelay:
    """One ``inv`` frame per process: the entry node relays a broadcast
    inside its shard by direct calls and sends each other shard one
    frame (``CacheNode._relay_invalidate``)."""

    def test_one_frame_per_other_shard_and_the_loop_s_outcome(self, scenario):
        arch, trace, _ = scenario
        targets = sorted(arch.cache_nodes)
        objects = sorted({r.object_id for r in trace.records[:200]})
        ctx = {"id": "tinv.1", "parent": None}

        async def relayed():
            wire = CountingWire()
            plan, nodes, addresses, _ = await two_shards(scenario, wire)
            before = invalidations(nodes, targets)
            removed, delivered, skipped = await broadcast_invalidate(
                wire, addresses, targets, objects[0], trace=ctx
            )
            frames = list(wire.frames)
            counted = [
                after - was
                for was, after in zip(before, invalidations(nodes, targets))
            ]
            outcome = {objects[0]: removed}
            for object_id in objects[1:]:
                outcome[object_id], _, _ = await broadcast_invalidate(
                    wire, addresses, targets, object_id
                )
            return plan, frames, delivered, skipped, counted, outcome

        async def looped():
            wire = CountingWire()
            _, _, addresses, _ = await two_shards(scenario, wire)
            outcome = {}
            for object_id in objects:
                outcome[object_id] = 0
                for node in targets:
                    reply = await wire.call(
                        addresses[node],
                        {"type": MSG_INV, "object_id": object_id},
                    )
                    outcome[object_id] += reply["removed"]
            return outcome

        plan, frames, delivered, skipped, counted, outcome = run(relayed())
        home = plan.assignment[targets[0]]
        away = [n for n in targets if plan.assignment[n] != home]
        # The client's frame to the entry node, one frame to the other
        # shard naming its members, and nothing for co-hosted nodes.
        assert [address for address, _ in frames] == [targets[0], away[0]]
        assert frames[0][1]["nodes"] == targets
        assert frames[1][1]["nodes"] == away
        assert frames[1][1]["trace"] == frames[0][1]["trace"] == ctx
        # Every listed node's handler ran exactly once ...
        assert (delivered, skipped) == (len(targets), [])
        assert counted == [1] * len(targets)
        # ... and dropped what one frame per node would have dropped.
        assert outcome == run(looped())
        assert sum(outcome.values()) > 0

    def test_unreachable_nodes_are_skipped_not_retried(self, scenario):
        arch, trace, _ = scenario
        targets = sorted(arch.cache_nodes)
        object_id = trace[0].object_id

        async def broadcast(down_of):
            wire = CountingWire()
            plan, nodes, addresses, rngs = await two_shards(scenario, wire)
            home = plan.assignment[targets[0]]
            away = [n for n in targets if plan.assignment[n] != home]
            wire.down = set(down_of(away))
            before = invalidations(nodes, targets)
            seeds = {n: rng.getstate() for n, rng in rngs.items()}
            _, delivered, skipped = await broadcast_invalidate(
                wire, addresses, targets, object_id
            )
            counted = {
                n: after - was
                for n, was, after in zip(
                    targets, before, invalidations(nodes, targets)
                )
            }
            # Best-effort means just that: no walk's retry schedule or
            # breaker state moves because a broadcast met a dead node.
            assert all(
                rng.getstate() == seeds[n] for n, rng in rngs.items()
            )
            assert all(
                breaker.state == CircuitBreaker.CLOSED
                and breaker.consecutive_failures == 0
                for node in nodes.values()
                for breaker in node.breakers.values()
            )
            sent = [(address, m["nodes"]) for address, m in wire.frames]
            return away, sent, delivered, skipped, counted

        # The first node of the other shard is down: its group is
        # reached through the second.
        away, sent, delivered, skipped, counted = run(
            broadcast(lambda away: away[:1])
        )
        assert sent == [
            (targets[0], targets), (away[0], away), (away[1], away[1:])
        ]
        assert (delivered, skipped) == (len(targets) - 1, away[:1])
        assert counted == {n: int(n != away[0]) for n in targets}

        # The whole other shard is down: two tries, then its members
        # come back as skipped while the entry's shard is delivered.
        away, sent, delivered, skipped, counted = run(
            broadcast(lambda away: away)
        )
        assert sent == [
            (targets[0], targets), (away[0], away), (away[1], away[1:])
        ]
        assert (delivered, skipped) == (len(targets) - len(away), away)
        assert counted == {n: int(n not in away) for n in targets}

        # The entry itself is down: the next id becomes the entry.
        _, sent, delivered, skipped, counted = run(
            broadcast(lambda away: targets[:1])
        )
        assert sent[:2] == [(targets[0], targets), (targets[1], targets[1:])]
        assert (delivered, skipped) == (len(targets) - 1, targets[:1])
        assert counted == {n: int(n != targets[0]) for n in targets}


class TestInvFrameValidation:
    """An ``inv`` frame is outside input: a malformed one is refused
    before it is priced as a protocol message or touches the cache."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"object_id": "7"},
            {"object_id": 1.5},
            {"object_id": None},
            {"object_id": [1]},
            {"object_id": {"a": 1}},
            {"object_id": True},
            {},
            {"object_id": 1, "nodes": None},
            {"object_id": 1, "nodes": "5"},
            {"object_id": 1, "nodes": ["5"]},
            {"object_id": 1, "nodes": [5, True]},
            {"object_id": 1, "nodes": [5, 5]},
            {"object_id": 1, "nodes": [6]},
            {"object_id": 1, "nodes": []},
        ],
        ids=repr,
    )
    def test_malformed_frame_touches_nothing(self, scenario, fields):
        relayed = []

        async def forward(node_id, message):
            relayed.append(node_id)
            return {"type": MSG_INV_OK, "node": node_id, "removed": 0}

        node = host(scenario, [5], forward)[5]
        scheme = node.scheme
        scheme.cache_at(5).insert(ObjectDescriptor(1, 100), 0.0)
        with pytest.raises(ProtocolError):
            run(node.handle({"type": MSG_INV, **fields}))
        assert scheme.protocol_stats.invalidations == 0
        assert scheme.has_object(5, 1) and relayed == []
        # The well-formed frame next to it is served.
        reply = run(node.handle({"type": MSG_INV, "object_id": 1}))
        assert (reply["removed"], scheme.has_object(5, 1)) == (1, False)
        assert scheme.protocol_stats.invalidations == 1

    def test_a_node_outside_the_plan_is_refused(self, scenario):
        node = host(
            scenario, [5], None, {5: {"shard_of": {5: 0, 6: 1}}}
        )[5]
        with pytest.raises(ProtocolError):
            run(
                node.handle(
                    {"type": MSG_INV, "object_id": 1, "nodes": [5, 6, 7]}
                )
            )
        assert node.scheme.protocol_stats.invalidations == 0


class TestAdmissionControl:
    def test_busy_shed_and_counted(self, scenario):
        """A node at its inflight bound sheds with a retryable busy frame."""
        arch, trace, catalog = scenario

        async def flood():
            # A bare in-process dispatch never suspends (plain coroutine
            # awaits), so concurrent gets would serialize and the bound
            # could never trip; a call timeout wraps each dispatch in a
            # real task, giving the walks genuine overlap.
            cluster = Cluster.build(
                arch,
                catalog,
                "lru",
                config=CONFIG,
                transport=InProcessTransport(call_timeout=30.0),
                max_inflight=1,
            )
            await cluster.start()
            record = trace[0]
            ingress = cluster.ingress_address(record.client_id)

            async def one(object_id: int):
                return await cluster.transport.call(
                    ingress, get_frame(record, object_id)
                )

            results = await asyncio.gather(
                *(one(i) for i in range(12)), return_exceptions=True
            )
            busy_total = sum(
                node.registry.node(node_id).busy_rejections
                for node_id, node in cluster.nodes.items()
            )
            await cluster.stop(drain=False)
            return results, busy_total

        results, busy_total = run(flood())
        shed = [r for r in results if isinstance(r, NodeBusy)]
        served = [r for r in results if isinstance(r, dict)]
        assert shed, "an inflight bound of 1 must shed concurrent walks"
        assert served, "the admitted walk must still complete"
        assert busy_total == len(shed)

    def test_sequential_never_sheds(self, scenario):
        """max_inflight >= 1 is invisible to one-at-a-time replay."""
        arch, trace, catalog = scenario

        async def live():
            cluster = Cluster.build(
                arch,
                catalog,
                "lru",
                config=CONFIG,
                transport=InProcessTransport(),
                max_inflight=1,
            )
            await cluster.start()
            loadgen = LoadGenerator(cluster, trace)
            report = await loadgen.run(mode="sequential")
            busy_total = sum(
                node.registry.node(node_id).busy_rejections
                for node_id, node in cluster.nodes.items()
            )
            await cluster.stop(drain=False)
            return report, busy_total

        report, busy_total = run(live())
        assert report.errors == 0 and report.rejected == 0
        assert busy_total == 0
