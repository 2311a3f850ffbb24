"""The cluster orchestrator: a live topology of cache nodes.

A :class:`Cluster` turns an existing :class:`~repro.sim.architecture.
Architecture` into a running cascade: one :class:`~repro.serve.node.
CacheNode` per network node, each owning a **private** instance of the
configured scheme (so only that node's caches ever materialize), wired
to its upstream peers over a pluggable :class:`~repro.serve.transport.
Transport`.  Parent links follow the architecture's distribution trees:
a request entering at a client's attachment node walks exactly the
delivery path the simulator would route, because every node resolves
paths from the same shared routing table.

Every cluster shares its node map with each of its nodes
(:attr:`CacheNode.hosted`), so a walk crosses the nodes of one process
in memory and frames exist only where they must: at the client edge
(``get``/``resp``, the ``inv`` entry frame, channel broker traffic) and
at process boundaries.  A fault plan follows the hops into memory: the
cluster hands its transport's injector (a
:class:`~repro.faults.injector.FaultyTransport` carries one) to every
node, whose in-memory hops meet the same per-hop seat as a frame.

A cluster is also what a shard worker process runs
(:mod:`repro.serve.shard`): built with ``shard=(shard_id, assignment)``
it hosts only the nodes the assignment gives it, so a walk crosses the
nodes of the shard in memory and every other node by frames; it is
otherwise the same object -- one place builds nodes, tracers and scrape
endpoints, drains and snapshots.

The orchestrator also provides the control plane
(:class:`ControlPlane`, the part shared with the wire-side
``ClusterClient``):

* ``invalidate`` -- push-invalidate one object across all cache nodes
  (:func:`broadcast_invalidate`: one entry frame, relayed by the nodes);
* ``apply_update`` -- one update event through the configured coherency
  mode;
* ``stats_snapshot`` -- the merged per-node counter registry;
* ``enable_metrics`` -- one scrape endpoint per node
  (:class:`~repro.serve.metrics_http.MetricsServer`);
* ``stop`` -- graceful drain (waits for in-flight walks) and an optional
  state snapshot on the way down;
* ``serve_forever`` -- run until SIGINT/SIGTERM, then drain-and-snapshot.

:meth:`Cluster.build` derives the scheme configuration from a catalog
and :class:`~repro.sim.config.SimulationConfig` exactly as the
experiment runner's ``execute_point`` does, which is what lets the
differential oracle compare a live replay against the simulator
bit-for-bit.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import signal as signal_module
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.coherency.config import CoherencyConfig
from repro.coherency.stats import CoherencyStats
from repro.core.piggyback import INV_FRAME_BYTES
from repro.costs.model import CostModel, LatencyCostModel
from repro.obs.export import JsonlTraceWriter
from repro.obs.probe import Probe
from repro.schemes.base import CachingScheme
from repro.serve.channel import (
    BROKER_NODE_ID,
    ChannelBroker,
    ChannelSubscriber,
    merge_channel_stats,
)
from repro.serve.metrics_http import MetricsServer
from repro.serve.node import CacheNode
from repro.serve.protocol import (
    MSG_CHSYNC,
    MSG_INV,
    MSG_PUB,
    MSG_SUB,
    RETRYABLE_ERRORS,
)
from repro.serve.tracing import NodeTracer, TracingConfig
from repro.serve.transport import InProcessTransport, RetryPolicy, Transport
from repro.sim.architecture import Architecture
from repro.sim.config import SimulationConfig
from repro.sim.factory import build_scheme
from repro.workload.groups import GroupAssignment
from repro.workload.updates import GroupUpdateEvent, expand_group_events

if TYPE_CHECKING:
    from repro.workload.catalog import ObjectCatalog


class CatalogTotals(NamedTuple):
    """The three catalog quantities :meth:`Cluster.build` reads.

    Plain numbers in place of an :class:`~repro.workload.catalog.
    ObjectCatalog`, whose numpy arrays a shard worker has no use for.
    """

    num_objects: int
    total_bytes: int
    mean_size: float


SchemeFactory = Callable[[], CachingScheme]


async def broadcast_invalidate(
    transport: Transport,
    addresses: Mapping[int, object],
    targets: Iterable[int],
    object_id: int,
    trace: Optional[dict] = None,
) -> Tuple[int, int, List[int]]:
    """Push-invalidate one object at every target node that has an address.

    The one place a broadcast enters the cluster: a single ``inv`` frame
    naming every target goes to the lowest id, and the nodes relay it
    among themselves (:meth:`CacheNode._relay_invalidate`) -- one frame
    per process, however many nodes each hosts.  Best-effort: an entry
    that fails retryably is skipped and the next id becomes the entry.
    Returns ``(copies removed, nodes whose handler ran, ids not reached)``.
    """
    pending = sorted(node for node in targets if node in addresses)
    skipped: List[int] = []
    while pending:
        frame = {"type": MSG_INV, "object_id": object_id, "nodes": pending}
        if trace is not None:
            frame["trace"] = trace
        try:
            reply = await transport.call(addresses[pending[0]], frame)
        except RETRYABLE_ERRORS:
            skipped.append(pending[0])
            pending = pending[1:]
            continue
        # Still sorted: failed entries precede every id the relay saw.
        return reply["removed"], reply["delivered"], skipped + reply["skipped"]
    return 0, 0, skipped


class ControlPlane:
    """What every driver of a cluster shares, hosting nodes or not.

    The architecture, cost model, transport and address map a load
    generator drives; the coherency mode with its counters; and the one
    ``apply_update``.  A subclass supplies :meth:`invalidate` (how
    strict a broadcast is) and reads channel state its own way -- in
    memory for :class:`Cluster`, over the wire for ``ClusterClient``.
    """

    def __init__(
        self,
        architecture: Architecture,
        cost_model: CostModel,
        transport: Transport,
        addresses: Mapping[int, object],
        coherency: Optional[CoherencyConfig],
        groups: Optional[GroupAssignment],
    ) -> None:
        self.architecture = architecture
        self.cost_model = cost_model
        self.transport = transport
        self.addresses: Dict[int, object] = dict(addresses)
        # The coherency plane (inv broadcasts, channel subscriptions)
        # only spans cache nodes: the origin is authoritative, never
        # holds a stale copy and never subscribes (chsync on a
        # non-subscriber is a protocol error), and the simulator prices
        # exactly len(architecture.cache_nodes) frames per event.
        self._cache_nodes = frozenset(architecture.cache_nodes)
        # Coherency mode (None behaves as implicit in-band with no stats
        # surfaced).  The broker's address (channel mode only)
        # deliberately lives OUTSIDE self.addresses: invalidation
        # broadcasts and node sweeps iterate the address map and must
        # never treat the broker as a cache.
        self.coherency = coherency
        self.groups = groups
        self.broker_address: Optional[object] = None
        self._updates_published = 0
        self._inv_frames = 0
        self._copies_invalidated = 0

    def ingress_address(self, client_id: int):
        """The address a given client sends its ``get`` frames to."""
        return self.addresses[self.architecture.client_nodes[client_id]]

    async def invalidate(self, object_id: int) -> int:
        """Push-invalidate one object everywhere; returns copies removed."""
        raise NotImplementedError

    async def apply_update(self, event) -> int:
        """Apply one update event through the configured coherency mode.

        In-band (or no coherency configured): a group event expands to
        its member objects and each is broadcast-invalidated -- exactly
        what in-band mode pays for group invalidation.  Channel mode:
        one ``pub`` frame to the broker, which sequences and fans out.
        Returns copies removed cluster-wide (for channel mode, by the
        synchronous fan-out; copies recovered later via catchup are not
        in the count).
        """
        self._updates_published += 1
        grouped = isinstance(event, GroupUpdateEvent)
        if self.broker_address is None:
            events = [event]
            if grouped:
                if self.groups is None:
                    raise ValueError(
                        "group-targeted updates require a group assignment"
                    )
                events = expand_group_events(events, self.groups)
            removed = 0
            for per_object in events:
                removed += await self.invalidate(per_object.object_id)
            return removed
        group = (
            event.group_id if grouped
            else self.groups.group_of(event.object_id)
        )
        reply = await self.transport.call(
            self.broker_address,
            {"type": MSG_PUB, "group": group, "time": event.time},
        )
        self._copies_invalidated += reply["removed"]
        return reply["removed"]

    def _inband_stats(self) -> dict:
        """In-band accounting: the inv broadcasts this driver delivered."""
        stats = CoherencyStats(mode="inband")
        stats.events_published = self._updates_published
        stats.inv_frames = self._inv_frames
        stats.inv_bytes = self._inv_frames * INV_FRAME_BYTES
        stats.copies_invalidated = self._copies_invalidated
        return stats.to_dict()


class Cluster(ControlPlane):
    """A live cascade of cache nodes over one architecture.

    ``shard=(shard_id, assignment)`` makes it one shard of a larger
    cluster: it hosts only the nodes ``assignment`` maps to
    ``shard_id`` and expects the other shards' addresses to be merged
    into :attr:`addresses` before traffic arrives.
    """

    def __init__(
        self,
        architecture: Architecture,
        cost_model: CostModel,
        scheme_factory: SchemeFactory,
        transport: Optional[Transport] = None,
        scheme_name: str = "",
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        max_inflight: Optional[int] = None,
        tracing: Optional[TracingConfig] = None,
        coherency: Optional[CoherencyConfig] = None,
        groups: Optional[GroupAssignment] = None,
        shard: Optional[Tuple[int, Mapping[int, int]]] = None,
    ) -> None:
        if coherency is not None and coherency.mode == "channel":
            if groups is None:
                raise ValueError(
                    "channel-mode coherency requires a group assignment "
                    "(build one from the object catalog via "
                    "CoherencyConfig.build_groups)"
                )
            if shard is not None:
                raise ValueError(
                    "channel-mode coherency cannot be sharded: every "
                    "shard would start a broker of its own"
                )
        super().__init__(
            architecture,
            cost_model,
            transport if transport is not None else InProcessTransport(),
            {},
            coherency,
            groups,
        )
        self.scheme_factory = scheme_factory
        self.scheme_name = scheme_name
        self.shard_id, self.shard_of = shard if shard is not None else (None, None)
        # Per-node admission bound (None = unbounded); see CacheNode.
        self.max_inflight = max_inflight
        # Distributed tracing (None = off, the exact untraced path); the
        # JSONL span writer is shared by every node.
        self.tracing = tracing
        self.trace_writer: Optional[JsonlTraceWriter] = None
        self._trace_probe: Optional[Probe] = None
        self._inv_seq = 0
        # Each node's retry/backoff schedule (None: the default policy).
        self.retry = retry
        # Seeds the per-node retry-jitter RNGs; node ``i`` always draws
        # from ``Random(f"{seed}:{i}")``, so a chaos run's backoff
        # schedule -- and with it every resilience counter -- is a pure
        # function of (seed, fault plan, trace).
        self.seed = seed
        self.nodes: Dict[int, CacheNode] = {}
        self.metrics_servers: Dict[int, MetricsServer] = {}
        # Nodes skipped by best-effort invalidation broadcasts (control
        # plane's failure visibility; the data plane has its own counters).
        self.invalidate_skips = 0
        self.broker: Optional[ChannelBroker] = None
        self._started = False
        self._draining = False

    @classmethod
    def build(
        cls,
        architecture: Architecture,
        catalog: ObjectCatalog | CatalogTotals,
        scheme_name: str,
        config: Optional[SimulationConfig] = None,
        transport: Optional[Transport] = None,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        max_inflight: Optional[int] = None,
        tracing: Optional[TracingConfig] = None,
        coherency: Optional[CoherencyConfig] = None,
        shard: Optional[Tuple[int, Mapping[int, int]]] = None,
        **params,
    ) -> "Cluster":
        """Derive per-node schemes exactly as the experiment runner does.

        Every node gets a fresh scheme instance built from the same
        ``(cost model, capacity, d-cache entries, params)`` tuple the
        simulator's ``execute_point`` would hand a single shared
        instance; the cluster's distribution is purely an ownership
        split, never a configuration change.  ``coherency`` selects the
        invalidation mode; its group assignment is derived from the
        catalog, so cluster and simulator group objects identically.

        ``catalog`` is an :class:`~repro.workload.catalog.ObjectCatalog`
        or its :class:`CatalogTotals`: only ``num_objects``,
        ``total_bytes`` and ``mean_size`` are read, so a shard worker
        builds the same schemes from three shipped numbers.
        """
        config = config if config is not None else SimulationConfig()
        cost_model = LatencyCostModel(architecture.network, catalog.mean_size)
        capacity = config.capacity_bytes(catalog.total_bytes)
        dcache_entries = config.dcache_entries(
            catalog.total_bytes, catalog.mean_size
        )
        groups = (
            coherency.build_groups(catalog.num_objects)
            if coherency is not None
            else None
        )
        return cls(
            architecture,
            cost_model,
            lambda: build_scheme(
                scheme_name, cost_model, capacity, dcache_entries, **params
            ),
            transport=transport,
            scheme_name=scheme_name,
            retry=retry,
            seed=seed,
            max_inflight=max_inflight,
            tracing=tracing,
            coherency=coherency,
            groups=groups,
            shard=shard,
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Dict[int, object]:
        """Instantiate and serve every hosted node; returns their addresses."""
        if self._started:
            raise RuntimeError("cluster already started")
        if self.tracing is not None:
            self.trace_writer = JsonlTraceWriter(self.tracing.path)
            self._trace_probe = Probe(
                self.trace_writer,
                sample_every=self.tracing.sample_every,
                sample_rate=self.tracing.sample_rate,
                seed=self.tracing.seed,
                kinds=("span",),
            )
        # A transport carrying a fault plan exposes its injector; the
        # nodes consult it for the hops they cross in memory.
        injector = getattr(self.transport, "injector", None)
        for node_id in sorted(self.architecture.network.nodes()):
            if self.shard_of is not None and (
                self.shard_of[node_id] != self.shard_id
            ):
                continue
            tracer = None
            if self._trace_probe is not None:
                tracer = NodeTracer(
                    node_id, self._trace_probe, shard=self.shard_id
                )
            node = CacheNode(
                node_id,
                self.scheme_factory(),
                self.architecture,
                self._forward,
                retry=self.retry,
                rng=random.Random(f"{self.seed}:{node_id}"),
                max_inflight=self.max_inflight,
                shard_of=self.shard_of,
                tracer=tracer,
            )
            node.hosted = self.nodes
            node.injector = injector
            self.nodes[node_id] = node
            self.addresses[node_id] = await self.transport.start_node(
                node_id, node.handle
            )
        if self.coherency is not None and self.coherency.mode == "channel":
            self.broker = ChannelBroker(self._forward)
            self.broker_address = await self.transport.start_node(
                BROKER_NODE_ID, self.broker.handle
            )
            for node_id in sorted(self.nodes):
                if node_id not in self._cache_nodes:
                    continue
                node = self.nodes[node_id]
                node.subscriber = ChannelSubscriber(
                    node_id, node.scheme, self.groups, self._call_broker
                )
                node.steps += (node.subscriber,)
                await self._call_broker(
                    {"type": MSG_SUB, "node": node_id, "groups": "*"}
                )
        self._started = True
        return dict(self.addresses)

    async def _forward(self, node_id: int, message: dict) -> dict:
        """One frame to a node, wherever it is hosted."""
        return await self.transport.call(self.addresses[node_id], message)

    async def _call_broker(self, message: dict) -> dict:
        return await self.transport.call(self.broker_address, message)

    async def enable_metrics(
        self, host: str = "127.0.0.1", base_port: int = 0
    ) -> Dict[int, Tuple[str, int]]:
        """Start one ``/metrics`` endpoint per node; returns their addresses.

        With ``base_port=0`` every endpoint gets an OS-assigned port;
        otherwise node ``i`` (in sorted order) listens on
        ``base_port + i``.
        """
        bound: Dict[int, Tuple[str, int]] = {}
        for offset, node_id in enumerate(sorted(self.nodes)):
            port = 0 if base_port == 0 else base_port + offset
            node = self.nodes[node_id]
            server = MetricsServer(
                node.registry,
                host=host,
                port=port,
                extra_text=self._requests_handled_text(node),
                ready=self.is_ready,
            )
            self.metrics_servers[node_id] = server
            bound[node_id] = await server.start()
        return bound

    @staticmethod
    def _requests_handled_text(node: CacheNode):
        """Scrape text for the one counter the registry does not carry."""

        def render() -> str:
            return (
                "# HELP repro_node_requests_handled_total "
                "request walks handled by this node\n"
                "# TYPE repro_node_requests_handled_total counter\n"
                f'repro_node_requests_handled_total{{node="{node.node_id}"}} '
                f"{node.requests_handled}\n"
            )

        return render

    def is_ready(self) -> bool:
        """Readiness: started and not draining (the ``/healthz`` source)."""
        return self._started and not self._draining

    def begin_drain(self) -> None:
        """Flip readiness off so ``/healthz`` steers new work away.

        Liveness is untouched: the endpoints keep answering (503 with
        ``ready: false``) while in-flight walks finish.
        """
        self._draining = True

    async def drain(self, timeout: float = 10.0) -> bool:
        """Wait until no node has an in-flight request walk."""
        self.begin_drain()
        deadline = asyncio.get_running_loop().time() + timeout
        while any(node.inflight for node in self.nodes.values()):
            if asyncio.get_running_loop().time() >= deadline:
                return False
            await asyncio.sleep(0.01)
        return True

    def snapshot(self) -> dict:
        """Point-in-time cluster state: per-node counters and cache fill."""
        nodes = {}
        for node_id, node in sorted(self.nodes.items()):
            entry = {
                "requests_handled": node.requests_handled,
                "cached_bytes": node.scheme.total_cached_bytes(),
                "stats": node.registry.snapshot().get(node_id, {}),
            }
            if node.subscriber is not None:
                entry["channel"] = node.subscriber.to_dict()
            nodes[str(node_id)] = entry
        snap = {
            "scheme": self.scheme_name,
            "architecture": self.architecture.name,
            "nodes": nodes,
        }
        if self.broker is not None:
            snap["channel"] = {
                "broker": self.broker.stats_dict(),
                "groups": dict(self.groups.params),
            }
        summary = self.coherency_summary()
        if summary is not None:
            snap["coherency"] = summary
        return snap

    async def stop(
        self,
        drain: bool = True,
        snapshot_path: Optional[Path] = None,
        drain_timeout: float = 10.0,
    ) -> Optional[dict]:
        """Graceful shutdown: drain in-flight walks, snapshot, tear down."""
        snap = None
        self._draining = True
        if self._started:
            if drain:
                await self.drain(timeout=drain_timeout)
                if self.broker is not None:
                    # Deterministic convergence: replay every event the
                    # fan-out lost before the snapshot freezes the state.
                    await self.channel_sync()
            snap = self.snapshot()
            if snapshot_path is not None:
                Path(snapshot_path).write_text(
                    json.dumps(snap, indent=2, sort_keys=True) + "\n"
                )
        for server in self.metrics_servers.values():
            await server.close()
        self.metrics_servers.clear()
        await self.transport.close()
        # The node map stays readable; only the links back to this
        # cluster go, so nothing of a stopped cluster is cyclic garbage.
        for node in self.nodes.values():
            node.detach()
        if self.broker is not None:
            self.broker.detach()
        if self.trace_writer is not None:
            self.trace_writer.close()
            self.trace_writer = None
            self._trace_probe = None
        self._started = False
        return snap

    async def serve_forever(
        self,
        snapshot_path: Optional[Path] = None,
        signals: Sequence[int] = (
            signal_module.SIGINT,
            signal_module.SIGTERM,
        ),
    ) -> Optional[dict]:
        """Serve until a shutdown signal, then drain-and-snapshot."""
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed: List[int] = []
        for sig in signals:
            try:
                loop.add_signal_handler(sig, shutdown.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without signal support: stop() by hand
        try:
            await shutdown.wait()
        finally:
            for sig in installed:
                with contextlib.suppress(Exception):
                    loop.remove_signal_handler(sig)
        return await self.stop(drain=True, snapshot_path=snapshot_path)

    # -- control plane -------------------------------------------------------

    async def invalidate(self, object_id: int) -> int:
        """Push-invalidate one object everywhere; returns copies removed.

        Per-node removals are independent, so the relay's order never
        changes counts.  Best-effort under faults: an unreachable node
        is skipped (counted in ``invalidate_skips``) rather than failing
        the broadcast; a crashed-and-restarted node rejoins with its
        copy still cached, the standard stale-replica window of push
        invalidation.
        """
        ctx = None
        if self._trace_probe is not None and self._trace_probe.sample("span"):
            # One trace per broadcast: every node's inv span shares it,
            # so the fan-out reconstructs as one flat tree.
            self._inv_seq += 1
            ctx = {"id": f"tinv.{self._inv_seq}", "parent": None}
        removed, delivered, skipped = await broadcast_invalidate(
            self.transport, self.addresses, self._cache_nodes, object_id, ctx
        )
        self._inv_frames += delivered
        self._copies_invalidated += removed
        self.invalidate_skips += len(skipped)
        return removed

    async def channel_sync(self) -> Dict[int, int]:
        """Sync every node to the broker's log; returns per-node pending.

        After a successful sync every node's pending count is zero --
        the convergence invariant the CI smoke's fault stage asserts.
        """
        if self.broker is None:
            return {}
        latest = self.broker.latest()
        pending: Dict[int, int] = {}
        for node_id in sorted(self.nodes):
            if self.nodes[node_id].subscriber is None:
                continue
            reply = await self.transport.call(
                self.addresses[node_id],
                {"type": MSG_CHSYNC, "latest": latest},
            )
            pending[node_id] = reply["pending"]
        return pending

    async def coherency_report(self) -> Optional[dict]:
        """Async face of :meth:`coherency_summary` (matches ClusterClient)."""
        return self.coherency_summary()

    def coherency_summary(self) -> Optional[dict]:
        """Merged coherency accounting, or ``None`` when not configured.

        Channel mode folds the broker's wire accounting and every
        subscriber's staleness counters through
        :func:`~repro.serve.channel.merge_channel_stats`; in-band mode
        prices the inv broadcasts this orchestrator actually delivered.
        """
        if self.coherency is None:
            return None
        if self.broker is not None:
            return merge_channel_stats(
                self.broker.stats_dict(),
                [
                    node.subscriber.to_dict()
                    for _, node in sorted(self.nodes.items())
                    if node.subscriber is not None
                ],
            )
        return self._inband_stats()
