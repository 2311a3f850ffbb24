"""Multi-process sharding of the live cluster.

One Python process cannot push a cascade past a single core.  This
module splits an :class:`~repro.sim.architecture.Architecture` across
worker **shards** -- separate OS processes, each running a
:class:`~repro.serve.cluster.Cluster` that hosts the network nodes it
owns -- wired together over the existing TCP transport, so a request
walk crosses shard boundaries with ordinary ``fwd`` frames and nothing
above the transport changes.  A worker builds no node, tracer or scrape
endpoint itself: whatever a single-process cluster does at start, on
``/healthz`` and ``/metrics``, while draining and in its snapshot, a
shard does too, because it is the same object.

Three pieces here, one next door:

* :class:`ShardPlan` -- a tree-contiguous assignment of network nodes
  to shards: the distribution tree in post-order, cut into equal
  consecutive runs.  Requests are root-ward chains of hops, and a
  parent follows its descendants in post-order, so a walk toward the
  plan's root only ever moves to a later shard.  The **client edge**
  falls out of the same map: a client's ingress shard is the shard
  that owns its attachment node (:meth:`ShardPlan.client_shard`), so
  any frontend holding the plan routes clients without consulting a
  directory.
* :attr:`~repro.serve.node.CacheNode.hosted` (filled by ``Cluster``)
  -- the one rule for a hop between two nodes: frames exist only at
  process boundaries.  A request walk runs the positions a shard hosts
  as one in-memory loop and sends one ``fwd`` frame where it leaves the
  shard; an update broadcast reaches a shard as *one* ``inv`` frame
  naming its members, handed over in memory to the rest of them
  (:meth:`CacheNode._relay_invalidate`).
* :class:`ShardSpec` / :func:`_shard_worker_main` -- the picklable
  work order shipped to each ``spawn`` worker, and the worker's
  entrypoint: start a ``Cluster`` with ``shard=`` on TCP, rendezvous
  the address maps through a pipe, serve until told to stop, then
  ``Cluster.stop`` (drain, snapshot) and report final per-node stats.
* :class:`ShardedCluster` -- the parent-side orchestrator: spawns the
  workers, merges and re-broadcasts the address map, and tears the
  fleet down in order.

Semantics are unchanged by construction: every node still runs the same
scheme steps on the same private state, charged to its own counters,
and paths still come from the shared routing table.  Input checks stay
where outside input arrives: field validation where a frame enters a
process, frame-size and JSON checks on every frame read from a socket.
``InProcessTransport`` keeps its codec round trip for the frames that
remain: the client edge of a one-process ``Cluster``, which hosts every
node and so puts no hop on its transport, and the boundaries between
``Cluster(shard=...)`` pieces sharing one in-process wire.

Admission control
(``max_inflight`` -> ``busy`` frames, see :mod:`repro.serve.node`) is
the backpressure story: an overloaded shard sheds instead of queueing
without bound, and clients retry or fail over around it.  The
``cross_shard_fwds`` counter makes the partitioning observable: a walk
toward the plan's root adds at most ``num_shards - 1`` to it, and the
total stays above zero whenever clients attach below more than one
shard.
"""

from __future__ import annotations

import multiprocessing
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.serve.cluster import CatalogTotals, Cluster
from repro.serve.protocol import MSG_STATS
from repro.serve.tracing import TracingConfig, shard_trace_path
from repro.serve.transport import RetryPolicy, TCPTransport
from repro.sim.architecture import Architecture
from repro.sim.config import SimulationConfig

if TYPE_CHECKING:
    from repro.workload.catalog import ObjectCatalog


@dataclass(frozen=True)
class ShardPlan:
    """A complete nodes->shards assignment for one architecture."""

    num_shards: int
    assignment: Dict[int, int]

    @classmethod
    def compute(
        cls, architecture: Architecture, num_shards: int
    ) -> "ShardPlan":
        """Split the distribution tree into post-order-contiguous shards.

        The tree is the one rooted at the origin attachment that serves
        the most servers (ties to the lowest node id).  Listed in
        post-order, children by ascending id, a parent follows all of
        its descendants, so giving position ``i`` of ``n`` to shard
        ``i * num_shards // n`` makes the shard sequence along any
        root-ward walk of that tree non-decreasing: a walk crosses at
        most ``num_shards - 1`` process boundaries and never re-enters
        a shard.  Shard sizes differ by at most one, none is empty, and
        while every shard holds two nodes the root shares the last one
        with its highest-id child (on the hierarchical architecture,
        the origin attachment with the cache root).  Walks toward
        another origin attachment (en-route) follow a different tree
        and carry no such bound.
        """
        nodes = architecture.network.nodes()
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if num_shards > len(nodes):
            raise ValueError(
                f"cannot spread {len(nodes)} nodes over {num_shards} shards"
            )
        served = Counter(architecture.server_nodes.values())
        root = min(served, key=lambda node: (-served[node], node))
        tree = architecture.routing.tree(root)
        children: Dict[int, List[int]] = {node: [] for node in nodes}
        for node in nodes:
            if node != root:
                children[tree.parent(node)].append(node)
        # Parent first, children by descending id (the stack pops the
        # largest), read backwards: post-order, children ascending.
        order: List[int] = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(children[node])
        order.reverse()
        assignment = {
            node: position * num_shards // len(order)
            for position, node in enumerate(order)
        }
        return cls(num_shards=num_shards, assignment=assignment)

    def nodes_of(self, shard_id: int) -> List[int]:
        return sorted(
            node for node, s in self.assignment.items() if s == shard_id
        )

    def client_shard(self, architecture: Architecture, client_id: int) -> int:
        """The ingress shard of a client: its attachment node's owner."""
        return self.assignment[architecture.client_nodes[client_id]]


@dataclass
class ShardSpec:
    """Everything one worker process needs to host its shard.

    Shipped through ``multiprocessing`` pickling at spawn; every field
    is plain data, so unpickling a spec loads no numpy.  ``catalog`` is
    the :class:`~repro.serve.cluster.CatalogTotals` of the parent's
    catalog -- the three numbers ``Cluster.build`` reads -- not the
    catalog itself.  ``assignment`` is the *full* plan: the worker hosts
    the nodes it maps to ``shard_id`` and needs the rest to stamp
    ``cross_shard_fwds``.
    """

    shard_id: int
    assignment: Dict[int, int]
    architecture: Architecture
    catalog: CatalogTotals
    scheme_name: str
    config: SimulationConfig
    params: dict = field(default_factory=dict)
    retry: Optional[RetryPolicy] = None
    seed: int = 0
    host: str = "127.0.0.1"
    max_inflight: Optional[int] = None
    rpc_timeout: Optional[float] = None
    metrics: bool = False
    # Distributed tracing into this worker's own span JSONL file
    # (workers are separate processes and cannot share a file handle),
    # or None for the exact untraced path.
    tracing: Optional[TracingConfig] = None


def _shard_worker_main(spec: ShardSpec, conn) -> None:
    """Entrypoint of one shard worker process (spawn-safe, module level).

    Pipe protocol, in order:

    1. worker -> parent: ``("addresses", {node: (host, port)}, metrics)``
    2. parent -> worker: ``("peers", {node: (host, port)})`` -- the
       merged map of *every* shard's nodes;
    3. worker -> parent: ``("ready",)`` -- the peer map is installed;
       only after every shard acks may the parent admit traffic (a
       frame could otherwise reach a worker that cannot forward yet);
    4. parent -> worker: ``("stop",)`` -- drain in-flight walks, reply
       ``("stats", {str(node): {...}})`` with the final counters, exit.

    Any crash is reported as ``("error", traceback_text)`` so the parent
    fails loudly instead of hanging on a dead pipe.
    """
    import asyncio
    import signal

    # The parent owns shutdown (pipe "stop"); a terminal Ctrl-C -- or a
    # SIGTERM fanned out to the process group by wrappers like
    # `timeout` -- must not race the workers into dying before they
    # have drained and reported their final stats.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)

    async def serve() -> None:
        cluster = Cluster.build(
            spec.architecture,
            spec.catalog,
            spec.scheme_name,
            config=spec.config,
            transport=TCPTransport(
                host=spec.host, call_timeout=spec.rpc_timeout
            ),
            retry=spec.retry,
            seed=spec.seed,
            max_inflight=spec.max_inflight,
            tracing=spec.tracing,
            shard=(spec.shard_id, spec.assignment),
            **spec.params,
        )
        addresses = await cluster.start()
        metrics_addresses = (
            await cluster.enable_metrics(host=spec.host)
            if spec.metrics
            else {}
        )
        conn.send(("addresses", addresses, metrics_addresses))

        loop = asyncio.get_running_loop()
        message = await loop.run_in_executor(None, conn.recv)
        if message[0] != "peers":
            raise RuntimeError(f"expected peers, got {message[0]!r}")
        cluster.addresses.update(
            {int(n): (h, p) for n, (h, p) in message[1].items()}
        )
        conn.send(("ready",))

        message = await loop.run_in_executor(None, conn.recv)
        if message[0] != "stop":
            raise RuntimeError(f"expected stop, got {message[0]!r}")
        # Drained, sockets and the span file closed before the ack: the
        # parent may read the span files the moment stop() returns.
        snapshot = await cluster.stop()
        conn.send(("stats", snapshot["nodes"]))

    try:
        asyncio.run(serve())
    except Exception:  # noqa: BLE001 - shipped to the parent verbatim
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class ShardedCluster:
    """A cluster split across worker processes, one shard each.

    Synchronous orchestration API (the workers run their own event
    loops): :meth:`start` blocks until every shard is bound and knows
    every peer address, :meth:`stop` drains the fleet and collects the
    final per-node stats into :attr:`final_stats`.
    """

    def __init__(
        self,
        architecture: Architecture,
        catalog: ObjectCatalog,
        scheme_name: str,
        num_shards: int,
        config: Optional[SimulationConfig] = None,
        params: Optional[dict] = None,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        host: str = "127.0.0.1",
        max_inflight: Optional[int] = None,
        rpc_timeout: Optional[float] = None,
        metrics: bool = False,
        trace_path: Optional[str] = None,
        trace_sample_every: int = 1,
    ) -> None:
        self.architecture = architecture
        self.catalog = catalog
        self.scheme_name = scheme_name
        self.config = config if config is not None else SimulationConfig()
        self.params = dict(params) if params else {}
        self.retry = retry
        self.seed = seed
        self.host = host
        self.max_inflight = max_inflight
        self.rpc_timeout = rpc_timeout
        self.metrics = metrics
        # Base span-file path; worker i writes shard_trace_path(base, i).
        self.trace_path = trace_path
        self.trace_sample_every = trace_sample_every
        self.plan = ShardPlan.compute(architecture, num_shards)
        self.addresses: Dict[int, Tuple[str, int]] = {}
        self.metrics_addresses: Dict[int, Tuple[str, int]] = {}
        self.final_stats: Dict[int, dict] = {}
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._pipes: List = []
        self._started = False

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    def trace_paths(self) -> List[str]:
        """The per-shard span files a traced fleet writes, in shard order."""
        if self.trace_path is None:
            return []
        return [
            str(shard_trace_path(self.trace_path, shard))
            for shard in range(self.plan.num_shards)
        ]

    def spec(self, shard_id: int) -> ShardSpec:
        """The work order :meth:`start` ships to worker ``shard_id``."""
        return ShardSpec(
            shard_id=shard_id,
            assignment=self.plan.assignment,
            architecture=self.architecture,
            catalog=CatalogTotals(
                self.catalog.num_objects,
                self.catalog.total_bytes,
                self.catalog.mean_size,
            ),
            scheme_name=self.scheme_name,
            config=self.config,
            params=self.params,
            retry=self.retry,
            seed=self.seed,
            host=self.host,
            max_inflight=self.max_inflight,
            rpc_timeout=self.rpc_timeout,
            metrics=self.metrics,
            tracing=(
                TracingConfig(
                    shard_trace_path(self.trace_path, shard_id),
                    sample_every=self.trace_sample_every,
                )
                if self.trace_path is not None
                else None
            ),
        )

    def start(self, timeout: float = 60.0) -> Dict[int, Tuple[str, int]]:
        """Spawn every shard; returns the merged node address map."""
        if self._started:
            raise RuntimeError("sharded cluster already started")
        ctx = multiprocessing.get_context("spawn")
        for shard_id in range(self.plan.num_shards):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_shard_worker_main,
                args=(self.spec(shard_id), child_conn),
                daemon=True,
                name=f"repro-shard-{shard_id}",
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            self._pipes.append(parent_conn)
        try:
            for shard_id, conn in enumerate(self._pipes):
                message = self._recv(conn, shard_id, timeout)
                if message[0] != "addresses":
                    raise RuntimeError(
                        f"shard {shard_id} failed to bind: {message[1]}"
                    )
                self.addresses.update(message[1])
                self.metrics_addresses.update(message[2])
            peers = {
                node: list(address)
                for node, address in self.addresses.items()
            }
            for conn in self._pipes:
                conn.send(("peers", peers))
            for shard_id, conn in enumerate(self._pipes):
                message = self._recv(conn, shard_id, timeout)
                if message[0] != "ready":
                    raise RuntimeError(
                        f"shard {shard_id} failed to install the peer map"
                    )
        except BaseException:
            self._kill()
            raise
        self._started = True
        return dict(self.addresses)

    def ingress_address(self, client_id: int) -> Tuple[str, int]:
        return self.addresses[
            self.architecture.client_nodes[client_id]
        ]

    def stop(self, timeout: float = 30.0) -> Dict[int, dict]:
        """Drain and stop every shard; returns the final per-node stats."""
        if not self._started:
            self._kill()
            return {}
        for conn in self._pipes:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for shard_id, conn in enumerate(self._pipes):
            try:
                message = self._recv(conn, shard_id, timeout)
            except RuntimeError:
                continue  # dead worker: surfaced by the missing stats
            if message[0] == "stats":
                self.final_stats.update(
                    {int(node): entry for node, entry in message[1].items()}
                )
        for process in self._processes:
            process.join(timeout=timeout)
        self._kill()
        self._started = False
        return dict(self.final_stats)

    @staticmethod
    def _recv(conn, shard_id: int, timeout: float):
        if not conn.poll(timeout):
            raise RuntimeError(
                f"shard {shard_id} did not answer within {timeout:.0f}s"
            )
        try:
            message = conn.recv()
        except (EOFError, OSError) as error:
            raise RuntimeError(
                f"shard {shard_id} died before answering"
            ) from error
        if message[0] == "error":
            raise RuntimeError(
                f"shard {shard_id} crashed:\n{message[1]}"
            )
        return message

    def _kill(self) -> None:
        for process in self._processes:
            if process.is_alive():
                # Workers ignore SIGTERM by design (the pipe owns
                # shutdown), so escalate to SIGKILL if one lingers.
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        for conn in self._pipes:
            try:
                conn.close()
            except OSError:
                pass
        self._processes.clear()
        self._pipes.clear()

    def __enter__(self) -> "ShardedCluster":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


async def fetch_stats(
    addresses: Dict[int, Tuple[str, int]]
) -> Dict[int, dict]:
    """Pull ``stats`` frames from a set of live nodes (any transport peer).

    The client-side complement of the workers' final-stats report: lets
    tests and smoke scripts assert on counters (``busy_rejections``,
    ``cross_shard_fwds``, hits/misses) while the fleet is still serving.
    """
    transport = TCPTransport()
    stats: Dict[int, dict] = {}
    try:
        for node_id in sorted(addresses):
            reply = await transport.call(
                addresses[node_id], {"type": MSG_STATS}
            )
            stats[node_id] = reply
    finally:
        await transport.close()
    return stats
