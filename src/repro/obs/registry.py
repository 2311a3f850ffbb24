"""The per-node cache stat registry.

Where the :class:`~repro.metrics.collector.MetricsCollector` aggregates
the paper's *path-level* measures, the registry keeps one
:class:`NodeStats` counter block per cache node, so a run can answer the
section-4 questions the aggregates cannot: which nodes along the cascade
actually serve hits, where the coordinated DP places copies, which
caches churn, and how much piggybacked control traffic each node
carries.

Counters cover the **whole** replay, warm-up included (like the
interval collector): placement dynamics during warm-up are exactly what
the per-node lens is for.  The registry is fed by the engine (request
outcomes), by per-cache observers (evictions, occupancy, invalidation
removals -- see :mod:`repro.obs.instruments`) and by the coordinated
scheme (piggyback bytes).  It never feeds anything back: an instrumented
run's metrics are bit-identical to an uninstrumented one.
"""

from __future__ import annotations

from typing import Dict, List


class NodeStats:
    """Counters of one cache node (all monotone except the high-water mark).

    ``hits``/``misses`` count lookups at this node on the upstream walk
    (a request missing at three nodes before hitting the fourth
    contributes three misses and one hit).  ``bytes_read`` is the serving
    read; ``bytes_written`` the insertion writes -- the per-node split of
    the paper's aggregate cache read/write load.  ``piggyback_bytes`` is
    the node's share of the coordination protocol's wire overhead (see
    ``docs/protocol.md``).

    The resilience block (``rpc_timeouts``, ``rpc_retries``,
    ``failovers``, ``breaker_trips``) counts what this node *survived*
    while forwarding upstream: deadlines that expired, the retries that
    followed, upstream hops skipped by the walk's failover, and circuit
    breakers tripping open.  All zero on a fault-free run -- which is
    exactly what the empty-plan equivalence oracle asserts.

    The scale-out block: ``busy_rejections`` counts requests this node
    shed under admission control (its inflight bound was hit), and
    ``cross_shard_fwds`` counts upstream forwards that left the node's
    shard -- both zero for an unsharded, unbounded cluster, and always
    zero under sequential replay (one request in flight can never trip
    an inflight bound).
    """

    # The one declaration of the per-node counters: /metrics, the
    # ``--node-stats`` table and the warehouse's ``node_stats`` table are
    # pinned to this tuple, in this order (tests/test_obs_export.py).
    __slots__ = (
        "hits",
        "misses",
        "insertions",
        "evictions",
        "evicted_bytes",
        "bytes_read",
        "bytes_written",
        "occupancy_hwm",
        "piggyback_bytes",
        "dcache_evictions",
        "invalidations",
        "rpc_timeouts",
        "rpc_retries",
        "failovers",
        "breaker_trips",
        "busy_rejections",
        "cross_shard_fwds",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def requests_seen(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        seen = self.requests_seen
        return self.hits / seen if seen else 0.0

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class StatRegistry:
    """Per-node :class:`NodeStats`, plus optional periodic snapshots."""

    def __init__(self) -> None:
        self._nodes: Dict[int, NodeStats] = {}
        self.snapshots: List[dict] = []

    def node(self, node: int) -> NodeStats:
        stats = self._nodes.get(node)
        if stats is None:
            stats = NodeStats()
            self._nodes[node] = stats
        return stats

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: int) -> bool:
        return node in self._nodes

    # -- feeds ---------------------------------------------------------------

    def observe_outcome(self, outcome) -> None:
        """Fold one request outcome into the per-node counters.

        Every node strictly below the serving position missed; the
        serving node (when it is a cache, not the origin) hit and read
        the object; every node the scheme inserted at wrote it.
        """
        path = outcome.path
        hit_index = outcome.hit_index
        size = outcome.size
        nodes = self._nodes
        for i in range(hit_index):
            stats = nodes.get(path[i])
            if stats is None:
                stats = self.node(path[i])
            stats.misses += 1
        if hit_index < len(path) - 1:
            stats = nodes.get(path[hit_index])
            if stats is None:
                stats = self.node(path[hit_index])
            stats.hits += 1
            stats.bytes_read += size
        for node in outcome.inserted_nodes:
            stats = nodes.get(node)
            if stats is None:
                stats = self.node(node)
            stats.insertions += 1
            stats.bytes_written += size

    def record_eviction(self, node: int, victims: int, freed_bytes: int) -> None:
        stats = self.node(node)
        stats.evictions += victims
        stats.evicted_bytes += freed_bytes

    def record_dcache_eviction(self, node: int, victims: int) -> None:
        self.node(node).dcache_evictions += victims

    def record_occupancy(self, node: int, used_bytes: int) -> None:
        stats = self.node(node)
        if used_bytes > stats.occupancy_hwm:
            stats.occupancy_hwm = used_bytes

    def record_invalidation(self, node: int) -> None:
        self.node(node).invalidations += 1

    def add_piggyback(self, node: int, nbytes: int) -> None:
        self.node(node).piggyback_bytes += nbytes

    # -- readouts ------------------------------------------------------------

    def snapshot(self) -> Dict[int, dict]:
        """Current counters of every node, in node order."""
        return {
            node: self._nodes[node].to_dict() for node in sorted(self._nodes)
        }

    def take_snapshot(self, request_index: int) -> dict:
        """Record (and return) a point-in-time snapshot of all nodes."""
        snap = {"request_index": request_index, "nodes": self.snapshot()}
        self.snapshots.append(snap)
        return snap

    def total(self, field: str) -> int:
        """Sum of one counter across all nodes (used by tests/exports)."""
        return sum(getattr(stats, field) for stats in self._nodes.values())
