"""Cascaded caching architectures: topology + attachment + routing.

An :class:`Architecture` bundles everything request routing needs: the
network, per-root distribution trees, and the attachment of the workload's
clients and origin servers to network nodes.

* **En-route** (paper section 3.2): Tiers-like WAN/MAN topology; clients
  and servers attach to random MAN nodes (the WAN is a pure backbone);
  distribution trees are shortest-path trees rooted at server nodes.
* **Hierarchical** (section 3.2, Figure 5): full O-ary cache tree; clients
  attach to random leaves; every origin server sits behind the root via
  the dedicated server attachment node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.routing.distribution_tree import RoutingTable
from repro.topology.graph import Network, NodeKind

if TYPE_CHECKING:
    from repro.topology.tiers import TiersConfig
    from repro.topology.tree import TreeConfig


@dataclass(frozen=True)
class Architecture:
    """A network with client/server attachment and routing state.

    ``non_cache_nodes`` marks nodes that never host a cache -- the
    hierarchical architecture's dedicated origin-server attachment point;
    empty for en-route, where every network node carries a cache.
    """

    name: str
    network: Network
    routing: RoutingTable
    client_nodes: Dict[int, int]
    server_nodes: Dict[int, int]
    non_cache_nodes: frozenset = frozenset()

    def request_path(self, client_id: int, server_id: int) -> List[int]:
        """Delivery path ``[client_node, ..., server_node]`` for a request."""
        return self.routing.request_path(
            self.client_nodes[client_id], self.server_nodes[server_id]
        )

    @property
    def cache_nodes(self) -> List[int]:
        """Nodes that host caches."""
        return [
            n for n in self.network.nodes() if n not in self.non_cache_nodes
        ]

    def mean_client_server_hops(self) -> float:
        """Average routing-path length over the attached populations."""
        clients = sorted(set(self.client_nodes.values()))
        servers = sorted(set(self.server_nodes.values()))
        return self.routing.mean_path_hops(clients, servers)


def build_enroute_architecture(
    num_clients: int,
    num_servers: int,
    tiers_config: TiersConfig | None = None,
    seed: int = 0,
) -> Architecture:
    """En-route architecture: random MAN attachment over a Tiers topology."""
    if num_clients < 1 or num_servers < 1:
        raise ValueError("need at least one client and one server")
    import numpy as np

    from repro.topology.tiers import TiersConfig, TiersTopologyGenerator

    cfg = tiers_config or TiersConfig(seed=seed)
    network = TiersTopologyGenerator(cfg).generate()
    man_nodes = network.nodes_of_kind(NodeKind.MAN)
    if not man_nodes:
        raise ValueError("topology has no MAN nodes to attach to")
    rng = np.random.default_rng(seed + 17)
    client_nodes = {
        c: int(man_nodes[rng.integers(len(man_nodes))]) for c in range(num_clients)
    }
    server_nodes = {
        s: int(man_nodes[rng.integers(len(man_nodes))]) for s in range(num_servers)
    }
    return Architecture(
        name="en-route",
        network=network,
        routing=RoutingTable(network),
        client_nodes=client_nodes,
        server_nodes=server_nodes,
    )


def level_capacity_overrides(
    network: Network,
    base_capacity: int,
    level_multipliers: Dict[int, float],
) -> Dict[int, int]:
    """Per-node capacities from per-level multipliers, budget-preserving.

    Extension beyond the paper's uniform sizing (section 3.2): scale each
    tree level's cache by a multiplier, then renormalize so the *total*
    installed capacity equals ``base_capacity * num_nodes`` -- making
    capacity-distribution comparisons budget-fair.  Levels absent from
    ``level_multipliers`` keep multiplier 1.
    """
    if base_capacity < 0:
        raise ValueError("base_capacity must be non-negative")
    if any(m < 0 for m in level_multipliers.values()):
        raise ValueError("multipliers must be non-negative")
    nodes = list(network.nodes())
    raw = {
        node: base_capacity * level_multipliers.get(network.level(node), 1.0)
        for node in nodes
    }
    total_raw = sum(raw.values())
    budget = base_capacity * len(nodes)
    if total_raw == 0:
        return {node: 0 for node in nodes}
    scale = budget / total_raw
    return {node: int(value * scale) for node, value in raw.items()}


def build_hierarchical_architecture(
    num_clients: int,
    num_servers: int,
    tree_config: TreeConfig | None = None,
    seed: int = 0,
) -> Architecture:
    """Hierarchical architecture: clients at random leaves, servers above the root."""
    if num_clients < 1 or num_servers < 1:
        raise ValueError("need at least one client and one server")
    import numpy as np

    from repro.topology.tree import TreeConfig, build_tree_topology

    cfg = tree_config or TreeConfig()
    if not cfg.include_server_node:
        raise ValueError("hierarchical architecture needs the server node")
    topology = build_tree_topology(cfg)
    rng = np.random.default_rng(seed + 29)
    leaves: Sequence[int] = topology.leaves
    client_nodes = {
        c: int(leaves[rng.integers(len(leaves))]) for c in range(num_clients)
    }
    server_nodes = {s: topology.server_node for s in range(num_servers)}
    return Architecture(
        name="hierarchical",
        network=topology.network,
        routing=RoutingTable(topology.network),
        client_nodes=client_nodes,
        server_nodes=server_nodes,
        non_cache_nodes=frozenset({topology.server_node}),
    )
