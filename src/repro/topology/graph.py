"""Generic undirected network model.

The paper models a cascaded caching architecture as a graph ``G = (V, E)``
where nodes are caches/origin servers and every link ``(u, v)`` carries a
non-negative cost for shipping a request and its response across it
(section 2).  This module provides that graph: nodes are small integers,
links are undirected and carry a *base delay* -- the delay experienced by an
average-size object (section 3.2).  Object-size-dependent costs are layered
on top by :mod:`repro.costs`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple


class NodeKind(enum.Enum):
    """Role of a node in the topology.

    ``WAN`` nodes form the backbone (no clients or servers attach to them),
    ``MAN`` nodes are edge nodes where clients and origin servers live, and
    ``TREE`` marks nodes of the hierarchical architecture.
    """

    WAN = "wan"
    MAN = "man"
    TREE = "tree"


@dataclass(frozen=True)
class Link:
    """An undirected network link with a base delay in seconds.

    The base delay is the cost of transferring a request plus the response
    for an object of *average* size; actual per-object costs scale with
    object size (see :class:`repro.costs.LatencyCostModel`).
    """

    u: int
    v: int
    delay: float

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"self-loop link at node {self.u}")
        if self.delay < 0:
            raise ValueError(f"negative link delay {self.delay}")

    def endpoints(self) -> Tuple[int, int]:
        """Return the canonical (min, max) endpoint pair."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


class Network:
    """An undirected network of caches and attachment points.

    Nodes are dense integers ``0 .. num_nodes - 1``.  Each node has a
    :class:`NodeKind` and optionally a *level* (used by tree topologies).
    Links are unique per unordered node pair.
    """

    def __init__(self) -> None:
        self._kinds: List[NodeKind] = []
        self._levels: List[int] = []
        self._adjacency: List[Dict[int, float]] = []
        # (u, v) -> delay in both directions: link_delay's one lookup,
        # read directly by LatencyCostModel.link_cost.  Do not mutate;
        # add_link is the only writer.
        self.delays: Dict[Tuple[int, int], float] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, kind: NodeKind, level: int = 0) -> int:
        """Add a node and return its id."""
        self._kinds.append(kind)
        self._levels.append(level)
        self._adjacency.append({})
        return len(self._kinds) - 1

    def add_link(self, u: int, v: int, delay: float) -> Link:
        """Add an undirected link; raises if it already exists."""
        link = Link(u, v, delay)
        self._check_node(u)
        self._check_node(v)
        if v in self._adjacency[u]:
            raise ValueError(f"duplicate link ({u}, {v})")
        self._adjacency[u][v] = delay
        self._adjacency[v][u] = delay
        self.delays[u, v] = delay
        self.delays[v, u] = delay
        return link

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self._kinds):
            raise KeyError(f"unknown node {node}")

    # -- queries -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._kinds)

    @property
    def num_links(self) -> int:
        return sum(len(adj) for adj in self._adjacency) // 2

    def nodes(self) -> range:
        return range(self.num_nodes)

    def kind(self, node: int) -> NodeKind:
        self._check_node(node)
        return self._kinds[node]

    def level(self, node: int) -> int:
        self._check_node(node)
        return self._levels[node]

    def nodes_of_kind(self, kind: NodeKind) -> List[int]:
        return [n for n in self.nodes() if self._kinds[n] is kind]

    def neighbors(self, node: int) -> Iterator[Tuple[int, float]]:
        """Yield (neighbor, delay) pairs for a node."""
        self._check_node(node)
        return iter(self._adjacency[node].items())

    def degree(self, node: int) -> int:
        self._check_node(node)
        return len(self._adjacency[node])

    def has_link(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self._adjacency[u]

    def link_delay(self, u: int, v: int) -> float:
        """Base delay of the link between ``u`` and ``v``.

        Raises ``KeyError`` -- "unknown node" when ``u`` is out of range,
        "no link" otherwise -- only on the miss branch, so a present link
        costs one dict lookup.
        """
        try:
            return self.delays[u, v]
        except KeyError:
            pass
        self._check_node(u)
        raise KeyError(f"no link ({u}, {v})")

    def links(self) -> Iterator[Link]:
        """Yield every link exactly once (u < v)."""
        for u in self.nodes():
            for v, delay in self._adjacency[u].items():
                if u < v:
                    yield Link(u, v, delay)

    def is_connected(self) -> bool:
        """True when every node is reachable from node 0 (or empty)."""
        if self.num_nodes == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self._adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.num_nodes

    def mean_delay(self, kinds: Iterable[NodeKind] | None = None) -> float:
        """Mean base delay over links.

        When ``kinds`` is given, only links whose *higher-kind* endpoint
        classification matches are counted: a link is a WAN link when both
        endpoints are WAN nodes, otherwise it is a MAN(-attachment) link.
        """
        selected = list(kinds) if kinds is not None else None
        total = 0.0
        count = 0
        for link in self.links():
            if selected is not None:
                both_wan = (
                    self._kinds[link.u] is NodeKind.WAN
                    and self._kinds[link.v] is NodeKind.WAN
                )
                link_kind = NodeKind.WAN if both_wan else NodeKind.MAN
                if link_kind not in selected:
                    continue
            total += link.delay
            count += 1
        return total / count if count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Network(nodes={self.num_nodes}, links={self.num_links})"
