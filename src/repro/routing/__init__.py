"""Routing substrate: shortest paths and per-server distribution trees.

In the paper, the propagation paths of cache misses for a given origin
server form a tree rooted at that server (section 2); for the en-route
architecture these are shortest-path trees over the network (section 3.2).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "shortest_path": ("dijkstra",),
    "distribution_tree": ("DistributionTree", "RoutingTable"),
})
