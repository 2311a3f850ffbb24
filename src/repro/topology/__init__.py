"""Network topology models for cascaded caching architectures.

This package provides the network substrate the paper's evaluation runs on:

* :mod:`repro.topology.graph` -- the generic undirected network model with
  per-link base delays.
* :mod:`repro.topology.tiers` -- a Tiers-like random WAN/MAN topology
  generator (en-route caching architecture, paper section 3.2 / Table 1).
* :mod:`repro.topology.tree` -- full O-ary tree topologies with exponentially
  growing level delays (hierarchical caching architecture, Figure 5).
* :mod:`repro.topology.builder` -- convenience builders for hand-crafted
  topologies (chains, stars) used in tests and examples.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "graph": ("Link", "Network", "NodeKind"),
    "builder": ("build_chain", "build_star"),
    "tiers": ("TiersConfig", "TiersTopologyGenerator"),
    "tree": ("TreeConfig", "build_tree_topology"),
})
