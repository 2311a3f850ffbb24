"""Analytical companions to the simulator.

* :mod:`repro.analysis.tree_placement` -- optimal *static* placement of
  one object over an entire distribution tree (the generalization of the
  paper's per-path DP; cf. Li et al. [11] in the paper's references).
  Useful as an offline upper bound for what coordinated per-path
  decisions can achieve.
* :mod:`repro.analysis.che` -- Che's approximation for LRU cache hit
  ratios under independent-reference (Zipf) demand; used to sanity-check
  the simulator's LRU substrate against theory.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "che": (
        "cascade_byte_hit_ratio", "cascade_lru_hit_ratios", "characteristic_time",
        "expected_byte_hit_ratio", "lru_hit_ratios",
    ),
    "static_plan": (
        "greedy_static_plan", "greedy_static_plan_multi_tree", "node_demand_rates",
    ),
    "tree_placement": (
        "TreePlacementProblem", "brute_force_tree_placement", "optimal_tree_placement",
    ),
})
