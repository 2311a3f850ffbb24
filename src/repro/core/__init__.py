"""The paper's primary contribution: coordinated cascaded-cache management.

* :mod:`repro.core.placement` -- the k-optimization problem and its
  dynamic-programming solution (paper section 2.2).
* :mod:`repro.core.descriptors` -- object descriptors (size, sliding-window
  frequency, miss penalty) shared by main caches and d-caches.
* :mod:`repro.core.piggyback` -- the request/response piggyback records the
  coordinated scheme exchanges along delivery paths (section 2.3), in
  their one (wire) form, and their byte pricing.
* :mod:`repro.core.coordinated` -- the coordinated caching scheme itself.
"""

from repro.core.descriptors import ObjectDescriptor
from repro.core.placement import (
    PlacementProblem,
    PlacementSolution,
    brute_force_placement,
    enforce_monotone_frequencies,
    solve_placement,
)
from repro.core.piggyback import node_report
from repro.core.coordinated import CoordinatedScheme

__all__ = [
    "CoordinatedScheme",
    "ObjectDescriptor",
    "PlacementProblem",
    "PlacementSolution",
    "brute_force_placement",
    "enforce_monotone_frequencies",
    "node_report",
    "solve_placement",
]
