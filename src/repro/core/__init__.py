"""The paper's primary contribution: coordinated cascaded-cache management.

* :mod:`repro.core.placement` -- the k-optimization problem and its
  dynamic-programming solution (paper section 2.2).
* :mod:`repro.core.descriptors` -- object descriptors (size, sliding-window
  frequency, miss penalty) shared by main caches and d-caches.
* :mod:`repro.core.piggyback` -- the request/response piggyback records the
  coordinated scheme exchanges along delivery paths (section 2.3).
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
from repro.core.piggyback import NodeReport
from repro.core.coordinated import CoordinatedScheme

__all__ = [
    "CoordinatedScheme",
    "NodeReport",
    "ObjectDescriptor",
    "PlacementProblem",
    "PlacementSolution",
    "brute_force_placement",
    "enforce_monotone_frequencies",
    "solve_placement",
]
