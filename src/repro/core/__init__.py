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

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "descriptors": ("ObjectDescriptor",),
    "placement": (
        "PlacementProblem", "PlacementSolution", "brute_force_placement",
        "enforce_monotone_frequencies", "solve_placement",
    ),
    "piggyback": ("node_report",),
    "coordinated": ("CoordinatedScheme",),
})
