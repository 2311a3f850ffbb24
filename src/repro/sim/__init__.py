"""Trace-driven simulation of cascaded caching architectures."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "architecture": (
        "Architecture", "build_enroute_architecture", "build_hierarchical_architecture",
    ),
    "config": ("SimulationConfig",),
    "engine": ("SimulationEngine", "SimulationResult"),
    "factory": ("SCHEME_NAMES", "build_scheme"),
})
