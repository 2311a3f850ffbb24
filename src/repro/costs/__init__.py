"""Cost models: the paper's generic link cost ``c(u, v, O)``."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "model": ("BandwidthCostModel", "CostModel", "HopCostModel", "LatencyCostModel"),
})
