"""A static (pre-provisioned) placement scheme.

Holds a fixed assignment of object copies to caches and never changes it:
no insertions, no evictions.  Useful as the evaluation vehicle for
*offline* placement plans (e.g. the tree-DP oracle in
:mod:`repro.analysis.static_plan`) and as a degenerate baseline.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.cache.base import Cache
from repro.cache.descriptors import ObjectDescriptor
from repro.cache.lru import LRUCache
from repro.costs.model import CostModel
from repro.schemes.base import CachingScheme
from repro.workload.catalog import ObjectCatalog


class StaticPlacementScheme(CachingScheme):
    """Serve requests from a fixed placement; cache contents never change."""

    name = "static"

    def __init__(
        self,
        cost_model: CostModel,
        capacity_bytes: int,
        placements: Dict[int, Iterable[int]],
        catalog: ObjectCatalog,
        enforce_capacity: bool = True,
    ) -> None:
        super().__init__(cost_model, capacity_bytes)
        for node, object_ids in placements.items():
            cache = self.cache_at(node)
            for object_id in object_ids:
                descriptor = ObjectDescriptor(object_id, catalog.size(object_id))
                if enforce_capacity and descriptor.size > cache.free_bytes:
                    raise ValueError(
                        f"placement overflows node {node}: object {object_id} "
                        f"needs {descriptor.size} B, {cache.free_bytes} B free"
                    )
                cache.insert(descriptor, now=0.0)

    def _new_cache(self, node: int) -> Cache:
        # Replacement never runs; any concrete cache type will do.
        return LRUCache(self.capacity_for(node))

    def _placement_indices(
        self, path: Sequence[int], hit_index: int
    ) -> List[int]:
        """Nothing is ever placed: the assignment is fixed."""
        return []
