"""Shared base for descriptor-driven schemes (LNC-R, Coordinated).

Owns the per-node :class:`~repro.schemes.node_state.DescriptorNode` map
(main NCL cache + d-cache) and descriptor-aware invalidation: dropping a
copy keeps its access statistics by moving the descriptor to the d-cache.
"""

from __future__ import annotations

from typing import Dict

from repro.cache.base import Cache
from repro.costs.model import CostModel
from repro.schemes.base import CachingScheme
from repro.schemes.node_state import DescriptorNode


class DescriptorSchemeBase(CachingScheme):
    """Scheme whose nodes pair an NCL main cache with a d-cache."""

    def __init__(
        self,
        cost_model: CostModel,
        capacity_bytes: int,
        dcache_entries: int,
        dcache_policy: str = "lfu",
        ncl_structure: str = "list",
        capacity_overrides: dict | None = None,
    ) -> None:
        super().__init__(cost_model, capacity_bytes, capacity_overrides)
        if dcache_entries < 0:
            raise ValueError("dcache_entries must be non-negative")
        self.dcache_entries = dcache_entries
        self.dcache_policy = dcache_policy
        self.ncl_structure = ncl_structure
        self._nodes: Dict[int, DescriptorNode] = {}

    def node_state(self, node: int) -> DescriptorNode:
        """The node's cache/d-cache pair, created on first use."""
        state = self._nodes.get(node)
        if state is None:
            state = DescriptorNode(
                self.capacity_for(node),
                self.dcache_entries,
                self.dcache_policy,
                self.ncl_structure,
            )
            self._nodes[node] = state
            # Register the main cache with the base-class map so shared
            # helpers (has_object, invalidation, invariants) see it.
            self._caches[node] = state.cache
            self._wire_cache(node, state.cache)
            if self._instruments is not None:
                state.dcache.observer = self._instruments.dcache_observer(node)
        return state

    def attach_instruments(self, instruments) -> None:
        """Wire main caches (via the base class) and d-caches alike."""
        super().attach_instruments(instruments)
        for node, state in self._nodes.items():
            state.dcache.observer = (
                instruments.dcache_observer(node)
                if instruments is not None
                else None
            )

    def _new_cache(self, node: int) -> Cache:
        # Cache construction flows through node_state(); reaching this
        # method directly would bypass the d-cache pairing.
        return self.node_state(node).cache

    def cache_at(self, node: int) -> Cache:
        return self.node_state(node).cache

    def invalidate_object(self, object_id: int) -> int:
        """Drop copies but keep statistics: descriptors fall to d-caches."""
        removed = 0
        for state in self._nodes.values():
            entry = state.cache.remove(object_id)
            if entry is not None:
                state.dcache.insert(entry.descriptor)
                removed += 1
        return removed

    def invalidate_step(self, node: int, object_id: int) -> int:
        """Per-node invalidation: the dropped copy's descriptor survives."""
        state = self._nodes.get(node)
        if state is None:
            return 0
        entry = state.cache.remove(object_id)
        if entry is None:
            return 0
        state.dcache.insert(entry.descriptor)
        return 1

    def check_invariants(self) -> None:
        for state in self._nodes.values():
            state.check_invariants()
