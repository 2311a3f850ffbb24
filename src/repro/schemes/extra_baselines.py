"""Additional baselines from the paper's related-work space (section 5).

These are not part of the paper's evaluation but round out the baseline
family for downstream users and for the extended-comparison bench:

* :class:`LFUEverywhereScheme` -- cache everywhere, evict least
  frequently used (the other classic page-replacement extension [19]).
* :class:`GDSScheme` -- cache everywhere, GreedyDual-Size(-Popularity)
  replacement [8]; cost = immediate upstream link, like LNC-R.
* :class:`AdmissionLRUScheme` -- LRU with an admission filter in the
  spirit of Aggarwal et al. [2]: an object enters a cache only on its
  second request within a bounded history window, keeping one-hit
  wonders out.  (Placement and replacement are still per-cache only; it
  exists to show admission control alone does not close the gap to
  coordinated management.)
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Sequence

from repro.cache.base import Cache, CacheTooSmallError
from repro.cache.descriptors import ObjectDescriptor
from repro.cache.gds import GDSCache
from repro.cache.lfu import LFUCache
from repro.cache.lru import LRUCache
from repro.costs.model import CostModel
from repro.schemes.base import CachingScheme
from repro.schemes.lru_everywhere import LRUEverywhereScheme


class LFUEverywhereScheme(LRUEverywhereScheme):
    """Place at every on-path cache; LFU replacement."""

    name = "lfu"

    def _new_cache(self, node: int) -> Cache:
        return LFUCache(self.capacity_for(node))


class GDSScheme(CachingScheme):
    """Place everywhere; GreedyDual-Size(-Popularity) replacement."""

    def __init__(
        self,
        cost_model: CostModel,
        capacity_bytes: int,
        popularity_aware: bool = True,
        capacity_overrides: dict | None = None,
    ) -> None:
        super().__init__(cost_model, capacity_bytes, capacity_overrides)
        self.popularity_aware = popularity_aware
        self.name = "gdsp" if popularity_aware else "gds"

    def _new_cache(self, node: int) -> Cache:
        return GDSCache(self.capacity_for(node), self.popularity_aware)

    def _insert_at(
        self, index: int, path: Sequence[int], object_id: int, size: int, now: float
    ):
        """GDS insertion: cost = immediate upstream link, reference recorded."""
        cache = self.cache_at(path[index])
        upstream_cost = self.cost_model.link_cost(
            path[index], path[index + 1], size
        )
        descriptor = ObjectDescriptor.referenced(object_id, size, upstream_cost, now)
        try:
            return cache.insert(descriptor, now)
        except CacheTooSmallError:
            return None


class AdmissionLRUScheme(CachingScheme):
    """LRU replacement with a second-hit admission filter per node."""

    name = "admission-lru"

    def __init__(
        self,
        cost_model: CostModel,
        capacity_bytes: int,
        history_entries: int = 1024,
        capacity_overrides: dict | None = None,
    ) -> None:
        super().__init__(cost_model, capacity_bytes, capacity_overrides)
        if history_entries < 1:
            raise ValueError("history_entries must be >= 1")
        self.history_entries = history_entries
        self._history: Dict[int, "OrderedDict[int, None]"] = {}

    def _new_cache(self, node: int) -> Cache:
        return LRUCache(self.capacity_for(node))

    def _seen_before(self, node: int, object_id: int) -> bool:
        """Record the sighting; report whether it was already in history."""
        history = self._history.setdefault(node, OrderedDict())
        if object_id in history:
            history.move_to_end(object_id)
            return True
        history[object_id] = None
        if len(history) > self.history_entries:
            history.popitem(last=False)
        return False

    # The admission hook is the deliver-step filter: history is
    # node-local, so it is consulted as the response unwinds through the
    # node, and a refusal leaves the node chosen but not inserted.
    _admit = _seen_before
