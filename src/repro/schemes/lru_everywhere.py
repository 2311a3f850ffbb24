"""The LRU baseline: cache everywhere, evict least-recently-used.

Paper section 3.3: "The requested object is cached by every node through
which the object passes.  If there is not enough free space, the cache
purges one or more least recently referenced objects."  No d-cache is
used.
"""

from __future__ import annotations

from repro.cache.base import Cache
from repro.cache.lru import LRUCache
from repro.schemes.base import CachingScheme


class LRUEverywhereScheme(CachingScheme):
    """Place at every on-path cache below the serving node; LRU replacement.

    Placement (:meth:`_placement_indices`, everything below the hit) and
    insertion (:meth:`_insert_at`, fresh-descriptor LRU insert) are the
    base-class hooks of the default protocol steps, so the scheme is
    nothing but its cache type.
    """

    name = "lru"

    def _new_cache(self, node: int) -> Cache:
        return LRUCache(self.capacity_for(node))
