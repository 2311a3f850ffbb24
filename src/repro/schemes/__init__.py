"""Caching schemes: the paper's baselines plus the shared scheme interface.

The coordinated scheme itself lives in :mod:`repro.core.coordinated`; the
baselines of paper section 3.3 live here:

* :class:`LRUEverywhereScheme` -- cache at every node on the delivery
  path, evict least-recently-used.
* :class:`ModuloScheme` -- LRU replacement, but place copies only at nodes
  a fixed *cache radius* of hops apart [Bhattacharjee et al. 1998].
* :class:`LNCRScheme` -- cache everywhere, evict by least normalized cost
  loss [Scheuermann et al. 1997].
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("CachingScheme", "RequestOutcome"),
    "descriptor_scheme": ("DescriptorSchemeBase",),
    "extra_baselines": ("AdmissionLRUScheme", "GDSScheme", "LFUEverywhereScheme"),
    "lru_everywhere": ("LRUEverywhereScheme",),
    "modulo": ("ModuloScheme",),
    "lncr": ("LNCRScheme",),
})
