"""Cache substrate: replacement policies, descriptor caches, estimators.

Main caches are byte-capacity stores of object copies; the auxiliary
*d-cache* (paper section 2.4) stores object descriptors only and is sized
in descriptor count.  Frequency estimation follows the paper's sliding
window of the K most recent reference times (section 3.2).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("Cache", "CacheEntry", "CacheTooSmallError"),
    "lru": ("LRUCache",),
    "lfu": ("LFUCache",),
    "ncl": ("NCLCache",),
    "dcache": ("DescriptorCache",),
    "frequency": ("SlidingWindowFrequencyEstimator",),
})
