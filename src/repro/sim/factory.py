"""Scheme construction by name.

Central registry used by the experiment runner, the CLI and the examples;
scheme-specific parameters (e.g. MODULO's cache radius) are keyword
arguments.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.coordinated import CoordinatedScheme
from repro.costs.model import CostModel
from repro.schemes.adaptive import AdaptiveScheme
from repro.schemes.base import CachingScheme
from repro.schemes.costaware import CostAwareScheme
from repro.schemes.extra_baselines import (
    AdmissionLRUScheme,
    GDSScheme,
    LFUEverywhereScheme,
)
from repro.schemes.lncr import LNCRScheme
from repro.schemes.lru_everywhere import LRUEverywhereScheme
from repro.schemes.modulo import ModuloScheme


def _builder(
    scheme_type: type, descriptors: bool = False, **own_defaults
) -> Callable[..., CachingScheme]:
    """A registry builder for one scheme class.

    Every scheme takes ``capacity_overrides``; the descriptor schemes
    (NCL main cache + d-cache) also take ``dcache_entries``,
    ``dcache_policy`` and ``ncl_structure``; ``own_defaults`` names the
    scheme's own keywords with their defaults.  Keywords a scheme does
    not know are ignored, so one parameter set can build any scheme.
    """
    defaults = dict(own_defaults, capacity_overrides=None)
    if descriptors:
        defaults.update(dcache_policy="lfu", ncl_structure="list")

    def build(
        cost_model: CostModel, capacity: int, dcache_entries: int, **params
    ) -> CachingScheme:
        keywords = {key: params.get(key, value) for key, value in defaults.items()}
        if descriptors:
            return scheme_type(cost_model, capacity, dcache_entries, **keywords)
        return scheme_type(cost_model, capacity, **keywords)

    return build


_REGISTRY: Dict[str, Callable[..., CachingScheme]] = {}


def register_scheme(name: str, builder: Callable[..., CachingScheme]) -> None:
    """Add a scheme builder to the registry; names must be unique."""
    if name in _REGISTRY:
        raise ValueError(f"duplicate scheme registration: {name!r}")
    _REGISTRY[name] = builder


register_scheme("lru", _builder(LRUEverywhereScheme))
register_scheme("modulo", _builder(ModuloScheme, radius=4))
register_scheme("lnc-r", _builder(LNCRScheme, descriptors=True))
register_scheme("coordinated", _builder(CoordinatedScheme, descriptors=True))
register_scheme("adaptive", _builder(AdaptiveScheme, descriptors=True, step_size=0.5))
register_scheme("costaware", _builder(CostAwareScheme, descriptors=True))
register_scheme("lfu", _builder(LFUEverywhereScheme))
register_scheme("gds", _builder(GDSScheme, popularity_aware=True))
register_scheme("admission-lru", _builder(AdmissionLRUScheme, history_entries=1024))

SCHEME_NAMES = tuple(_REGISTRY)


def build_scheme(
    name: str,
    cost_model: CostModel,
    capacity_bytes: int,
    dcache_entries: int,
    **params,
) -> CachingScheme:
    """Build a scheme by registry name (see :data:`SCHEME_NAMES`)."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; expected one of {sorted(_REGISTRY)}"
        ) from None
    return builder(cost_model, capacity_bytes, dcache_entries, **params)
