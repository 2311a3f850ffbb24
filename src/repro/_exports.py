"""Lazy package exports: the one rule for a package ``__init__``.

A package lists the names it re-exports, once, in a table mapping each
submodule to the names it defines.  Nothing is imported until a name is
first read (PEP 562 ``__getattr__``); the value is then cached in the
package's globals, so later reads are plain attribute lookups.
Importing one submodule therefore loads only what that submodule itself
imports -- a shard worker never pays for numpy, sqlite or the
experiment harness it does not run.  Code inside the package imports
from the defining module, never through these tables.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps a submodule path (relative to ``package``, e.g.
    ``"cache.lru"`` under ``repro``) to the names it exports.
    """
    home: Dict[str, str] = {
        name: f"{package}.{module}"
        for module, names in table.items()
        for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return list(home), __getattr__, __dir__
