"""Every package's lazy export table stays complete.

A package ``__init__`` names its exports once, in a table resolved on
first access (``repro._exports``), so a misspelt name or module there
would import fine and fail only when someone reads the name.  These
checks read every ``__all__`` name of ``repro`` and each subpackage.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def modules_under(package: str):
    """Every module below ``package`` (imported), without ``__main__``."""
    pkg = importlib.import_module(package)
    for info in pkgutil.walk_packages(pkg.__path__, package + "."):
        if not info.name.endswith("__main__"):
            yield importlib.import_module(info.name)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_resolves_to_its_defining_modules_object(package):
    pkg = importlib.import_module(package)
    assert pkg.__all__, f"{package} exports nothing"
    modules = list(modules_under(package))
    for name in pkg.__all__:
        value = getattr(pkg, name)
        holders = [m for m in modules if getattr(m, name, None) is value]
        assert holders, f"{package}.{name} is held by no submodule"


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_name(package):
    pkg = importlib.import_module(package)
    missing = sorted(set(pkg.__all__) - set(dir(pkg)))
    assert missing == []


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    pkg = importlib.import_module(package)
    assert sorted(set(pkg.__all__) - set(namespace)) == []
    for name in pkg.__all__:
        assert namespace[name] is getattr(pkg, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_raises_naming_the_package(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=repr(package)):
        pkg.no_such_export  # noqa: B018
