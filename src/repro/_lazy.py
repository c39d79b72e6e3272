"""Lazy package re-exports (PEP 562).

A package ``__init__`` that imported every submodule it re-exports
would make ``import repro.core.device`` pay for the whole package, and
the native plane would load the simulation plane and NumPy just by
being imported.  Instead each package hands :func:`lazy_exports` the
names it re-exports, grouped by the submodule that defines them: a
name's submodule is imported on its first access, and the value is
then cached in the package namespace, so later reads are plain
attribute lookups.  A ``TYPE_CHECKING`` block in the package repeats
the imports for type checkers.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``, whose
    ``exports`` map a submodule to the names it provides."""
    namespace = sys.modules[package].__dict__
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__
