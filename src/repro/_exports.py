"""Lazy package exports (PEP 562).

A package ``__init__`` declares which submodule defines each exported name::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".config": ("LinkConfig",),
        ...
    })

Importing the package then imports none of those submodules.  The first
access to an exported name (``pkg.LinkConfig``, ``from pkg import
LinkConfig`` or ``from pkg import *``) imports its defining module and caches
the value in the package namespace, so later accesses are plain lookups.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, List, Mapping, Sequence, Tuple


class _ExportsWin(types.ModuleType):
    """A package module on which an export beats the same-named submodule.

    Importing ``pkg.name`` binds the submodule as attribute ``name`` of
    ``pkg``.  Where ``name`` is also an export defined in that submodule
    (``repro.core.throughput``, ``repro.noc.broadcast``) the binding is
    dropped, so the attribute stays the exported function.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, types.ModuleType) and value.__name__ == f"{self.__name__}.{name}" and name in self.__all__:
            return
        super().__setattr__(name, value)


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a submodule, relative to ``package``, to the names it
    defines.  ``__all__`` lists those names in order.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    if any(module == f".{name}" for name, module in origin.items()):
        sys.modules[package].__class__ = _ExportsWin
    return list(origin), __getattr__, __dir__
