"""Lazy package re-exports (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` the names it
re-exports, grouped by defining module.  A name's module is imported on
the first read of that name, so importing a package (or any of its
submodules) costs only what the importer uses.  The package keeps the
names visible to static tools under ``if TYPE_CHECKING:``.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable, Mapping, Sequence

#: package name -> {re-exported name: its defining module}
_TABLES: dict[str, dict[str, str]] = {}


class _LazyPackage(types.ModuleType):
    """A package whose re-exports win over their namesake submodules.

    Importing ``pkg.f`` sets ``pkg.f`` to the submodule.  When ``pkg``
    re-exports a function ``f`` from it, an eager ``from pkg.f import f``
    in ``__init__`` would have replaced the submodule with the function,
    and so does this.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        module = _TABLES[self.__name__].get(name)
        if isinstance(value, types.ModuleType) and value.__name__ == module:
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """The PEP 562 ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``.

    ``exports`` maps each defining module to the names ``package``
    re-exports from it.  A resolved name is stored on the package, so
    later reads skip the hook.
    """
    table = {name: module for module, names in exports.items() for name in names}
    _TABLES[package] = table
    namespace = sys.modules[package]
    namespace.__class__ = _LazyPackage

    def __getattr__(name: str) -> Any:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(namespace, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(namespace), *table})

    return __getattr__, __dir__, list(table)
