"""Lazy package re-exports (PEP 562).

Each package ``__init__`` of :mod:`repro` names the module that defines each
of its public names instead of importing them all::

    __all__ = lazy_exports(__name__, {
        "SiteValues": ".values",
        "Strategy": ".strategy",
    })

A defining module is imported the first time one of its names is read from
the package, so ``import repro.batch.padding`` (or the server) runs only the
modules it needs, not every sibling in the package.  ``from package import
*``, ``dir()`` and plain attribute access all see the same names, bound to
the defining modules' own objects.
"""

from __future__ import annotations

import importlib.util
import sys
from typing import Mapping

__all__ = ["lazy_exports"]


def lazy_exports(package: str, origins: Mapping[str, str]) -> list[str]:
    """Install ``__getattr__``/``__dir__`` on ``package``; return its ``__all__``.

    ``origins`` maps each exported name, in ``__all__`` order, to the module
    that defines it, absolute or relative to ``package``.  A resolved name is
    cached in the package namespace, so later reads are plain lookups.

    A name that is also its defining submodule's name (``repro.core.coverage``
    defines ``coverage``) is bound now: once that submodule is imported the
    import system sets the package attribute to the module, so a lazy
    ``__getattr__`` would never run for it.
    """
    namespace = vars(sys.modules[package])
    resolve = importlib.util.resolve_name
    modules = {name: resolve(module, package) for name, module in origins.items()}

    def __getattr__(name: str) -> object:
        try:
            module = modules[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(modules))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    for name, module in modules.items():
        if module == f"{package}.{name}":
            __getattr__(name)
    return list(origins)
