"""Lazy package re-exports (PEP 562).

A package ``__init__`` lists its public names by defining submodule and
hands the map to :func:`lazy_exports`; nothing is imported until a name
is first read.  A process-pool worker that unpickles one backend then
loads the modules that backend uses and no others.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> tuple[list[str], Callable[[str], Any],
                            Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each submodule (relative name) to the public names
    it defines.  A name resolves on first access by importing its
    submodule and is then cached on the package, so later reads never
    reach ``__getattr__``; a submodule named in the map resolves to the
    submodule itself.
    """
    owner = {name: sub for sub, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name in owner:
            value = getattr(import_module(f"{package}.{owner[name]}"), name)
        elif name in exports:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owner))

    return sorted(owner), __getattr__, __dir__
