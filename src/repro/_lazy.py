"""Lazy package re-exports (PEP 562).

A package ``__init__`` lists its public names in one ``{name: module}``
table and binds what :func:`lazy_exports` returns::

    __getattr__, __dir__ = lazy_exports(__name__, {"Network": "network"})

The first access to a name imports its module (relative to the
package) and caches the value in the package's globals, so importing a
package loads none of its modules and every later lookup is a plain
dict hit.  A name mapped to ``None`` is the submodule of that name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Optional, Tuple


def lazy_exports(
    package: str, table: Dict[str, Optional[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` serving ``table`` for ``package``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if module is None:
            value: object = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    # A name defined in a module of the same name is bound now: importing
    # that module later would bind the module itself over the name.
    for name, module in table.items():
        if module == name:
            __getattr__(name)
    return __getattr__, __dir__
