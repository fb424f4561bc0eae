"""Package hubs that import a re-exported name on first access (PEP 562).

A hub ``__init__`` re-exports names from its submodules.  Importing them
all up front makes ``import repro.storage.sqlite`` load every sibling of
every hub above it — the simulated web, the crypto layer, numpy — into a
process that calls none of them.  :func:`lazy_exports` takes a hub's one
table, submodule → names, and returns the hub's ``__all__`` and
``__getattr__``: a name's submodule is imported the first
time the name is read, and the value is then bound on the hub, so
``from repro import X``, ``repro.X`` and ``from repro import *`` see what
an eager import bound.  This module imports nothing from the package.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    hub: str, table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any]]:
    """``(__all__, __getattr__)`` for the hub named ``hub``.

    ``table`` maps a submodule, relative to the hub (``".sheriff"``), to
    the names the hub takes from it.  A name that is the submodule's own
    name (``{".registry": ["registry"]}``) stands for the submodule.
    """
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {hub!r} has no attribute {name!r}")
        owner = importlib.import_module(module, hub)
        value = owner if owner.__name__ == f"{hub}.{name}" else getattr(owner, name)
        setattr(sys.modules[hub], name, value)
        return value

    return list(home), __getattr__
