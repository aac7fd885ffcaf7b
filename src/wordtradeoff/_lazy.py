"""Deferred imports, so that a command imports only what it runs.

``analyze`` needs no numpy, while ``stats`` and the statistics do.
:func:`lazy_import` returns a module object at once and executes the module
on its first attribute access (the ``importlib.util.LazyLoader`` recipe of
the standard library documentation).
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_import(name: str) -> ModuleType:
    """The module ``name``, executed on first attribute access.

    A module already in ``sys.modules``, lazy or loaded, is returned as it
    is; its attributes are not touched, which would execute a lazy one.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
