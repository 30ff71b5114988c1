"""Package exports resolved on first access (PEP 562).

A package ``__init__`` that re-exports a name from a heavy submodule
(one that pulls in multiprocessing, the cosmology stack or scipy) would
make every importer of the package pay for it.  :func:`lazy_exports`
builds the module-level ``__getattr__``/``__dir__`` pair that imports
the submodule only when the name is first read, then caches the value
in the package namespace so later reads are plain attribute lookups::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "ChunkedCompressor": "repro.compressors.streaming",  # a name in it
        "streaming": "repro.compressors.streaming",  # the submodule itself
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``: each name in
    ``exports`` is read from the module it maps to on first access, or is
    that module when it maps to ``package.name``."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(module)
        if module != f"{package}.{name}":
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
