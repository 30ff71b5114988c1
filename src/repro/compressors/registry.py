"""Name-based compressor registry used by Foresight JSON configs."""

from __future__ import annotations

import inspect
from typing import Any, Callable

from repro.compressors.base import Compressor
from repro.errors import ConfigError

_REGISTRY: dict[str, Callable[..., Compressor]] = {}


def register_compressor(name: str, factory: Callable[..., Compressor]) -> None:
    """Register ``factory`` under ``name`` (case-insensitive)."""
    key = name.lower()
    if key in _REGISTRY:
        raise ConfigError(f"compressor {name!r} already registered")
    _REGISTRY[key] = factory


def get_compressor(name: str, **kwargs: Any) -> Compressor:
    """Instantiate a registered compressor by name.

    Options the factory does not take are a :class:`ConfigError` naming
    them — they arrive from JSON configs and from the wire, where a
    ``TypeError`` would read as a bug in the daemon.
    """
    key = name.lower()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown compressor {name!r}; known: {known}")
    factory = _REGISTRY[key]
    try:
        return factory(**kwargs)
    except TypeError as exc:
        accepted = list(inspect.signature(factory).parameters)
        rejected = sorted(set(kwargs) - set(accepted))
        raise ConfigError(
            f"compressor {name!r} does not accept option(s) "
            f"{', '.join(rejected) or exc}; accepted: "
            f"{', '.join(accepted) or 'none'}"
        ) from exc


def available_compressors() -> list[str]:
    """Sorted names of all registered compressors."""
    return sorted(_REGISTRY)


def is_registered(name: str) -> bool:
    """Whether ``name`` (any case) names a registered compressor."""
    return name.lower() in _REGISTRY


def _register_builtins() -> None:
    # Imported lazily to avoid import cycles at package init.
    from repro.compressors.store import StoreCompressor
    from repro.compressors.sz import GPUSZ, SZCompressor
    from repro.compressors.temporal import TemporalCompressor
    from repro.compressors.zfp import CuZFP, ZFPCompressor

    register_compressor("sz", SZCompressor)
    register_compressor("gpu-sz", GPUSZ)
    register_compressor("zfp", ZFPCompressor)
    register_compressor("cuzfp", CuZFP)
    register_compressor("store", StoreCompressor)
    register_compressor("temporal", TemporalCompressor)


_register_builtins()
