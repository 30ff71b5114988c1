"""Pluggable kernel backends for the SZ/ZFP hot paths.

Public surface::

    from repro import kernels

    kernels.call("pack.varlen", codes, lengths)  # dispatch one kernel
    kernels.active()                           # {kernel: resolved tier}
    with kernels.use("numpy"):                 # scoped override
        ...
    kernels.set_backend("native")              # process-wide override

Selection precedence: explicit ``backend=`` argument > :func:`use` /
:func:`set_backend` override > ``REPRO_BACKEND`` env var > ``auto`` (best
available tier per kernel: native > numpy).

The override installed by :func:`use` is **process-global**, not
thread-local, by design: the streaming engine and the service batcher
run codec stages on worker threads, and those must inherit the
selection the owning component installed.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.kernels.registry import (
    BACKEND_ENV,
    TIER_LEVEL,
    TIER_ORDER,
    Backend,
    KernelRegistry,
    REGISTRY,
)

__all__ = [
    "BACKEND_ENV",
    "TIER_LEVEL",
    "TIER_ORDER",
    "Backend",
    "KernelRegistry",
    "REGISTRY",
    "active",
    "call",
    "current_override",
    "last_used",
    "publish_gauges",
    "requested_backend",
    "reset",
    "resolve_name",
    "set_backend",
    "use",
]


def call(kernel, *args, backend=None, **kwargs):
    """Dispatch ``kernel`` through the process registry; ``REGISTRY.call``
    is looked up per call, so an instance attribute can shadow it."""
    return REGISTRY.call(kernel, *args, backend=backend, **kwargs)


active = REGISTRY.active
last_used = REGISTRY.last_used
requested_backend = REGISTRY.requested_backend
set_backend = REGISTRY.set_backend
current_override = REGISTRY.current_override
publish_gauges = REGISTRY.publish_gauges


def resolve_name(kernel: str, backend: str | None = None) -> str:
    """The tier :func:`call` would run ``kernel`` on right now."""
    return REGISTRY.resolve(kernel, backend)[0]


@contextmanager
def use(backend: str | None):
    """Scoped process-wide backend override; ``None`` is a no-op."""
    if backend is None:
        yield
        return
    previous = REGISTRY.current_override()
    REGISTRY.set_backend(backend)
    try:
        yield
    finally:
        REGISTRY.set_backend(previous)


def reset() -> None:
    """Clear probe/tripped/override state (test isolation)."""
    from repro.kernels import native

    REGISTRY.set_backend(None)
    REGISTRY.reset()
    native.reset()
