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
    """Dispatch ``kernel`` through the process registry."""
    return REGISTRY.call(kernel, *args, backend=backend, **kwargs)


def resolve_name(kernel: str, backend: str | None = None) -> str:
    """The tier :func:`call` would run ``kernel`` on right now."""
    return REGISTRY.resolve(kernel, backend)[0]


def active(backend: str | None = None) -> dict[str, str]:
    """Resolved backend per kernel under the current selection."""
    return REGISTRY.active(backend)


def last_used() -> dict[str, str]:
    """Backend that actually served the most recent call, per kernel."""
    return REGISTRY.last_used()


def requested_backend() -> str:
    """The tier this process is asking for (override > env > auto)."""
    return REGISTRY.requested_backend()


def set_backend(backend: str | None) -> None:
    """Install a process-wide backend override (``None`` clears it)."""
    REGISTRY.set_backend(backend)


def current_override() -> str | None:
    return REGISTRY.current_override()


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


def publish_gauges(tm=None) -> dict[str, str]:
    """Export ``kernels.backend{stage=...}`` gauges; returns the mapping."""
    return REGISTRY.publish_gauges(tm)


def reset() -> None:
    """Clear probe/tripped/override state (test isolation)."""
    from repro.kernels import native

    REGISTRY.set_backend(None)
    REGISTRY.reset()
    native.reset()
