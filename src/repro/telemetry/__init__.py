"""repro.telemetry — zero-dependency observability for the compression stack.

One facade, two implementations:

* :class:`Telemetry` — a live :class:`~repro.telemetry.spans.Tracer` plus
  a :class:`~repro.telemetry.metrics.MetricsRegistry`.
* :class:`NullTelemetry` — the process-wide default.  Every call is a
  no-op (`span()` hands back one shared, reusable context manager), so
  instrumented hot paths cost a method call and nothing else when
  observability is off.

Usage::

    from repro import telemetry

    tm = telemetry.enable()                 # swap in a live Telemetry
    ... run a CBench sweep ...
    telemetry.export.write_jsonl("trace.jsonl", tm.tracer.finished_spans())
    telemetry.disable()                     # back to the free default

    python -m repro.telemetry report trace.jsonl   # per-stage table

Instrumented modules fetch the active instance *per call*
(``telemetry.get_telemetry()``), so enabling after import works.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.telemetry import context, metrics, process, spans  # noqa: F401 (re-export)
from repro.telemetry.context import TraceContext
from repro.telemetry.metrics import (
    DEFAULT_BIT_BUCKETS,
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_MS_BUCKETS,
    Bound,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.process import current_rss_bytes, peak_rss_bytes
from repro.telemetry.spans import Span, Tracer
from repro.util.lazy import lazy_exports

# Trace files, Prometheus text and reports are for whoever writes them;
# the codecs only record spans.
__getattr__, __dir__ = lazy_exports(__name__, {
    name: f"repro.telemetry.{name}" for name in ("export", "exposition", "report")
})

__all__ = [
    "peak_rss_bytes",
    "current_rss_bytes",
    "Telemetry",
    "NullTelemetry",
    "Tracer",
    "Span",
    "TraceContext",
    "MetricsRegistry",
    "Bound",
    "Counter",
    "Gauge",
    "Histogram",
    "get_telemetry",
    "set_telemetry",
    "enable",
    "disable",
    "enabled_telemetry",
    "DEFAULT_BIT_BUCKETS",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_MS_BUCKETS",
]


class Telemetry:
    """Live telemetry: tracer + metrics behind one handle.

    The instrumentation surface (``span``, ``count``, ``set_gauge``,
    ``observe``, ``observe_many``) is the tracer's and the registry's own
    bound methods, so an instrumented call pays no facade frame.
    """

    enabled = True

    def __init__(
        self, name: str = "repro", max_finished: int | None = None
    ) -> None:
        self.tracer = Tracer(name, max_finished=max_finished)
        self.metrics = MetricsRegistry()
        self.span = self.tracer.span
        self.count = self.metrics.count
        self.set_gauge = self.metrics.set_gauge
        self.observe = self.metrics.observe
        self.observe_many = self.metrics.observe_many

    def trace(self, name: str | None = None, **attrs: Any) -> Callable:
        return self.tracer.trace(name, **attrs)

    def clear(self) -> None:
        self.tracer.clear()
        self.metrics.clear()


class _NullContext:
    """Shared no-op context manager; also a degenerate no-op Span stand-in."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    # Span-ish surface so `with tm.span(...) as sp: sp.attrs[...]` works
    # unchanged when telemetry is off.
    @property
    def attrs(self) -> dict[str, Any]:
        return {}

    @property
    def duration(self) -> float:
        return 0.0


_NULL_CONTEXT = _NullContext()


class _NullMetrics(MetricsRegistry):
    """Registry whose update one-liners do nothing and allocate nothing."""

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = DEFAULT_BIT_BUCKETS) -> None:
        pass

    def observe_many(self, name: str, values: Iterable[float],
                     bounds: Sequence[float] = DEFAULT_BIT_BUCKETS) -> None:
        pass


class NullTelemetry:
    """Default no-op telemetry — the disabled-path guarantee.

    ``span`` returns one shared context manager, ``trace`` returns the
    function unwrapped, and the metrics one-liners discard their inputs,
    so instrumentation sites leave no trace (literally) in output or
    timing when observability is off.
    """

    enabled = False

    def __init__(self) -> None:
        self.metrics = _NullMetrics()
        self.tracer = None  # no spans are ever produced

    def span(self, name: str, **attrs: Any) -> _NullContext:
        return _NULL_CONTEXT

    def trace(self, name: str | None = None, **attrs: Any) -> Callable:
        def deco(fn: Callable) -> Callable:
            return fn
        return deco

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = DEFAULT_BIT_BUCKETS) -> None:
        pass

    def observe_many(self, name: str, values: Iterable[float],
                     bounds: Sequence[float] = DEFAULT_BIT_BUCKETS) -> None:
        pass

    def clear(self) -> None:
        pass


_NULL = NullTelemetry()
_active: Telemetry | NullTelemetry = _NULL
_swap_lock = threading.Lock()


def get_telemetry() -> Telemetry | NullTelemetry:
    """The process-wide active telemetry (NullTelemetry unless enabled)."""
    return _active


def set_telemetry(tm: Telemetry | NullTelemetry) -> Telemetry | NullTelemetry:
    """Install ``tm`` as the active telemetry; returns the previous one."""
    global _active
    with _swap_lock:
        previous = _active
        _active = tm
    return previous


def enable(name: str = "repro") -> Telemetry:
    """Install and return a fresh live :class:`Telemetry`."""
    tm = Telemetry(name)
    set_telemetry(tm)
    return tm


def disable() -> None:
    """Restore the shared :class:`NullTelemetry` default."""
    set_telemetry(_NULL)


@contextmanager
def enabled_telemetry(name: str = "repro") -> Iterator[Telemetry]:
    """Scoped enable: live telemetry inside the block, prior one after."""
    tm = Telemetry(name)
    previous = set_telemetry(tm)
    try:
        yield tm
    finally:
        set_telemetry(previous)
