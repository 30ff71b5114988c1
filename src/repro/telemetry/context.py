"""Distributed trace context: W3C-traceparent-style propagation.

A :class:`TraceContext` names one position in one distributed trace —
``trace_id`` (the whole request tree, 32 hex chars), ``span_id`` (this
position, 16 hex chars), and ``parent_id`` (where it hangs).  The active
context lives in a :mod:`contextvars` variable, so it follows the
logical flow of control: across ``await`` boundaries inside one asyncio
task, into threads that opt in via :func:`use`, and across *process*
boundaries by serializing to a ``traceparent`` string
(``00-<trace_id>-<span_id>-01``, the W3C Trace Context header format)
carried in an MSG1 header field.

The tracer integrates automatically: when a context is active,
:meth:`repro.telemetry.spans.Tracer.span` stamps each span with the
trace id, mints the span a fresh ctx id, and advances the contextvar for
the span's duration — so the local nesting and the cross-process tree
stay consistent without the instrumented code knowing about either.

A second contextvar carries the server-assigned **request id** so the
JSON log formatter (:mod:`repro.telemetry.logs`) can stamp every record
emitted while a request is being served.

Everything here is pure stdlib and allocation-light; with no context
active and telemetry off, the service client skips it entirely.
"""

from __future__ import annotations

import contextvars
import re
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "TRACE_FIELD",
    "TraceContext",
    "new_trace_id",
    "new_span_id",
    "current",
    "use",
    "start_trace",
    "current_traceparent",
    "inject",
    "extract",
    "current_request_id",
    "use_request_id",
]

#: MSG1 header field carrying the serialized context (optional; absent
#: on old clients and ignored by old servers — see docs/SERVICE.md).
TRACE_FIELD = "trace"

#: ``version-trace_id-span_id-flags`` per the W3C Trace Context spec.
_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def new_trace_id() -> str:
    """A fresh random 128-bit trace id (32 lowercase hex chars)."""
    return secrets.token_hex(16)


def new_span_id() -> str:
    """A fresh random 64-bit span id (16 lowercase hex chars)."""
    return secrets.token_hex(8)


@dataclass(frozen=True)
class TraceContext:
    """One position in a distributed trace (immutable, picklable)."""

    trace_id: str
    span_id: str
    parent_id: str | None = None

    def child(self) -> "TraceContext":
        """A fresh context one level below this one (new span id)."""
        return TraceContext(self.trace_id, new_span_id(), self.span_id)

    def to_traceparent(self) -> str:
        """Serialize as a W3C ``traceparent`` value."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, value: Any) -> "TraceContext | None":
        """Parse a ``traceparent`` string; ``None`` on anything malformed.

        Never raises — a hostile or stale peer must not be able to break
        request handling by sending garbage trace headers.
        """
        if not isinstance(value, str):
            return None
        match = _TRACEPARENT_RE.match(value.strip().lower())
        if match is None:
            return None
        _, trace_id, span_id, _ = match.groups()
        if set(trace_id) == {"0"} or set(span_id) == {"0"}:
            return None  # all-zero ids are invalid per the spec
        return cls(trace_id=trace_id, span_id=span_id)


_current: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)
_request_id: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_request_id", default=None
)


def current() -> TraceContext | None:
    """The active trace context, if any."""
    return _current.get()


class _Activation:
    """A ``with`` scope that sets a contextvar to ``value`` for the block
    and yields it; ``value=None`` sets nothing and yields the current
    value.  A slotted class rather than a generator: the serving path
    enters several per request."""

    __slots__ = ("_var", "_value", "_token")

    def __init__(self, var: contextvars.ContextVar, value: Any) -> None:
        self._var = var
        self._value = value
        self._token = None

    def __enter__(self) -> Any:
        if self._value is None:
            return self._var.get()
        self._token = self._var.set(self._value)
        return self._value

    def __exit__(self, *exc: Any) -> bool:
        if self._token is not None:
            self._var.reset(self._token)
        return False


def use(ctx: TraceContext | None) -> _Activation:
    """Activate ``ctx`` for the block (``None`` is a no-op passthrough)."""
    return _Activation(_current, ctx)


@contextmanager
def start_trace() -> Iterator[TraceContext]:
    """Activate a fresh root context — the start of a new trace.

    If a context is already active it is reused (nested ``start_trace``
    does not fork a second trace), so callers can wrap liberally.
    """
    existing = current()
    if existing is not None:
        yield existing
        return
    root = TraceContext(trace_id=new_trace_id(), span_id=new_span_id())
    token = _current.set(root)
    try:
        yield root
    finally:
        _current.reset(token)


def current_traceparent() -> str | None:
    """The active context serialized for the wire (``None`` if inactive)."""
    ctx = current()
    return None if ctx is None else ctx.to_traceparent()


def inject(header: dict[str, Any]) -> dict[str, Any]:
    """Copy ``header`` with the active context added under ``trace``.

    With no active context the header is returned unchanged (and
    unchanged means *uncopied* — the fast path allocates nothing).
    """
    tp = current_traceparent()
    if tp is None:
        return header
    return {**header, TRACE_FIELD: tp}


def extract(header: dict[str, Any]) -> TraceContext | None:
    """The remote context a request header carries, if any (never raises)."""
    return TraceContext.from_traceparent(header.get(TRACE_FIELD))


# -- request ids (structured logging) ---------------------------------------


def current_request_id() -> str | None:
    """The request id assigned by the serving layer, if inside one."""
    return _request_id.get()


def use_request_id(request_id: str | None) -> _Activation:
    """Stamp log records emitted in this block with ``request_id``."""
    return _Activation(_request_id, None if request_id is None else str(request_id))
