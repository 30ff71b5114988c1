"""Structured tracing: nested spans with a thread-safe tracer.

A :class:`Span` is one timed region of work (a compression stage, a
CBench cell, a per-rank compress).  Spans nest: each thread keeps its own
stack, so concurrent ranks in :mod:`repro.parallel.compression` produce
independent, correctly-parented subtrees instead of interleaving.

Two entry points::

    with tracer.span("sz.huffman", bytes=n):   # context manager
        ...

    @tracer.trace("cbench.run_one")            # decorator
    def run_one(...): ...

Timing uses :func:`time.perf_counter` (monotonic, the resolution the
paper's per-stage breakdowns need); wall-clock epochs never enter a
duration.  Finished spans accumulate on the tracer and are exported by
:mod:`repro.telemetry.export`.

**Distributed traces.**  When a :class:`repro.telemetry.context.TraceContext`
is active (the service client/server and the parallel executor activate
one), every span additionally gets a *context identity*: the shared
``trace_id``, a fresh random 64-bit ``ctx_id``, and the enclosing
context's span id as ``ctx_parent_id``; the contextvar is advanced for
the span's duration so nested spans — including spans opened in other
processes that re-activate the propagated context — chain into one
cross-process tree.  Local integer ``span_id``s keep working unchanged
for single-process traces; ctx ids are ``None`` when no context is
active, so nothing changes for existing callers.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.telemetry import context as trace_context

__all__ = ["Span", "Tracer"]


@dataclass(slots=True)
class Span:
    """One finished (or in-flight) timed region."""

    name: str
    span_id: int
    parent_id: int | None
    thread_id: int
    start: float  # perf_counter seconds, relative to the tracer epoch
    end: float | None = None
    status: str = "ok"  # "ok" or "error"
    attrs: dict[str, Any] = field(default_factory=dict)
    # Distributed-trace identity (None outside an active TraceContext).
    # ctx ids are random 64-bit hex, unique across processes, so stitched
    # trees need no id remapping the way local integer ids do.
    trace_id: str | None = None
    ctx_id: str | None = None
    ctx_parent_id: str | None = None

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready flat record (the JSONL line schema)."""
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attrs": self.attrs,
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
            record["ctx_id"] = self.ctx_id
            record["ctx_parent_id"] = self.ctx_parent_id
        return record

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict` (``duration`` is derived, ignored)."""
        return cls(
            name=raw["name"],
            span_id=raw["span_id"],
            parent_id=raw.get("parent_id"),
            thread_id=raw.get("thread_id", 0),
            start=raw["start"],
            end=raw.get("end"),
            status=raw.get("status", "ok"),
            attrs=dict(raw.get("attrs", {})),
            trace_id=raw.get("trace_id"),
            ctx_id=raw.get("ctx_id"),
            ctx_parent_id=raw.get("ctx_parent_id"),
        )


class Tracer:
    """Thread-safe producer of nested :class:`Span` trees.

    The per-thread span stack lives in a ``threading.local``; the finished
    span list is guarded by a lock.  Span ids are globally unique within
    the tracer so parent/child edges survive export and merging.

    ``max_finished`` bounds retention for long-lived processes (the
    compression daemon): finished spans live in a ring of that many
    entries, so the oldest fall out at O(1) per span.
    :meth:`finished_total` keeps counting everything ever finished and
    :meth:`spans_since` indexes the retained window by that count, so a
    periodic harvester sees each span once and can tell how many it
    missed.
    """

    def __init__(self, name: str = "repro", max_finished: int | None = None) -> None:
        self.name = name
        self.max_finished = max_finished
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._finished: deque[Span] = deque(maxlen=max_finished)
        self._total = 0
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # -- internals ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def now(self) -> float:
        """Current time on the tracer clock (seconds since its epoch);
        the timebase :meth:`add_span` timestamps live in."""
        return self._now()

    def _append_finished(self, spans: list[Span]) -> None:
        """Append under the lock (the ring enforces ``max_finished``)."""
        with self._lock:
            self._finished.extend(spans)
            self._total += len(spans)

    def _finish(self, sp: Span) -> None:
        """:meth:`_append_finished` of one span."""
        with self._lock:
            self._finished.append(sp)
            self._total += 1

    # -- span production ----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> "SpanScope":
        """Open a nested span; exceptions mark it ``status="error"`` and
        propagate, with the parent span restored either way.

        Inside an active :class:`~repro.telemetry.context.TraceContext`
        the span is stamped with the trace id and a fresh ctx id, and the
        context is advanced to point at this span for its duration, so
        downstream hops (and nested spans) parent under it.
        """
        return SpanScope(self, name, attrs)

    def detached(self) -> "Detached":
        """Open spans as local roots on this thread for the block,
        whatever it has open (their ctx parent still links them): for
        work run on an event-loop thread whose stack holds other tasks'
        spans."""
        return Detached(self)

    def trace(self, name: str | None = None, **attrs: Any) -> Callable:
        """Decorator form of :meth:`span` (span named after the function
        unless ``name`` is given)."""

        def deco(fn: Callable) -> Callable:
            span_name = name or f"{fn.__module__}.{fn.__qualname__}"

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(span_name, **attrs):
                    return fn(*args, **kwargs)

            return wrapper

        return deco

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: Span | None = None,
        ctx: "trace_context.TraceContext | None" = None,
        root: bool = False,
        **attrs: Any,
    ) -> Span:
        """Record a synthetic span with explicit timestamps.

        Used to merge *simulated* timelines (the :mod:`repro.gpu` runtime's
        Fig. 7 stage breakdowns) into the same trace as measured spans,
        and by the service batcher to record queue-wait/dispatch spans
        after the fact.  ``ctx``, when given, is the span's *identity* in
        a distributed trace: the span adopts ``ctx.span_id`` as its ctx
        id and ``ctx.parent_id`` as its ctx parent (pre-minting the id
        with :meth:`TraceContext.child` lets a caller hand the identity
        to a worker before the span is recorded).  ``root=True`` skips
        the thread-stack parent lookup entirely — for callers (the
        service batcher) whose thread may have unrelated spans open.
        """
        if parent is None and not root:
            stack = self._stack()
            parent = stack[-1] if stack else None
        sp = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            thread_id=threading.get_ident(),
            start=start,
            end=end,
            attrs=attrs,
        )
        if ctx is not None:
            sp.trace_id = ctx.trace_id
            sp.ctx_id = ctx.span_id
            sp.ctx_parent_id = ctx.parent_id
        self._finish(sp)
        return sp

    def ingest(
        self,
        spans: list["Span | dict[str, Any]"],
        offset: float | None = None,
    ) -> list[Span]:
        """Adopt finished spans produced by *another* tracer.

        This is how subtrees captured in worker processes (by
        :func:`repro.parallel.executor.process_map`) rejoin the parent
        trace.  Span ids are remapped into this tracer's id space with
        parent/child edges preserved within the batch; roots stay roots
        (they are not re-parented — worker subtrees ran on other
        threads/processes).  ``offset`` shifts the batch's timestamps;
        ``None`` aligns its latest end with this tracer's current clock
        (worker epochs are not comparable to ours).
        """
        batch = [
            Span.from_dict(s) if isinstance(s, dict) else s for s in spans
        ]
        if not batch:
            return []
        if offset is None:
            latest = max(s.end if s.end is not None else s.start for s in batch)
            offset = self._now() - latest
        idmap = {s.span_id: next(self._ids) for s in batch}
        adopted = [
            Span(
                name=s.name,
                span_id=idmap[s.span_id],
                parent_id=idmap.get(s.parent_id),
                thread_id=s.thread_id,
                start=s.start + offset,
                end=None if s.end is None else s.end + offset,
                status=s.status,
                attrs=dict(s.attrs),
                # ctx ids are globally unique hex — adopted verbatim, so a
                # worker subtree stays attached to its remote parent span.
                trace_id=s.trace_id,
                ctx_id=s.ctx_id,
                ctx_parent_id=s.ctx_parent_id,
            )
            for s in batch
        ]
        self._append_finished(adopted)
        return adopted

    # -- inspection ---------------------------------------------------------

    def current_span(self) -> Span | None:
        """The innermost open span on *this* thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def finished_spans(self) -> list[Span]:
        """Snapshot of completed spans (oldest first)."""
        with self._lock:
            return list(self._finished)

    def finished_total(self) -> int:
        """Spans ever finished, including any dropped by ``max_finished``.

        A periodic harvester hands it back to :meth:`spans_since` as
        its mark.
        """
        with self._lock:
            return self._total

    def spans_since(self, mark: int) -> tuple[list[Span], int]:
        """Retained spans finished after the first ``mark`` ever
        finished, and the next mark (:meth:`finished_total` at the same
        instant).  Spans that fell out of the ring before they were asked
        for are skipped, not repeated."""
        with self._lock:
            dropped = self._total - len(self._finished)
            start = max(0, mark - dropped)
            return list(itertools.islice(self._finished, start, None)), self._total

    def drain(self, since_id: int = 0) -> list[Span]:
        """Finished spans with ``span_id > since_id`` (for incremental
        collection, e.g. attaching one CBench cell's subtree to its record)."""
        with self._lock:
            return [s for s in self._finished if s.span_id > since_id]

    def last_span_id(self) -> int:
        """High-water mark for a later :meth:`drain` call."""
        with self._lock:
            return self._finished[-1].span_id if self._finished else 0

    def clear(self) -> None:
        """Drop all finished spans (open spans are unaffected)."""
        with self._lock:
            self._finished.clear()


class SpanScope:
    """The context manager :meth:`Tracer.span` returns: ``__enter__``
    opens the span and yields it, ``__exit__`` closes and records it."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span", "_stack", "_token")

    def __init__(self, tracer: Tracer, name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._token = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = self._stack = tracer._stack()
        sp = self._span = Span(
            self._name,
            next(tracer._ids),
            stack[-1].span_id if stack else None,
            threading.get_ident(),
            time.perf_counter() - tracer._epoch,
            attrs=self._attrs,
        )
        ctx = trace_context._current.get()
        if ctx is not None:
            sp.trace_id = ctx.trace_id
            sp.ctx_id = trace_context.new_span_id()
            sp.ctx_parent_id = ctx.span_id
            self._token = trace_context._current.set(
                trace_context.TraceContext(ctx.trace_id, sp.ctx_id, ctx.span_id)
            )
        stack.append(sp)
        return sp

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        sp = self._span
        if exc_type is not None:
            sp.status = "error"
            sp.attrs.setdefault("exception", f"{exc_type.__name__}: {exc}")
        sp.end = time.perf_counter() - self._tracer._epoch
        # Concurrent asyncio tasks interleave enter/exit on one thread
        # stack; remove *this* span wherever it sits rather than
        # blindly popping the top (which may belong to another task).
        stack = self._stack
        if stack and stack[-1] is sp:
            stack.pop()
        else:
            try:
                stack.remove(sp)
            except ValueError:
                pass
        if self._token is not None:
            trace_context._current.reset(self._token)
        self._tracer._finish(sp)
        return False


class Detached:
    """The context manager :meth:`Tracer.detached` returns."""

    __slots__ = ("_tracer", "_saved")

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __enter__(self) -> None:
        self._saved = self._tracer._stack()
        self._tracer._local.stack = []

    def __exit__(self, *exc: Any) -> bool:
        self._tracer._local.stack = self._saved
        return False
