"""Admission and dispatch for the compression daemon.

Useful work is CPU-bound codec time in GIL-releasing native calls, so
independent requests overlap on threads.  The :class:`Batcher` decides
*when* a request runs:

* **Slots.**  At most ``slots`` dispatches run at once, each on a thread
  of the batcher's own ``ThreadPoolExecutor(max_workers=slots)``;
  ``slots`` is the server's ``workers`` (``1``: strictly one at a time),
  else the core count.
* **Dispatch on arrival.**  A request admitted while a slot is free
  starts at once, alone: no timer, no consumer task in between.
* **Small requests on the loop.**  Such a request that is also
  *bounded* runs to completion on the event-loop thread, through the
  same dispatch body, while at most ``slots`` frames are in flight
  daemon-wide.  Bounded: a COMPRESS or DECOMPRESS of
  :data:`LOOP_CODECS` on native kernels, inline, without ``options``,
  whose input and output (a DECOMPRESS's as its stream's header
  declares it; never an SZ lossless stage or a damaged header) are each
  at most ``protocol.SHM_MIN_BYTES``.
* **Admission queue.**  With every slot busy a request waits in one
  bounded FIFO (``max_pending``; full means BUSY).  One cancelled, or
  past its **deadline**, while queued is resolved at the head without
  codec time.
* **One request per dispatch, in arrival order**: when a slot frees,
  the head of the queue takes it, alone.
* **Server-owned ops.**  A SWEEP or SESSION_STEP carries its ``body``
  (the server's work over the input array), admitted, queued, expired
  and dispatched like a codec request; only a SWEEP's CBench cells may
  use worker processes.

Results resolve the futures the connection handlers await; the batcher
never touches sockets.  **Tracing:** at dispatch the batcher records a
``service.queue_wait`` span (admission → dispatch) and a
``service.dispatch`` span (``request_id``, ``path`` ``"loop"`` or
``"pool"``) under the request's trace context, and runs the request
under a pre-minted child of it, so codec-stage spans sit under the
dispatch span.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import kernels
from repro.compressors.base import CompressedBuffer, CompressorMode
from repro.compressors.registry import get_compressor, is_registered
from repro.compressors.sz import SZCompressor
from repro.compressors.zfp import ZFPCompressor
from repro.errors import DataError, ReproError, ServiceError
from repro.parallel.executor import resolve_workers
from repro.parallel.shm import SharedArray, ShmDescriptor
from repro.service import protocol
from repro.telemetry import context as trace_context
from repro.telemetry import DEFAULT_MS_BUCKETS, Bound, get_telemetry
from repro.telemetry.context import TraceContext

#: Mode → compressor keyword argument carrying the knob value.
KNOB_FOR_MODE = {
    "abs": "error_bound",
    "pw_rel": "pwrel",
    "fixed_rate": "rate",
    "fixed_precision": "precision",
    "fixed_accuracy": "tolerance",
}

#: Name prefix of the codec pool's threads (``<prefix>_<n>``).
POOL_THREAD_PREFIX = "repro-codec"

#: The codecs a loop-thread dispatch may call (names register once):
#: the class that reads a stream's header, the kernels each op runs.
_SZ = (SZCompressor, {"compress": ("sz.encode", "huffman.code", "huffman.encode"),
                      "decompress": ("huffman.decode", "sz.decode")})
_ZFP = (ZFPCompressor, {"compress": ("zfp.encode",), "decompress": ("zfp.decode",)})
LOOP_CODECS = {"sz": _SZ, "gpu-sz": _SZ, "zfp": _ZFP, "cuzfp": _ZFP}


def jsonable(value: Any) -> Any:
    """Deep-convert ``value`` to JSON-encodable builtins.

    Compressor ``meta`` dicts carry numpy scalars and the odd
    non-serializable diagnostic; replies must be pure JSON.  Unknown
    types degrade to ``repr`` rather than failing the reply.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value  # np.float64 too: a float, encoded the same
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return repr(value)


@dataclass
class PendingRequest:
    """One admitted request waiting for (or undergoing) computation."""

    op: str
    header: dict[str, Any]
    payload: bytes
    future: asyncio.Future
    enqueued: float = field(default_factory=time.perf_counter)
    deadline: float | None = None
    #: Trace context of the server-side request span (None when the
    #: client did not propagate one); queue/dispatch/codec spans attach
    #: under it.
    ctx: TraceContext | None = None
    #: Server-assigned monotonically increasing id (span/log tagging).
    request_seq: int = 0
    #: Descriptor of a client-published payload segment (``payload`` is
    #: then empty): the zero-copy data plane.  The codec call attaches
    #: the client's segment in place — it is *never* re-published.
    shm: ShmDescriptor | None = None
    #: A server-owned op's work (SWEEP, SESSION_STEP): called on a codec
    #: thread with the request's input array; ``None`` for the codec ops.
    body: Callable[[np.ndarray], Any] | None = None


def bounded(request: PendingRequest) -> bool:
    """Whether ``request`` is small enough in kind and size to run on the
    loop thread (module docstring); the pool reports a damaged stream."""
    codec, ops = LOOP_CODECS.get(str(request.header.get("compressor")), (None, {}))
    if (request.op not in ops or request.shm is not None
            or request.header.get("options")
            or len(request.payload) > protocol.SHM_MIN_BYTES
            or any(t != "native" for t in kernels.REGISTRY.tiers(ops[request.op]))):
        return False
    try:
        out = 0 if request.op == "compress" else codec.decoded_nbytes(request.payload)
    except ReproError:
        return False
    return out is not None and out <= protocol.SHM_MIN_BYTES


# -- per-request codec bodies (run on a codec-pool thread) -------------------


def payload_view(header: dict[str, Any], payload: bytes, shm: ShmDescriptor | None):
    """A ``with`` scope yielding a request's input array: its inline
    ``payload``, or the client's ``shm`` segment attached *ephemerally*.

    Data-plane segments belong to the client and are unlinked the moment
    the request completes — memoizing the attachment
    (:func:`attach_cached`) would pin dead segments' pages in the
    long-lived daemon, so the mapping only lives for the block.
    A segment that is gone or short is a :class:`ServiceError` with code
    ``shm_attach``, on which the client re-sends the request inline.
    """
    if shm is None:
        return nullcontext(protocol.unpack_array(header, payload))
    return _attached(shm)


@contextmanager
def _attached(shm: ShmDescriptor):
    try:
        handle = SharedArray.attach(shm)
    except (DataError, OSError) as exc:  # gone or short
        get_telemetry().count("service.shm_attach_errors")
        raise ServiceError(
            f"cannot attach payload segment {shm.name!r}: {exc}",
            code="shm_attach",
        ) from exc
    try:
        yield handle.array
    finally:
        handle.close()


def _compress(request: PendingRequest) -> CompressedBuffer:
    """A COMPRESS: the codec its header names over its input array."""
    h = request.header
    mode = h.get("mode")
    knob = KNOB_FOR_MODE.get(mode)
    if knob is None:
        raise ServiceError(
            f"unknown mode {mode!r}; known: {sorted(KNOB_FOR_MODE)}"
        )
    compressor = get_compressor(h.get("compressor"), **dict(h.get("options") or {}))
    with payload_view(h, request.payload, request.shm) as view:
        return compressor.compress(view, mode=mode, **{knob: h.get("value")})


def _decompress(request: PendingRequest) -> np.ndarray:
    """A DECOMPRESS: the stream its payload (or segment) carries, read
    under the shape, dtype and mode fields of its header."""
    h = request.header
    payload = request.payload
    if request.shm is not None:
        # Compressed streams are consumed as bytes; one copy out of
        # the segment replaces the whole socket round trip.
        with payload_view(h, payload, request.shm) as view:
            payload = view.tobytes()
    try:
        buf = CompressedBuffer(
            payload=payload,
            original_shape=tuple(h.get("shape") or ()),
            original_dtype=np.dtype(h.get("dtype")),
            mode=CompressorMode(h.get("mode")),
            parameter=float(h.get("parameter")),
        )
        return get_compressor(
            h.get("compressor"), **dict(h.get("options") or {})
        ).decompress(buf)
    except (TypeError, ValueError) as exc:  # bad mode/dtype/shape fields
        raise ServiceError(f"bad decompress fields: {exc}") from exc


def _body(request: PendingRequest) -> Any:
    """A server-owned op: its body over the request's input array (a
    client segment as a zero-copy view)."""
    with payload_view(request.header, request.payload, request.shm) as view:
        return request.body(view)


class Batcher:
    """Admission queue + slot-bounded dispatcher (see module docstring)."""

    def __init__(
        self, max_pending: int = 64, workers: int | None = None
    ) -> None:
        self.max_pending = max(1, max_pending)
        self.workers = workers
        #: Dispatches in flight at once == threads of the codec pool
        #: (``workers`` when given, else one per CPU).
        self.slots = resolve_workers(workers or 0)
        #: The codec thread pool (live between :meth:`start` and
        #: :meth:`close`).
        self.pool: ThreadPoolExecutor | None = None
        self._pending: deque[PendingRequest] = deque()
        self._inflight: set[asyncio.Task] = set()
        self._closed = False
        #: A dispatch's instruments, bound once per path and (op, label).
        self._dispatches = Bound(
            lambda m, path: m.counter(f'service.dispatches{{path="{path}"}}'))
        self._dispatch_ms = Bound(lambda m, key: m.histogram(
            f'service.dispatch_ms{{op="{key[0]}"}}' if key[1] is None else
            f'service.dispatch_ms{{op="{key[0]}",compressor="{key[1]}"}}',
            DEFAULT_MS_BUCKETS))

    # -- admission (backpressure boundary) --------------------------------

    def admit(self, request: PendingRequest, frames: int) -> bool:
        """Queue or start ``request``; ``False`` means BUSY (queue full).
        ``frames``: requests in flight daemon-wide, this one included."""
        if self._closed:
            return False
        if (not self._pending and len(self._inflight) < self.slots
                and frames <= self.slots and bounded(request)):
            self._start(request, on_loop=True)
            return True
        if len(self._pending) >= self.max_pending:
            get_telemetry().count("service.rejected_busy")
            return False
        self._pending.append(request)
        self._pump()
        return True

    @property
    def depth(self) -> int:
        return len(self._pending)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self.pool is None:
            self.pool = ThreadPoolExecutor(
                max_workers=self.slots, thread_name_prefix=POOL_THREAD_PREFIX
            )

    async def drain(self) -> None:
        """Stop admitting; return once everything queued and in flight
        has been dispatched and resolved."""
        self._closed = True
        while self._inflight:
            await asyncio.wait(self._inflight)

    async def close(self) -> None:
        """:meth:`drain`, then join the codec threads."""
        await self.drain()
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None

    # -- dispatcher --------------------------------------------------------

    def _pump(self) -> None:
        """Start dispatches, in arrival order, while a slot is free and a
        request is queued."""
        while self._pending and len(self._inflight) < self.slots:
            self._start(self._pending.popleft())
        get_telemetry().set_gauge(
            "service.queue_depth", float(len(self._pending))
        )

    def _start(self, request: PendingRequest, on_loop: bool = False) -> None:
        """Dispatch ``request`` unless it is dead already: as a task on a
        free slot, or (``on_loop``) to completion right here, holding the
        loop."""
        if not self._live(request):
            return
        if on_loop:
            with suppress(StopIteration):  # no await on this path: one step
                self._dispatch(request, on_loop).send(None)
                raise AssertionError("loop-thread dispatch suspended")
        else:
            task = asyncio.get_running_loop().create_task(self._dispatch(request))
            self._inflight.add(task)
            task.add_done_callback(self._dispatched)

    def _dispatched(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        self._pump()

    @staticmethod
    def _live(request: PendingRequest) -> bool:
        """Whether ``request`` still wants its dispatch; a cancelled one
        is dropped, an expired one resolved with its deadline error."""
        if request.future.cancelled():
            return False
        if request.deadline is not None and time.perf_counter() >= request.deadline:
            request.future.set_exception(
                TimeoutError("deadline expired while queued")
            )
            get_telemetry().count("service.deadline_expired")
            return False
        return True

    async def _dispatch(
        self, request: PendingRequest, on_loop: bool = False
    ) -> None:
        tm = get_telemetry()
        path = "loop" if on_loop else "pool"
        self._dispatches(tm.metrics, path).inc()
        op = request.op
        compressor = request.header.get("compressor")
        # A label is a registered name, never a client string.
        label = str(compressor).lower()
        label = label if is_registered(label) else "unknown"
        # Pre-mint the dispatch-span identity: the codec runs under it
        # *before* the span itself is recorded, so codec-stage spans
        # already carry the dispatch span as their ctx parent.
        dctx = request.ctx.child() if request.ctx else None
        traced = tm.enabled
        dispatch_start = 0.0
        if traced:
            tracer = tm.tracer
            dispatch_start = tracer.now()
            if request.ctx is not None:
                # PendingRequest.enqueued is raw perf_counter; shift it
                # onto the tracer clock to record the queue-wait span
                # after the fact.
                offset = dispatch_start - time.perf_counter()
                tracer.add_span(
                    "service.queue_wait",
                    start=request.enqueued + offset,
                    end=dispatch_start,
                    ctx=request.ctx.child(),
                    root=True,
                    op=op,
                    request_id=request.request_seq,
                )
        resolve = request.future.set_result
        try:
            if on_loop:  # codec spans: local roots, as on a codec thread
                with tm.tracer.detached() if traced else nullcontext():
                    result = self._run(request, dctx)
            else:
                result = await asyncio.get_running_loop().run_in_executor(
                    self.pool, self._run, request, dctx
                )
        except BaseException as exc:  # even a cancelled dispatch answers
            result, resolve = exc, request.future.set_exception
        if traced:
            dispatch_end = tm.tracer.now()
            dispatch_ms = (dispatch_end - dispatch_start) * 1e3
            self._dispatch_ms(tm.metrics, (op, None)).observe(dispatch_ms)
            if compressor:
                self._dispatch_ms(tm.metrics, (op, label)).observe(dispatch_ms)
            if dctx is not None:
                attrs = {"compressor": compressor} if compressor else {}
                tm.tracer.add_span(
                    "service.dispatch",
                    start=dispatch_start,
                    end=dispatch_end,
                    ctx=dctx,
                    root=True,
                    op=op,
                    request_id=request.request_seq,
                    path=path,
                    **attrs,
                )
        if not request.future.done():
            resolve(result)

    @staticmethod
    def _run(request: PendingRequest, ctx: TraceContext | None) -> Any:
        """One dispatch's work (on a codec-pool thread, or a bounded one on
        the loop thread): the request's result; a failure raises."""
        # ``run_in_executor`` does not propagate contextvars, so the
        # request's context is activated here; its codec spans (a session
        # step's too, and a SWEEP's CBench cells, also from worker
        # processes) chain under its dispatch span.
        with trace_context.use(ctx):
            if request.body is not None:
                return _body(request)
            if request.op == "decompress":
                return _decompress(request)
            return _compress(request)
