"""Admission and dispatch for the compression daemon.

The daemon's unit of useful work is CPU-bound codec time; every hot
kernel is a GIL-releasing native call, so independent requests overlap
on threads.  The :class:`Batcher` decides *when* a request runs and
*with whom*:

* **Slots.**  At most ``slots`` dispatches are in flight at once, each
  on one thread of the batcher's own codec pool (a
  ``ThreadPoolExecutor(max_workers=slots)`` — the daemon never runs
  codec work on more threads than that, and each thread keeps one
  malloc arena).  ``slots`` is the server's explicit ``workers`` value
  when one was given (``workers=1``: strictly one dispatch at a time)
  and the core count otherwise.
* **Dispatch on arrival.**  A request admitted while a slot is free
  starts at once, alone: no timer, no consumer task in between.
* **Small requests on the loop.**  Such a request that is also
  *bounded* runs to completion on the event-loop thread, through the
  same dispatch body, while at most ``slots`` frames are in flight
  daemon-wide: no thread hand-off, and the loop is held for at most
  ``slots`` short native calls in a row.  Bounded: a COMPRESS or
  DECOMPRESS of :data:`LOOP_CODECS` on native kernels, inline and
  without ``options``, whose input and output (a DECOMPRESS's as its
  stream's header declares it; never an SZ lossless stage, never a
  damaged header) are each at most ``protocol.SHM_MIN_BYTES``.
* **Admission queue.**  A request admitted while every slot is busy
  waits in one bounded FIFO (capacity ``max_pending``; a full queue makes
  the server answer BUSY instead of buffering without limit).  Requests
  that were cancelled, or whose **deadline** passed, while queued are
  resolved when they reach the head without spending codec time.
* **Natural batching.**  When a slot frees, the head of the queue takes
  it; the dispatch that takes the *last* free slot also takes every
  queued request with the head's work key — ``(op, compressor, options,
  mode, value)`` for COMPRESS — so under overload same-configuration
  requests become *one* dispatch, and never otherwise.
* **In-process dispatch.**  A dispatch runs on its codec thread (a
  bounded one on the loop thread): a coalesced group's requests run one
  after another there, each under its own trace context.  Coalescing
  saves per-dispatch scheduling (one executor hand-off and one
  event-loop task per group), not codec work: each request is one
  GIL-free codec call, so the slots are the daemon's parallelism and
  COMPRESS/DECOMPRESS never leave its process.
* **Server-owned ops.**  A SWEEP or SESSION_STEP carries its ``body``,
  the server's work over the request's input array; the batcher admits,
  queues, expires and dispatches it like a codec request, alone (its
  work key is its own) and on a codec thread.  Only a SWEEP's CBench
  cell fan-out may use worker processes.

Results (or exceptions) resolve the per-request futures the connection
handlers await; the batcher never touches sockets.

**Tracing.**  Each admitted request remembers the trace context the
server extracted from its header.  At dispatch time the batcher records
a ``service.queue_wait`` span (admission → dispatch) and a
``service.dispatch`` span (the batch execution, tagged with
``request_id``, ``batch_size`` and ``path``, ``"loop"`` or ``"pool"``)
under that context, and runs each request under a pre-minted child
context, so its codec-stage spans sit under the dispatch span — one
request, one connected tree from client socket write to Huffman encode.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from repro import kernels
from repro.compressors.base import CompressedBuffer, CompressorMode
from repro.compressors.registry import available_compressors, get_compressor
from repro.compressors.sz import SZCompressor
from repro.compressors.zfp import ZFPCompressor
from repro.errors import ReproError, ServiceError
from repro.parallel.executor import resolve_workers
from repro.parallel.shm import SharedArray, ShmDescriptor
from repro.service import protocol
from repro.telemetry import context as trace_context
from repro.telemetry import get_telemetry
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
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
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

    def group_key(self) -> tuple:
        """Requests with equal keys coalesce into one dispatch."""
        h = self.header
        options = json.dumps(h.get("options") or {}, sort_keys=True)
        if self.op == "compress":
            return ("compress", h.get("compressor"), options,
                    h.get("mode"), h.get("value"))
        if self.op == "decompress":
            return ("decompress", h.get("compressor"), options)
        return (self.op, id(self))  # a server-owned op never merges


def bounded(request: PendingRequest) -> bool:
    """Whether ``request`` is small enough in kind and size to run on the
    loop thread (module docstring); the pool reports a damaged stream."""
    codec, ops = LOOP_CODECS.get(str(request.header.get("compressor")), (None, {}))
    if (request.op not in ops or request.shm is not None
            or request.header.get("options")
            or len(request.payload) > protocol.SHM_MIN_BYTES
            or any(kernels.resolve_name(k) != "native" for k in ops[request.op])):
        return False
    try:
        out = 0 if request.op == "compress" else codec.decoded_nbytes(request.payload)
    except ReproError:
        return False
    return out is not None and out <= protocol.SHM_MIN_BYTES


# -- per-request codec bodies (run on a codec-pool thread) -------------------


@contextmanager
def payload_view(
    header: dict[str, Any], payload: bytes, shm: ShmDescriptor | None
):
    """Yield a request's input array: its inline ``payload``, or the
    client's ``shm`` segment attached *ephemerally*.

    Data-plane segments belong to the client and are unlinked the moment
    the request completes — memoizing the attachment
    (:func:`attach_cached`) would pin dead segments' pages in the
    long-lived daemon, so the mapping only lives for the block.
    Attach failures surface as :class:`ServiceError` (the segment owner
    vanished mid-request), not as a dispatch failure.
    """
    if shm is None:
        yield protocol.unpack_array(header, payload)
        return
    try:
        handle = SharedArray.attach(shm)
    except OSError as exc:
        raise ServiceError(
            f"cannot attach payload segment {shm.name!r}: {exc}"
        ) from exc
    try:
        yield handle.array
    finally:
        handle.close()


def _compress_one(
    spec: tuple[str, dict, str, float], request: PendingRequest
) -> CompressedBuffer | ReproError:
    """One COMPRESS request of a coalesced group.

    Library errors are *returned*, not raised: one request with, say, an
    integer array must fail alone, not take down the whole group it was
    coalesced into (the dispatcher resolves exception results into
    per-request error replies).
    """
    name, options, mode, value = spec
    try:
        knob = KNOB_FOR_MODE.get(mode)
        if knob is None:
            raise ServiceError(
                f"unknown mode {mode!r}; known: {sorted(KNOB_FOR_MODE)}"
            )
        compressor = get_compressor(name, **options)
        with payload_view(request.header, request.payload, request.shm) as view:
            return compressor.compress(view, mode=mode, **{knob: value})
    except ReproError as exc:
        return exc


def _decompress_one(
    spec: tuple[str, dict], request: PendingRequest
) -> np.ndarray | ReproError:
    """One DECOMPRESS request of a coalesced group (errors returned)."""
    name, options = spec
    h = request.header
    try:
        payload = request.payload
        if request.shm is not None:
            # Compressed streams are consumed as bytes; one copy out of
            # the segment replaces the whole socket round trip.
            with payload_view(h, payload, request.shm) as view:
                payload = view.tobytes()
        buf = CompressedBuffer(
            payload=payload,
            original_shape=tuple(h.get("shape") or ()),
            original_dtype=np.dtype(h.get("dtype")),
            mode=CompressorMode(h.get("mode")),
            parameter=float(h.get("parameter")),
        )
        return get_compressor(name, **options).decompress(buf)
    except ReproError as exc:
        return exc
    except (TypeError, ValueError) as exc:  # bad mode/dtype/shape fields
        return ServiceError(f"bad decompress fields: {exc}")


def _body_one(request: PendingRequest) -> Any:
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

    # -- admission (backpressure boundary) --------------------------------

    def admit(self, request: PendingRequest, frames: int) -> bool:
        """Queue or start ``request``; ``False`` means BUSY (queue full).
        ``frames``: requests in flight daemon-wide, this one included."""
        if self._closed:
            return False
        if (not self._pending and len(self._inflight) < self.slots
                and frames <= self.slots and bounded(request)):
            self._start([request], on_loop=True)
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
        """Start dispatches while a slot is free and a request is queued."""
        while self._pending and len(self._inflight) < self.slots:
            group = [self._pending.popleft()]
            if len(self._inflight) == self.slots - 1 and self._pending:
                # Last free slot: whoever shares the head's work key
                # would only queue behind it — take them along.
                key = group[0].group_key()
                queued, self._pending = self._pending, deque()
                for request in queued:
                    if request.group_key() == key:
                        group.append(request)
                    else:
                        self._pending.append(request)
            self._start(group)
        get_telemetry().set_gauge(
            "service.queue_depth", float(len(self._pending))
        )

    def _start(self, group: list[PendingRequest], on_loop: bool = False) -> None:
        """Dispatch ``group``'s live requests: as a task on a free slot,
        or (``on_loop``) to completion right here, holding the loop."""
        group = self._expire(group)
        if group and on_loop:
            with suppress(StopIteration):  # no await on this path: one step
                self._dispatch(group, on_loop).send(None)
                raise AssertionError("loop-thread dispatch suspended")
        elif group:
            task = asyncio.get_running_loop().create_task(self._dispatch(group))
            self._inflight.add(task)
            task.add_done_callback(self._dispatched)

    def _dispatched(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        self._pump()

    def _expire(self, group: list[PendingRequest]) -> list[PendingRequest]:
        """Resolve already-dead requests; returns the live remainder."""
        now = time.perf_counter()
        live = []
        for request in group:
            if request.future.cancelled():
                continue
            if request.deadline is not None and now >= request.deadline:
                request.future.set_exception(
                    TimeoutError("deadline expired while queued")
                )
                get_telemetry().count("service.deadline_expired")
            else:
                live.append(request)
        return live

    async def _dispatch(
        self, group: list[PendingRequest], on_loop: bool = False
    ) -> None:
        tm = get_telemetry()
        tm.count("service.batches")
        tm.count("service.batched_requests", len(group))
        tm.observe("service.batch_size", float(len(group)))
        path = "loop" if on_loop else "pool"
        tm.count(f'service.dispatches{{path="{path}"}}')
        op = group[0].op
        compressor = group[0].header.get("compressor")
        # A label is a registered name, never a client string.
        label = str(compressor).lower()
        label = label if label in available_compressors() else "unknown"
        # Pre-mint each request's dispatch-span identity: the codec runs
        # under it *before* the span itself is recorded, so codec-stage
        # spans already carry the dispatch span as their ctx parent.
        dispatch_ctxs = [r.ctx.child() if r.ctx else None for r in group]
        traced = tm.enabled
        dispatch_start = 0.0
        if traced:
            tracer = tm.tracer
            # PendingRequest.enqueued is raw perf_counter; shift it onto
            # the tracer clock to record the queue-wait span after the fact.
            offset = tracer.now() - time.perf_counter()
            dispatch_start = tracer.now()
            for r in group:
                if r.ctx is not None:
                    tracer.add_span(
                        "service.queue_wait",
                        start=r.enqueued + offset,
                        end=dispatch_start,
                        ctx=r.ctx.child(),
                        root=True,
                        op=r.op,
                        request_id=r.request_seq,
                    )
        try:
            if on_loop:  # codec spans: local roots, as on a codec thread
                with tm.tracer.detached() if traced else nullcontext():
                    results = self._run_batch(group, dispatch_ctxs)
            else:
                results = await asyncio.get_running_loop().run_in_executor(
                    self.pool, self._run_batch, group, dispatch_ctxs
                )
        except BaseException as exc:  # a batch failure fails every member
            results = [exc] * len(group)
        if traced:
            dispatch_end = tm.tracer.now()
            dispatch_ms = (dispatch_end - dispatch_start) * 1e3
            tm.observe(f'service.dispatch_ms{{op="{op}"}}', dispatch_ms)
            if compressor:
                tm.observe(f'service.dispatch_ms{{op="{op}",compressor='
                           f'"{label}"}}', dispatch_ms)
        for request, dctx, result in zip(group, dispatch_ctxs, results):
            if traced and dctx is not None:
                attrs = {"compressor": compressor} if compressor else {}
                tm.tracer.add_span(
                    "service.dispatch",
                    start=dispatch_start,
                    end=dispatch_end,
                    ctx=dctx,
                    root=True,
                    op=op,
                    request_id=request.request_seq,
                    batch_size=len(group),
                    path=path,
                    **attrs,
                )
            if not request.future.done():
                if isinstance(result, BaseException):
                    request.future.set_exception(result)
                else:
                    request.future.set_result(result)

    def _run_batch(
        self, group: list[PendingRequest], ctxs: list[TraceContext | None]
    ) -> list:
        """One dispatch, on a codec-pool thread: the result (or
        ReproError) of each request of ``group``, run in order."""
        h = group[0].header
        if group[0].body is not None:  # never coalesced: a group of one
            run = _body_one
        elif group[0].op == "decompress":
            run = partial(_decompress_one, (
                h.get("compressor"), dict(h.get("options") or {})))
        else:
            run = partial(_compress_one, (
                h.get("compressor"), dict(h.get("options") or {}),
                h.get("mode"), h.get("value")))
        results = []
        for request, ctx in zip(group, ctxs):
            # ``run_in_executor`` does not propagate contextvars, so each
            # request's context is activated here; its codec spans (a
            # session step's too, and a SWEEP's CBench cells, also from
            # worker processes) chain under its dispatch span.
            with trace_context.use(ctx):
                results.append(run(request))
        return results
