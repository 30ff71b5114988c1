"""Request batching for the compression daemon.

The daemon's unit of useful work is CPU-bound codec time, but its unit
of *arrival* is one tiny request; dispatching each arrival alone would
pay scheduling and (with workers) process-pool overhead per field.  The
:class:`Batcher` closes that gap:

* every admitted request lands in one bounded :class:`asyncio.Queue`
  (the **admission queue** — its capacity is the backpressure knob; a
  full queue makes the server answer BUSY instead of buffering without
  limit);
* a single consumer task drains whatever is queued, waits one short
  **batch window** for stragglers, and groups the requests by work key
  — ``(op, compressor, options, mode, value)`` for COMPRESS, so
  same-configuration requests become *one* dispatch;
* each group is executed off the event loop through
  :func:`repro.parallel.executor.process_map`; with the server's
  ``workers`` > 1 the group fans out over worker processes and large
  arrays travel through the zero-copy shared-memory transport
  (:mod:`repro.parallel.shm`) instead of task pickles, exactly like a
  CBench sweep;
* requests whose **deadline** passed while queued are answered with a
  deadline error without spending codec time on them.

Results (or exceptions) resolve the per-request futures the connection
handlers await; the batcher never touches sockets.

**Tracing.**  Each admitted request remembers the trace context the
server extracted from its header.  At dispatch time the batcher records
a ``service.queue_wait`` span (admission → dispatch) and a
``service.dispatch`` span (the batch execution, tagged with
``request_id`` and ``batch_size``) under that context, and hands each
worker task a pre-minted child context so codec-stage spans captured in
worker processes re-ingest under the dispatch span — one request, one
connected tree from client socket write to worker Huffman encode.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro.compressors.base import CompressedBuffer, CompressorMode
from repro.compressors.registry import get_compressor
from repro.errors import ReproError, ServiceError
from repro.parallel.executor import process_map, resolve_workers
from repro.parallel.shm import (
    ShmDescriptor,
    SharedArray,
    attached_view,
    shm_enabled,
)
from repro.service import protocol
from repro.telemetry import context as trace_context
from repro.telemetry import enabled_telemetry, get_telemetry
from repro.telemetry.context import TraceContext

#: Mode → compressor keyword argument carrying the knob value.
KNOB_FOR_MODE = {
    "abs": "error_bound",
    "pw_rel": "pwrel",
    "fixed_rate": "rate",
    "fixed_precision": "precision",
    "fixed_accuracy": "tolerance",
}

#: Arrays below this size are cheaper to pickle than to publish to shm
#: (canonically defined next to the wire fields it gates).
SHM_MIN_BYTES = protocol.SHM_MIN_BYTES


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
    #: client did not propagate one); queue/dispatch/worker spans attach
    #: under it.
    ctx: TraceContext | None = None
    #: Server-assigned monotonically increasing id (span/log tagging).
    request_seq: int = 0
    #: Descriptor of a client-published payload segment (``payload`` is
    #: then empty): the zero-copy data plane.  The batcher hands the
    #: descriptor straight to codec workers — it is *never* re-published.
    shm: ShmDescriptor | None = None

    def group_key(self) -> tuple:
        """Requests with equal keys coalesce into one dispatch."""
        h = self.header
        options = json.dumps(h.get("options") or {}, sort_keys=True)
        if self.op == "compress":
            return ("compress", h.get("compressor"), options,
                    h.get("mode"), h.get("value"))
        if self.op == "decompress":
            return ("decompress", h.get("compressor"), options)
        # Sweeps are heavyweight and carry their own fan-out; never merge.
        return ("sweep", id(self))


# -- module-level (picklable) batch workers ----------------------------------


@contextmanager
def _payload_view(arr: np.ndarray | ShmDescriptor):
    """Yield the task's input array, attaching descriptors *ephemerally*.

    Data-plane segments belong to the client (or to one batch dispatch)
    and are unlinked the moment the request completes — memoizing the
    attachment (:func:`attach_cached`) would pin dead segments' pages in
    a long-lived worker, so the mapping only lives for the codec call.
    Attach failures surface as :class:`ServiceError` (the segment owner
    vanished mid-request), not as a worker crash.
    """
    if isinstance(arr, ShmDescriptor):
        try:
            with attached_view(arr) as view:
                yield view
        except OSError as exc:
            raise ServiceError(
                f"cannot attach payload segment {arr.name!r}: {exc}"
            ) from exc
    else:
        yield arr


#: One worker task: (op-specific body, trace ctx, capture spans?, parent pid).
#: ``ctx`` is this request's pre-minted dispatch-span context; ``capture``
#: asks a *remote* worker (pid != parent) to run under fresh local
#: telemetry and ship its span subtree back for re-ingest.
BatchTask = tuple  # (body, TraceContext | None, bool, int)


def _traced_worker(fn, task: BatchTask) -> tuple[Any, list[dict] | None]:
    """Run ``fn`` on the task body under the task's trace context.

    In the batcher's own process (serial batches, inline ``process_map``)
    the global telemetry is already live and spans land in the server
    tracer directly.  In a worker process the parent's telemetry is not
    active: when span capture was requested, run under a fresh local
    telemetry and return the span subtree (as dicts) for the dispatcher
    to re-ingest under the originating dispatch span.
    """
    body, ctx, capture, parent_pid = task
    remote = os.getpid() != parent_pid
    with trace_context.use(ctx):
        if capture and remote:
            with enabled_telemetry() as tm:
                result = fn(body)
            return result, [s.to_dict() for s in tm.tracer.finished_spans()]
        return fn(body), None


def _compress_task(
    spec: tuple[str, dict, str, float],
    task: BatchTask,
) -> tuple[CompressedBuffer | ReproError, list[dict] | None]:
    """Worker body for one COMPRESS request of a coalesced batch.

    Library errors are *returned*, not raised: one request with, say, an
    integer array must fail alone, not take down the whole batch it was
    coalesced into (the dispatcher resolves exception results into
    per-request error replies).
    """
    name, options, mode, value = spec

    def body(arr):
        try:
            knob = KNOB_FOR_MODE.get(mode)
            if knob is None:
                raise ServiceError(
                    f"unknown mode {mode!r}; known: {sorted(KNOB_FOR_MODE)}"
                )
            compressor = get_compressor(name, **options)
            with _payload_view(arr) as view:
                return compressor.compress(view, mode=mode, **{knob: value})
        except ReproError as exc:
            return exc

    return _traced_worker(body, task)


def _decompress_task(
    spec: tuple[str, dict],
    task: BatchTask,
) -> tuple[np.ndarray | ReproError, list[dict] | None]:
    """Worker body for one DECOMPRESS request of a coalesced batch."""
    name, options = spec

    def body(buf_fields):
        payload, shape, dtype, mode, parameter = buf_fields
        try:
            if isinstance(payload, ShmDescriptor):
                # Compressed streams are consumed as bytes; one copy out
                # of the segment replaces the whole socket round trip.
                with _payload_view(payload) as view:
                    payload = view.tobytes()
            buf = CompressedBuffer(
                payload=payload,
                original_shape=tuple(shape),
                original_dtype=np.dtype(dtype),
                mode=CompressorMode(mode),
                parameter=float(parameter),
            )
            compressor = get_compressor(name, **options)
            return compressor.decompress(buf)
        except ReproError as exc:
            return exc
        except (TypeError, ValueError) as exc:  # bad mode/dtype/shape fields
            return ServiceError(f"bad decompress fields: {exc}")

    return _traced_worker(body, task)


class Batcher:
    """Admission queue + coalescing dispatcher (see module docstring)."""

    def __init__(
        self,
        max_pending: int = 64,
        batch_window_s: float = 0.002,
        max_batch: int = 64,
        workers: int | None = None,
    ) -> None:
        self.queue: asyncio.Queue[PendingRequest] = asyncio.Queue(
            maxsize=max(1, max_pending)
        )
        self.batch_window_s = batch_window_s
        self.max_batch = max(1, max_batch)
        self.workers = workers
        self._task: asyncio.Task | None = None
        self._closed = False

    # -- admission (backpressure boundary) --------------------------------

    def admit(self, request: PendingRequest) -> bool:
        """Enqueue without blocking; ``False`` means BUSY (queue full)."""
        tm = get_telemetry()
        if self._closed:
            return False
        try:
            self.queue.put_nowait(request)
        except asyncio.QueueFull:
            tm.count("service.rejected_busy")
            return False
        tm.set_gauge("service.queue_depth", float(self.queue.qsize()))
        return True

    @property
    def depth(self) -> int:
        return self.queue.qsize()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-service-batcher"
            )

    async def drain(self) -> None:
        """Stop admitting, finish everything queued, stop the consumer."""
        self._closed = True
        await self.queue.join()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    # -- consumer ----------------------------------------------------------

    async def _collect(self) -> list[PendingRequest]:
        """One admission wave: first request + window's worth of stragglers."""
        batch = [await self.queue.get()]
        if self.batch_window_s > 0 and len(batch) < self.max_batch:
            await asyncio.sleep(self.batch_window_s)
        while len(batch) < self.max_batch:
            try:
                batch.append(self.queue.get_nowait())
            except asyncio.QueueEmpty:
                break
        get_telemetry().set_gauge(
            "service.queue_depth", float(self.queue.qsize())
        )
        return batch

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            wave = await self._collect()
            try:
                groups: dict[tuple, list[PendingRequest]] = {}
                for request in wave:
                    groups.setdefault(request.group_key(), []).append(request)
                for group in groups.values():
                    await self._dispatch(loop, group)
            finally:
                for _ in wave:
                    self.queue.task_done()

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
        self, loop: asyncio.AbstractEventLoop, group: list[PendingRequest]
    ) -> None:
        group = self._expire(group)
        if not group:
            return
        tm = get_telemetry()
        tm.count("service.batches")
        tm.count("service.batched_requests", len(group))
        tm.observe("service.batch_size", float(len(group)))
        op = group[0].op
        compressor = group[0].header.get("compressor")
        # Pre-mint each request's dispatch-span identity: workers receive
        # it *before* the span itself is recorded, so codec-stage spans
        # captured remotely already carry the right ctx parent when they
        # come back for re-ingest.
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
        capture = traced
        parent_pid = os.getpid()
        try:
            if op in ("compress", "decompress"):
                run_batch = (
                    self._run_compress_batch if op == "compress"
                    else self._run_decompress_batch
                )
                results = await loop.run_in_executor(
                    None,
                    partial(
                        run_batch, group, dispatch_ctxs, capture, parent_pid
                    ),
                )
            else:  # one sweep per group by construction
                results = [
                    await loop.run_in_executor(
                        None,
                        partial(
                            self._run_sweep_traced, group[0], dispatch_ctxs[0]
                        ),
                    )
                ]
        except BaseException as exc:  # a batch failure fails every member
            for request in group:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        if traced:
            dispatch_end = tm.tracer.now()
            dispatch_ms = (dispatch_end - dispatch_start) * 1e3
            tm.observe(f'service.dispatch_ms{{op="{op}"}}', dispatch_ms)
            if compressor:
                tm.observe(
                    f'service.dispatch_ms{{op="{op}",'
                    f'compressor="{compressor}"}}',
                    dispatch_ms,
                )
        for request, dctx, (result, wspans) in zip(
            group, dispatch_ctxs, results
        ):
            if traced:
                if wspans:
                    tm.tracer.ingest(wspans)
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
                        batch_size=len(group),
                        **attrs,
                    )
            if not request.future.done():
                if isinstance(result, BaseException):
                    request.future.set_exception(result)
                else:
                    request.future.set_result(result)

    # -- batch bodies (run on the default thread-pool executor) ------------

    def _run_compress_batch(
        self,
        group: list[PendingRequest],
        ctxs: list[TraceContext | None],
        capture: bool,
        parent_pid: int,
    ) -> list:
        h = group[0].header
        spec = (
            h.get("compressor"),
            dict(h.get("options") or {}),
            h.get("mode"),
            h.get("value"),
        )
        # A request that already arrived through shared memory keeps its
        # descriptor — the worker attaches the *client's* segment, no
        # copy and no re-publish.  Only inline payloads are considered
        # for batch-local publishing below.
        arrays = [
            r.shm if r.shm is not None
            else protocol.unpack_array(r.header, r.payload)
            for r in group
        ]
        nworkers = resolve_workers(self.workers)
        published: list[SharedArray] = []
        bodies: list[Any] = arrays
        if nworkers > 1 and len(group) > 1 and shm_enabled():
            bodies = []
            for arr in arrays:
                if (
                    isinstance(arr, np.ndarray)
                    and arr.nbytes >= SHM_MIN_BYTES
                ):
                    handle = SharedArray.publish(np.ascontiguousarray(arr))
                    published.append(handle)
                    bodies.append(handle.descriptor())
                else:
                    bodies.append(arr)
        tasks = [
            (body, ctx, capture, parent_pid)
            for body, ctx in zip(bodies, ctxs)
        ]
        try:
            return process_map(
                partial(_compress_task, spec), tasks, workers=self.workers
            )
        finally:
            for handle in published:
                handle.unlink()

    def _run_decompress_batch(
        self,
        group: list[PendingRequest],
        ctxs: list[TraceContext | None],
        capture: bool,
        parent_pid: int,
    ) -> list:
        h = group[0].header
        spec = (h.get("compressor"), dict(h.get("options") or {}))
        tasks = [
            (
                (
                    r.shm if r.shm is not None else r.payload,
                    tuple(r.header.get("shape") or ()),
                    r.header.get("dtype"),
                    r.header.get("mode"),
                    r.header.get("parameter"),
                ),
                ctx,
                capture,
                parent_pid,
            )
            for r, ctx in zip(group, ctxs)
        ]
        return process_map(
            partial(_decompress_task, spec), tasks, workers=self.workers
        )

    def _run_sweep_traced(
        self, request: PendingRequest, ctx: TraceContext | None
    ) -> tuple[Any, None]:
        """One sweep under the request's dispatch context.

        ``run_in_executor`` does not propagate contextvars, so the
        executor thread activates the context explicitly; CBench cell
        spans (and, via :func:`process_map`, worker-process subtrees)
        then chain under the dispatch span.
        """
        with trace_context.use(ctx):
            return self._run_sweep(request), None

    def _run_sweep(self, request: PendingRequest):
        """Server-side CBench fan-out for one SWEEP request.

        Imported lazily (CBench pulls in the whole foresight stack) and
        injected by the server via ``sweep_runner`` so the batcher stays
        free of service policy (cache wiring, record shaping).
        """
        if self.sweep_runner is None:
            raise ServiceError("this server does not accept SWEEP")
        return self.sweep_runner(request)

    #: Assigned by the server: callable(PendingRequest) -> list[dict].
    sweep_runner = None
