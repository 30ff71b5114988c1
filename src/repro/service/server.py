"""The compression daemon: an asyncio TCP server over the batcher.

``CompressionService`` serves MSG1 frames (:mod:`repro.service.protocol`)
and turns requests into codec dispatches (:mod:`repro.service.batch`)
through the same registry / executor / shm / cache layers the batch
CLIs use, so a byte compressed through the daemon is identical to one
from :func:`repro.compressors.registry.get_compressor`.

============= ================================================================
op            semantics
============= ================================================================
COMPRESS      one ndarray in, one compressed stream out
DECOMPRESS    one compressed stream in, one ndarray out
SWEEP         server-side CBench cells over one field; rows out (cached)
SESSION_OPEN  open a stateful temporal stream (docs/INSITU.md)
SESSION_STEP  one snapshot in, one TMP1 stream out; echoes the reference digest
SESSION_CLOSE tear down a session; returns its step/byte accounting
HELLO         capability negotiation (``pipeline``, ``shm``); never queued
CANCEL        best-effort cancel of a queued request of the same connection
LIST          registered compressor names
HEALTH        liveness + drain state + queue depth (never queued)
STATS         counters, dispatches, bytes, p50/p99 latency, open sessions
METRICS       the same registry in Prometheus text exposition format
============= ================================================================

Connections, accounting, error replies, HELLO, CANCEL and drain are
:class:`repro.service.core.FrameServer`'s (shared with the router);
frames of one connection run concurrently, replies correlated by the
echoed ``id``.  **Shared memory:** a request with an ``shm`` field ships
its payload as a client-owned segment the daemon attaches read-only for
the codec call; one offering ``reply_shm`` gets its bulk reply written
there (``shm_nbytes``).  The daemon never owns a data-plane segment.
Control-plane ops bypass the admission queue.  **Tracing:** a request
carrying a ``trace`` field is served under that trace (request, queue
wait, dispatch and codec spans); ``trace_out`` dumps every span as JSONL
at drain.  **Backpressure:** a full queue answers ``busy`` with
``retry_after_ms``; during drain (SIGTERM or :meth:`request_drain`) new
work is refused ``draining`` while admitted work finishes.
"""

from __future__ import annotations

import asyncio
import threading
import time
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.cache import ResultCache
from repro.cache.store import data_digest, make_key
from repro.compressors.base import CompressedBuffer, CompressorMode
from repro.compressors.registry import available_compressors
from repro.compressors.temporal import TemporalCompressor
from repro.errors import DataError, ProtocolError, ServiceError
from repro.parallel.shm import SharedArray, ShmDescriptor, shm_enabled
from repro.service import protocol
from repro.service.batch import (
    KNOB_FOR_MODE,
    Batcher,
    PendingRequest,
    jsonable,
)
from repro.service.core import (
    RETRY_AFTER_MS,
    SPAN_RETENTION,
    Connection,
    FrameServer,
    Reply,
    ServerThread,
    logger,
)
from repro.service.sessions import Session, SessionTable, new_session_id
from repro.telemetry import get_telemetry
from repro.telemetry import context as trace_context


class CompressionService(FrameServer):
    """Long-lived compression daemon (see module docstring).

    >>> service = CompressionService(port=0)           # doctest: +SKIP
    >>> asyncio.run(service.serve())                   # doctest: +SKIP

    ``workers`` is how many dispatches run at once, each on a codec
    thread of this process (``None`` or ``0``: one per core; see
    :mod:`repro.service.batch`).  It is also the worker-process count of
    a SWEEP's CBench cell fan-out (``None``: ``$REPRO_WORKERS``).
    ``cache`` (a directory or :class:`~repro.cache.ResultCache`) serves
    repeat SWEEPs warm.
    """

    role = "daemon"
    ns = "service"
    control_ops = frozenset({"health", "stats", "metrics", "list"})

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_pending: int = 64,
        workers: int | None = None,
        cache: ResultCache | str | None = None,
        default_timeout_s: float | None = None,
        trace_out: str | None = None,
        shard_id: str | None = None,
        backend: str | None = None,
        max_sessions: int = 64,
        session_idle_s: float = 300.0,
    ) -> None:
        super().__init__(host, port, trace_out)
        #: Kernel tier (``numpy``/``native``/``auto``) this
        #: daemon serves with; installed process-wide at :meth:`start`
        #: and restored at shutdown (embedding processes keep theirs).
        self.backend = backend
        self._saved_backend: str | None = None
        self._installed_backend = False
        self.default_timeout_s = default_timeout_s
        #: Fleet identity (``serve --shard-id``): stamped on every reply
        #: header and on Prometheus samples as a ``shard`` label, so a
        #: cluster's aggregated views stay attributable (docs/CLUSTER.md).
        self.shard_id = shard_id
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.batcher = Batcher(max_pending=max_pending, workers=workers)
        #: Stateful temporal-compression streams (docs/INSITU.md).
        self.sessions = SessionTable(
            max_sessions=max_sessions, idle_s=session_idle_s
        )
        # Span-harvest state: how many finished spans have been folded
        # into the stage-time counters, plus child durations whose parent
        # span had not finished at harvest time (needed for self-time).
        self._harvest_mark = 0
        self._harvest_lock = threading.Lock()
        self._orphan_child_s: dict[Any, float] = {}

    # -- what the connection core asks of a front-end ----------------------

    def _caps(self) -> list[str]:
        caps = [protocol.CAP_PIPELINE]
        if shm_enabled():
            caps.append(protocol.CAP_SHM)
        return caps

    async def _open(self) -> None:
        from repro import kernels

        if self.backend is not None:
            self._saved_backend = kernels.current_override()
            kernels.set_backend(self.backend)
            self._installed_backend = True
        # Resolve every kernel before the socket binds: the first
        # requests of a cold daemon run concurrently, and none of them
        # should pay (or race) the native library's build and load.
        for kernel, tier in kernels.active().items():
            logger.info("kernel %s -> %s", kernel, tier)
        self.batcher.start()

    async def _finish_admitted(self) -> None:
        await self.batcher.drain()  # queued work finishes, however long

    async def _close(self) -> None:
        await self.batcher.close()
        if self._installed_backend:
            from repro import kernels

            kernels.set_backend(self._saved_backend)
            self._installed_backend = False

    async def _dispatch(
        self, conn: Connection, op: str, header: dict[str, Any],
        payload: bytes, reply: Reply,
    ) -> None:
        if op == "health":
            await reply(self._health())
        elif op == "stats":
            await reply(self._stats())
        elif op == "metrics":
            text, ctype = self._metrics()
            await reply(
                {"status": "ok", "content_type": ctype}, text.encode("utf-8")
            )
        elif op == "list":
            await reply(
                {"status": "ok", "compressors": available_compressors()}
            )
        elif op in ("compress", "decompress", "sweep"):
            await self._serve_queued(conn, op, header, payload, reply)
        elif op in ("session_open", "session_step", "session_close"):
            await self._serve_session(conn, op, header, payload, reply)
        else:
            await reply(
                {"status": "error", "code": "bad_op",
                 "error": f"unknown op {op!r}"}
            )

    async def _admit(
        self,
        conn: Connection,
        op: str,
        header: dict[str, Any],
        payload: bytes,
        reply: Reply,
        body: Callable[[np.ndarray], Any] | None = None,
    ) -> tuple[Any, tuple[str, int] | None] | None:
        """Admit a data-plane request and await its result.

        Returns ``(result, offered reply segment)``; ``None`` means an
        error, ``busy`` or ``deadline`` reply went out already.  ``body``
        is a server-owned op's work (:attr:`PendingRequest.body`).
        """
        tm = get_telemetry()
        shm_desc = None
        if protocol.SHM_FIELD in header:
            shm_desc = protocol.parse_shm(header[protocol.SHM_FIELD])
            if shm_desc.nbytes > protocol.MAX_PAYLOAD_BYTES:
                raise ProtocolError(
                    f"shm payload of {shm_desc.nbytes} bytes exceeds cap "
                    f"{protocol.MAX_PAYLOAD_BYTES}"
                )
            if not shm_enabled():
                await reply(
                    {"status": "error", "code": "shm_unavailable",
                     "error": "REPRO_NO_SHM is set on the server"}
                )
                return None
            # Fail fast, here and with a clean code, when the segment is
            # gone or short; whoever consumes the data attaches again.
            try:
                SharedArray.attach(shm_desc).close()
            except (DataError, OSError) as exc:
                tm.count("service.shm_attach_errors")
                await reply(
                    {"status": "error", "code": "shm_attach",
                     "error": f"{type(exc).__name__}: {exc}"}
                )
                return None
            tm.count("service.shm_requests")
            tm.count("service.bytes_in", shm_desc.nbytes)
        reply_shm = None
        if protocol.REPLY_SHM_FIELD in header and shm_enabled():
            reply_shm = protocol.parse_reply_shm(
                header[protocol.REPLY_SHM_FIELD]
            )
        timeout_ms = header.get("timeout_ms")
        if timeout_ms is None and self.default_timeout_s is not None:
            timeout_ms = self.default_timeout_s * 1e3
        deadline = (None if timeout_ms is None
                    else time.perf_counter() + float(timeout_ms) / 1e3)
        request = PendingRequest(
            op=op,
            header=header,
            payload=payload,
            future=asyncio.get_running_loop().create_future(),
            deadline=deadline,
            # Inside the service.request span the contextvar points at
            # that span's identity — queue/dispatch spans parent there.
            ctx=trace_context.current(),
            request_seq=self._requests_total,
            shm=shm_desc,
            body=body,
        )
        if not self.batcher.admit(request, self._inflight):
            await reply(
                {"status": "busy", "code": "busy",
                 "retry_after_ms": RETRY_AFTER_MS}
            )
            return None
        # While it waits, a CANCEL frame can revoke the request (the core
        # then answers it ``cancelled``) — except a session step: once on
        # a codec thread it advances the encoder reference whether or
        # not anyone waits for it.
        rid = None if op == "session_step" else header.get("id")
        try:
            if request.future.done():  # served on the loop thread already
                result = request.future.result()
            else:
                with conn.cancellable(rid, request.future):
                    result = await request.future
        except TimeoutError as exc:
            await reply(
                {"status": "error", "code": "deadline", "error": str(exc)}
            )
            return None
        except asyncio.CancelledError:
            request.future.cancel()  # revoked or torn down: drop the work
            raise
        return result, reply_shm

    async def _serve_queued(
        self,
        conn: Connection,
        op: str,
        header: dict[str, Any],
        payload: bytes,
        reply: Reply,
    ) -> None:
        """Serve a COMPRESS, DECOMPRESS or SWEEP through the batcher."""
        body = partial(self._sweep_records, header) if op == "sweep" else None
        admitted = await self._admit(conn, op, header, payload, reply, body)
        if admitted is None:
            return
        result, reply_shm = admitted
        if op == "compress":
            await self._buffer_reply(
                reply, result, reply_shm, compressor=header.get("compressor")
            )
        elif op == "decompress":
            arr: np.ndarray = result
            await self._bulk_reply(
                reply,
                {"status": "ok", **protocol.array_fields(arr)},
                np.ascontiguousarray(arr),
                reply_shm,
            )
        else:  # sweep
            await reply({"status": "ok", "records": result})

    # -- SESSION bodies (stateful temporal streams, docs/INSITU.md) --------

    async def _serve_session(
        self,
        conn: Connection,
        op: str,
        header: dict[str, Any],
        payload: bytes,
        reply: Reply,
    ) -> None:
        """Serve SESSION_OPEN / SESSION_STEP / SESSION_CLOSE.

        A session step is admitted and dispatched by the batcher like a
        COMPRESS, under the session's lock: delta coding is
        order-dependent, so steps of one session serialize on it while
        different sessions proceed concurrently on codec slots.  The
        codec's encoder reference lives here, daemon-side; the reply
        echoes the post-step reference digest so a desynced client fails
        fast instead of decoding garbage.
        """
        tm = get_telemetry()
        if op == "session_open":
            await reply(self._session_open(header))
            return
        sid = header.get(protocol.SESSION_FIELD)
        if not sid:
            raise ProtocolError(f"{op.upper()} needs a 'session' field")
        sid = str(sid)
        if op == "session_close":
            session = self.sessions.close(sid)
            if session is None:
                await reply(
                    {"status": "error", "code": "no_session",
                     "error": f"no open session {sid!r}"}
                )
                return
            tm.count("service.session_closes")
            await reply(
                {"status": "ok", protocol.SESSION_FIELD: sid,
                 "steps": session.steps,
                 "bytes_in": session.bytes_in,
                 "bytes_out": session.bytes_out}
            )
            return
        session = self.sessions.get(sid)
        if session is None:
            await reply(
                {"status": "error", "code": "no_session",
                 "error": f"no open session {sid!r} "
                          "(never opened, closed, evicted, or opened on "
                          "a different shard)"}
            )
            return
        async with session.lock:
            # Fail fast on desync: the client tracks the reference digest
            # it expects the daemon to hold; a mismatch means a lost or
            # reordered step and the delta stream would decode garbage.
            if "expect_ref" in header:
                want = header["expect_ref"]
                have = session.codec.encode_reference_digest
                if want != have:
                    tm.count("service.session_desyncs")
                    await reply(
                        {"status": "error", "code": "session_desync",
                         "error": f"session {sid!r} holds reference "
                                  f"{have or 'nothing'}, client expected "
                                  f"{want or 'nothing'}"}
                    )
                    return
            # The session rides with the request: a SESSION_CLOSE racing
            # a queued step still lets the step finish.
            admitted = await self._admit(
                conn, "session_step", header, payload, reply,
                partial(self._session_encode, session),
            )
        if admitted is None:
            return
        (buf, cache_state, nbytes_in), reply_shm = admitted
        session.steps += 1
        session.bytes_in += nbytes_in
        session.bytes_out += len(buf.payload)
        tm.count("service.session_steps")
        tm.count("service.session_bytes_in", nbytes_in)
        tm.count("service.session_bytes_out", len(buf.payload))
        await self._buffer_reply(
            reply, buf, reply_shm,
            **{protocol.SESSION_FIELD: sid},
            step=buf.meta["step"],
            keyframe=buf.meta["keyframe"],
            ref=buf.meta["ref_after"],
            cache=cache_state,
        )

    def _session_open(self, header: dict[str, Any]) -> dict[str, Any]:
        compressor = str(header.get("compressor", "sz"))
        options = header.get("options") or {}
        if not isinstance(options, dict):
            raise ProtocolError("'options' must be a JSON object")
        mode = str(header.get("mode", "abs"))
        knob = KNOB_FOR_MODE.get(mode)
        if knob is None:
            raise ProtocolError(
                f"unknown mode {mode!r}; known: {sorted(KNOB_FOR_MODE)}"
            )
        if header.get("value") is None:
            raise ProtocolError("SESSION_OPEN needs a 'value' (knob value)")
        value = float(header["value"])
        keyframe_every = int(header.get("keyframe_every", 8))
        codec = TemporalCompressor(
            inner=compressor,
            keyframe_every=keyframe_every,
            inner_options=options,
        )
        codec.check_mode(CompressorMode(mode))
        sid = str(header.get(protocol.SESSION_FIELD) or new_session_id())
        self.sessions.open(Session(
            session_id=sid,
            codec=codec,
            compressor=compressor,
            options=dict(options),
            mode=mode,
            value=value,
            keyframe_every=keyframe_every,
        ))
        get_telemetry().count("service.session_opens")
        return {
            "status": "ok",
            protocol.SESSION_FIELD: sid,
            "compressor": compressor,
            "mode": mode,
            "value": value,
            "keyframe_every": keyframe_every,
        }

    def _session_encode(
        self, session: Session, arr: np.ndarray
    ) -> tuple[CompressedBuffer, str, int]:
        """One session step on a codec thread (session lock held)."""
        codec = session.codec
        knob = KNOB_FOR_MODE[session.mode]
        nbytes_in = int(arr.nbytes)
        if self.cache is None:
            buf = codec.compress(
                arr, mode=session.mode, **{knob: session.value}
            )
            return buf, "off", nbytes_in
        # Stateful cache identity: the emitted bytes depend on the
        # codec's position in the stream (step index, reference snapshot,
        # keyframe cadence), so all three fold into the key — two
        # sessions at the same (codec, bound, data) stay distinct.
        key = make_key(
            f"temporal:{session.compressor}",
            session.options,
            session.mode,
            knob,
            session.value,
            data_digest(arr),
            reference=(
                f"{codec.step}:{codec.encode_reference_digest or '-'}"
                f":{session.keyframe_every}"
            ),
        )
        entry = self.cache.get(key)
        if entry is not None:
            buf = CompressedBuffer(
                payload=entry["payload"],
                original_shape=tuple(entry["shape"]),
                original_dtype=np.dtype(entry["dtype"]),
                mode=CompressorMode(entry["mode"]),
                parameter=entry["parameter"],
                meta=dict(entry["meta"]),
            )
            # The cached bytes are exactly what compress() would emit;
            # the encoder reference must still advance through them.
            codec.advance_with(buf)
            return buf, "hit", nbytes_in
        buf = codec.compress(arr, mode=session.mode, **{knob: session.value})
        self.cache.put(key, {
            "payload": buf.payload,
            "shape": list(buf.original_shape),
            "dtype": np.dtype(buf.original_dtype).str,
            "mode": buf.mode.value,
            "parameter": buf.parameter,
            "meta": dict(buf.meta),
        })
        return buf, "miss", nbytes_in

    async def _buffer_reply(
        self,
        reply: Reply,
        buf: CompressedBuffer,
        reply_shm: tuple[str, int] | None,
        **fields: Any,
    ) -> None:
        """Answer with a compressed stream: ``fields`` plus everything
        the client needs to rebuild the :class:`CompressedBuffer`."""
        await self._bulk_reply(
            reply,
            {
                "status": "ok",
                **fields,
                "mode": buf.mode.value,
                "parameter": buf.parameter,
                "dtype": np.dtype(buf.original_dtype).str,
                "shape": list(buf.original_shape),
                "compression_ratio": buf.compression_ratio,
                "bitrate": buf.bitrate,
                "meta": jsonable(buf.meta),
            },
            np.frombuffer(buf.payload, dtype=np.uint8),
            reply_shm,
            raw=buf.payload,
        )

    async def _bulk_reply(
        self,
        reply: Reply,
        h: dict[str, Any],
        body: np.ndarray,
        reply_shm: tuple[str, int] | None,
        raw: bytes | None = None,
    ) -> None:
        """Send a bulk reply — through the offered scratch segment if the
        result fits, inline otherwise (the client handles both)."""
        tm = get_telemetry()
        if (
            reply_shm is not None
            and protocol.SHM_MIN_BYTES <= body.nbytes <= reply_shm[1]
        ):
            name, _ = reply_shm
            try:
                handle = SharedArray.attach(ShmDescriptor(
                    name=name, shape=(body.nbytes,), dtype="|u1"
                ))
            except (DataError, OSError):
                tm.count("service.reply_shm_errors")
            else:
                try:
                    view = handle.view(body.shape, body.dtype)
                    view.flags.writeable = True
                    view[...] = body
                finally:
                    handle.close()
                tm.count("service.shm_replies")
                h[protocol.SHM_NBYTES_FIELD] = body.nbytes
                await reply(h)
                return
        await reply(h, raw if raw is not None else body.tobytes())

    # -- control-plane bodies ---------------------------------------------

    def _health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "draining": self.draining,
            "uptime_s": time.perf_counter() - self._started,
            "queue_depth": self.batcher.depth,
            "requests_total": self._requests_total,
        }

    def _stats(self) -> dict[str, Any]:
        tm = get_telemetry()
        self._harvest_spans()
        from repro import kernels

        out: dict[str, Any] = {
            "status": "ok",
            "uptime_s": time.perf_counter() - self._started,
            "queue_depth": self.batcher.depth,
            "requests_total": self._requests_total,
            "requests_inflight": max(0, self._inflight - 1),  # excl. STATS
            "latency": self._latency_summary(),
            "kernels": {
                "requested": kernels.requested_backend(),
                "active": kernels.active(),
                "tripped": {
                    f"{backend}:{kernel}": reason
                    for (backend, kernel), reason in kernels.REGISTRY.tripped().items()
                },
            },
            "metrics": (
                tm.metrics.snapshot() if tm.enabled else {}
            ),
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats.to_dict()
        self.sessions.evict_idle()
        out["sessions"] = self.sessions.to_dict()
        return out

    def _metrics(self) -> tuple[str, str]:
        """The registry rendered for Prometheus (text, content-type)."""
        from repro import kernels
        from repro.telemetry.exposition import PROM_CONTENT_TYPE, render_prometheus

        tm = get_telemetry()
        self._harvest_spans()
        if tm.enabled:
            # Resolved tier per codec stage, for the fleet view / top.
            kernels.publish_gauges(tm)
        extra_gauges = {
            "service_uptime_seconds": time.perf_counter() - self._started,
            "service_queue_depth_now": float(self.batcher.depth),
        }
        extra_labels = (
            {"shard": self.shard_id} if self.shard_id is not None else None
        )
        text = render_prometheus(
            tm.metrics if tm.enabled else None,
            extra_gauges=extra_gauges,
            extra_labels=extra_labels,
        )
        return text, PROM_CONTENT_TYPE

    def _harvest_spans(self) -> None:
        """Fold spans finished since the last harvest into the registry.

        Each span contributes to three labelled counters —
        ``spans.count{name=...}``, ``spans.seconds{name=...}``, and
        ``spans.self_seconds{name=...}`` (duration minus direct
        children) — so stage-level hot-spot data survives the tracer's
        retention cap and reaches STATS/METRICS consumers (the live
        dashboard's "top stages" panel reads these).
        """
        tm = get_telemetry()
        if not tm.enabled:
            return
        tracer = tm.tracer
        with self._harvest_lock:
            new, self._harvest_mark = tracer.spans_since(self._harvest_mark)
            if not new:
                return
            # Children finish (and are appended) before their parents, so
            # a parent's direct-child time is normally available in the
            # same batch; still-open parents pick theirs up from the
            # orphan carry-over on a later harvest.
            child_s = self._orphan_child_s
            for sp in new:
                d = sp.duration
                if sp.parent_id is not None:
                    child_s[sp.parent_id] = child_s.get(sp.parent_id, 0.0) + d
                elif sp.ctx_parent_id is not None:
                    child_s[sp.ctx_parent_id] = (
                        child_s.get(sp.ctx_parent_id, 0.0) + d
                    )
            for sp in new:
                own = child_s.pop(sp.span_id, 0.0)
                if sp.ctx_id is not None:
                    own += child_s.pop(sp.ctx_id, 0.0)
                self_s = max(0.0, sp.duration - own)
                tm.count(f'spans.count{{name="{sp.name}"}}')
                tm.count(f'spans.seconds{{name="{sp.name}"}}', sp.duration)
                tm.count(f'spans.self_seconds{{name="{sp.name}"}}', self_s)
            if len(child_s) > SPAN_RETENTION:
                child_s.clear()  # parents were dropped; stop the leak

    # -- SWEEP body (runs on a codec-pool thread via the batcher) ----------

    def _sweep_records(
        self, header: dict[str, Any], arr: np.ndarray
    ) -> list[dict[str, Any]]:
        from repro.foresight.cbench import CBench
        from repro.foresight.config import CompressorSweep

        field_name = str(header.get("field", "field"))
        entries = header.get("sweeps")
        if not isinstance(entries, list) or not entries:
            raise ServiceError("SWEEP needs a non-empty 'sweeps' list")
        sweeps = [
            CompressorSweep(
                name=e["name"],
                mode=e.get("mode", "abs"),
                sweep=e.get("sweep", {}),
                options=e.get("options", {}),
            )
            for e in entries
        ]
        bench = CBench(
            {field_name: arr},
            keep_reconstructions=False,
            cache=self.cache,
        )
        records = bench.run_all(
            sweeps, [field_name], workers=self.batcher.workers
        )
        rows = []
        for rec in records:
            row = rec.to_row()
            row["cache"] = rec.meta.get("cache", "miss")
            rows.append(jsonable(row))
        return rows


class ServiceThread(ServerThread):
    """Run a :class:`CompressionService` on a background thread.

    The embedding entry point (tests, benchmarks, notebooks)::

        with ServiceThread(max_pending=16) as service:
            with ServiceClient(port=service.port) as client:
                ...

    The context exit requests a drain and joins the thread.
    """

    server_class = CompressionService
    service = property(lambda self: self.server, doc="The embedded daemon.")
