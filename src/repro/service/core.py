"""The connection core every MSG1 front-end is built on.

The daemon (:mod:`repro.service.server`) and the cluster router
(:mod:`repro.service.cluster`) speak the same protocol, so what is
*about the protocol* rather than about compressing or routing lives
here once:

* :class:`FrameServer` — bind (with a self-installed telemetry domain),
  per-request accounting under the front-end's metric namespace, the
  exception → error-reply map, the ops answered the same everywhere
  (HELLO, CANCEL, the ``draining`` refusal), graceful drain and the
  ``--trace-out`` dump.  A front-end supplies ``role``/``ns``,
  :meth:`~FrameServer._caps`, the :meth:`~FrameServer._open` /
  :meth:`~FrameServer._close` hooks and :meth:`~FrameServer._dispatch`.
* :class:`FrameStream` — the one MSG1 frame cutter and writer on the
  event loop, for both directions of a hop.
* :class:`Connection` — one client connection: a :class:`FrameStream`
  whose frames start at once (at most :data:`PIPELINE_DEPTH` in
  flight), replies in completion order, the CANCEL index.
* :class:`ServerThread` — a front-end on a background thread (tests,
  benchmarks, notebooks).

**HELLO** grants what the client offered ∩ what the front-end supports
(no ``caps`` list: nothing).  **CANCEL** revokes, by ``id``, a request
of the same connection that registered itself cancellable; it is
answered ``code="cancelled"`` and the CANCEL frame ``cancelled: true``.

>>> percentile([0.010, 0.020, 0.030, 0.040], 50)
0.03
>>> Connection().cancel("no-such-id", "service")["cancelled"]
False
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import logging
import signal
import threading
import time
from collections import deque
from typing import Any, Awaitable, Callable, Iterator

from repro.errors import ProtocolError, ReproError, ServiceError
from repro.service import protocol
from repro.telemetry import (DEFAULT_MS_BUCKETS, Bound, NullTelemetry,
                             Telemetry, get_telemetry, set_telemetry)
from repro.telemetry import context as trace_context

logger = logging.getLogger("repro.service")

#: Frames of one connection served concurrently; the next frame is not
#: read until a slot frees up, so a client cannot run further ahead of
#: its replies than this.
PIPELINE_DEPTH = 32

#: Suggested client back-off on a ``busy`` reply (queue full, draining).
RETRY_AFTER_MS = 50

#: How many recent request latencies the percentile window keeps.
LATENCY_WINDOW = 4096

#: Span retention for a self-installed tracer (unless spans are being
#: kept for a ``trace_out`` dump) — bounds long-run memory while the
#: periodic harvest still sees every span via ``Tracer.spans_since``.
#: A retained span costs ~0.5 KiB, so this is ~8 MiB of a daemon's RSS.
SPAN_RETENTION = 1 << 14

#: ``reply(header, body=b"")`` — what :meth:`FrameServer._dispatch` answers with.
Reply = Callable[..., Awaitable[None]]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


class _Resume:
    """The rest of a frame whose first step suspended on ``waiting``:
    ``await``-ed by the frame's task, it drives ``coro`` on as the task
    would, each step in ``ctx`` (where the first ran, so its context
    variable tokens stay valid)."""

    __slots__ = ("coro", "waiting", "ctx")

    def __init__(self, coro: Any, waiting: Any, ctx: contextvars.Context) -> None:
        self.coro, self.waiting, self.ctx = coro, waiting, ctx

    def __await__(self):
        coro, waiting, run = self.coro, self.waiting, self.ctx.run
        while True:
            try:
                sent = yield waiting
            except BaseException as exc:  # a cancel: the frame answers it
                step, arg = coro.throw, exc
            else:
                step, arg = coro.send, sent
            try:
                waiting = run(step, arg)
            except StopIteration as stop:
                return stop.value


class FrameStream(asyncio.Protocol):
    """One MSG1 byte stream on the event loop, either end of it: frames
    are cut as bytes arrive and handed to :meth:`frame_received`, a
    malformed one to :meth:`frame_error`.  :meth:`write_frame` writes a
    whole frame at once, so concurrent writers need no lock; a writer
    awaits :meth:`drain` while the transport's buffer is above its high
    mark."""

    transport: Any = None

    def __init__(self) -> None:
        self.buf = bytearray()
        #: Set while the transport's write buffer is above its high mark.
        self.unpaused: asyncio.Future | None = None

    def connection_made(self, transport: Any) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        self.buf += data
        self._cut()

    def _cut(self) -> None:
        buf, size = self.buf, protocol.PREFIX.size
        while len(buf) >= size and self._reading():
            try:
                hlen, plen = protocol.parse_prefix(bytes(buf[:size]))
                if len(buf) < size + hlen + plen:
                    return
                with memoryview(buf) as view:
                    header = protocol.decode_header(bytes(view[size:size + hlen]))
                    payload = bytes(view[size + hlen:size + hlen + plen])
            except ProtocolError as exc:
                self.frame_error(exc)
                self.transport.close()  # a stream cannot resync
                return
            del buf[:size + hlen + plen]
            self.frame_received(header, payload)

    def _reading(self) -> bool:
        """Whether the next frame is cut now."""
        return not self.transport.is_closing()

    def frame_received(self, header: dict[str, Any], payload: bytes) -> None:
        raise NotImplementedError

    def frame_error(self, exc: ProtocolError) -> None:
        """A malformed frame, just before the stream closes."""

    def write_frame(self, header: dict[str, Any], payload: bytes = b"") -> None:
        """Write one frame; a large payload as a buffer of its own (the
        concatenation would be one more copy of it)."""
        if len(payload) >= protocol._WRITE_SPLIT_BYTES:
            raw = protocol.encode_header(header)
            if len(raw) > protocol.MAX_HEADER_BYTES:
                raise ProtocolError(f"header too large: {len(raw)} bytes")
            self.transport.write(
                protocol.PREFIX.pack(protocol.MAGIC, len(raw), len(payload)) + raw
            )
            self.transport.write(payload)
        else:
            self.transport.write(protocol.encode_frame(header, payload))

    async def drain(self) -> None:
        while (unpaused := self.unpaused) is not None:
            await asyncio.shield(unpaused)  # a cancelled waiter leaves it be
        if self.transport.is_closing():
            raise ConnectionResetError("connection lost")

    def pause_writing(self) -> None:
        self.unpaused = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        if self.unpaused is not None:
            self.unpaused.set_result(None)
            self.unpaused = None

    def connection_lost(self, exc: Exception | None) -> None:
        self.resume_writing()


class Connection(FrameStream):
    """One client connection of a :class:`FrameServer`, and the writer
    of its replies.  Each frame starts as it is cut, in a context of its
    own.  One served without suspending (a loop-thread request) needs no
    task; one that suspends continues as one, at most
    :data:`PIPELINE_DEPTH` per connection (reading pauses meanwhile).
    ``inflight`` maps a request ``id`` to something with a ``cancel()``
    while a CANCEL frame can still revoke it."""

    def __init__(self, server: "FrameServer | None" = None) -> None:
        super().__init__()
        self.server = server
        self.inflight: dict[Any, Any] = {}
        self.cancelled: set[Any] = set()
        self.tasks: set[asyncio.Task] = set()

    def connection_made(self, transport: Any) -> None:
        super().connection_made(transport)
        self.lost = asyncio.get_running_loop().create_future()
        self.server._connections.add(self)

    def _reading(self) -> bool:
        if len(self.tasks) < PIPELINE_DEPTH:
            return super()._reading()
        self.transport.pause_reading()  # until a frame ends
        return False

    def frame_received(self, header: dict[str, Any], payload: bytes) -> None:
        server = self.server
        server._inflight += 1
        ctx = contextvars.copy_context()
        coro = server._serve_frame(self, header, payload)
        try:
            waiting = ctx.run(coro.send, None)
        except StopIteration:
            server._frame_done()
            return
        except Exception:  # what a frame task would have logged
            server._frame_done()
            logger.exception("unhandled error serving a frame")
            return
        task = asyncio.ensure_future(_Resume(coro, waiting, ctx))
        self.tasks.add(task)
        task.add_done_callback(self._frame_ended)

    def frame_error(self, exc: ProtocolError) -> None:
        # Malformed framing: answer before the hang-up.
        get_telemetry().count(f"{self.server.ns}.protocol_errors")
        self.write_frame({"status": "error", "code": "protocol", "error": str(exc)})

    def eof_received(self) -> None:
        if self.buf and len(self.tasks) < PIPELINE_DEPTH:  # hung up mid-frame
            get_telemetry().count(f"{self.server.ns}.protocol_errors")

    def _frame_ended(self, task: asyncio.Task) -> None:
        # A done-callback, not a ``finally`` in the task: it also runs
        # for a frame task cancelled before its first step.
        self.tasks.discard(task)
        self.server._frame_done()
        self.transport.resume_reading()
        self._cut()

    def connection_lost(self, exc: Exception | None) -> None:
        if exc is not None:
            logger.debug("peer reset: %s", exc)
        self.server._connections.discard(self)
        # In-flight frames can no longer deliver replies anywhere useful.
        for task in self.tasks:
            task.cancel()
        super().connection_lost(exc)
        self.lost.set_result(None)

    # -- CANCEL ------------------------------------------------------------

    @contextlib.contextmanager
    def cancellable(self, rid: Any, handle: Any) -> Iterator[None]:
        """Let a CANCEL frame naming ``rid`` call ``handle.cancel()``
        for the duration of the block (``rid=None``: not cancellable)."""
        if rid is None:
            yield
            return
        self.inflight[rid] = handle
        try:
            yield
        finally:
            if self.inflight.get(rid) is handle:
                del self.inflight[rid]

    def was_cancelled(self, rid: Any) -> bool:
        """True, once, if a CANCEL frame revoked request ``rid``."""
        try:
            self.cancelled.remove(rid)
        except (KeyError, TypeError):  # TypeError: an unhashable id
            return False
        return True

    def cancel(self, target: Any, ns: str) -> dict[str, Any]:
        """Best-effort cancel of the in-flight request with id ``target``."""
        handle = self.inflight.pop(target, None)
        cancelled = bool(handle is not None and handle.cancel())
        if cancelled:
            self.cancelled.add(target)
            get_telemetry().count(f"{ns}.cancelled")
        return {"status": "ok", "op": "cancel", "cancelled": cancelled}


class FrameServer:
    """An asyncio MSG1 endpoint (see module docstring).

    Subclasses set ``role`` (the identity HELLO reports), ``ns`` (the
    metric/span namespace), ``control_ops`` (ops still answered while
    draining) and ``drain_grace_s`` (how long a drain lets requests in
    flight finish and reply before it hangs up on them).
    """

    role = "server"
    ns = "server"
    control_ops: frozenset[str] = frozenset()
    drain_grace_s = 1.0
    #: Stamped on replies as the ``shard`` header field when set.
    shard_id: str | None = None

    def __init__(self, host: str, port: int, trace_out: str | None) -> None:
        self.host = host
        self.port = port
        self.trace_out = trace_out
        self._server: asyncio.AbstractServer | None = None
        self._draining = asyncio.Event()
        self._connections: set[Connection] = set()
        self._started = time.perf_counter()
        self._requests_total = 0
        self._inflight = 0
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._installed_telemetry = False
        ns = self.ns
        #: Per-request instruments, bound once per registry and op label.
        self._meters = Bound(lambda m, _: (
            m.counter(f"{ns}.requests"), m.counter(f"{ns}.bytes_in"),
            m.counter(f"{ns}.bytes_out"), m.gauge(f"{ns}.requests_inflight"),
            m.histogram(f"{ns}.latency_ms", DEFAULT_MS_BUCKETS),
        ))
        self._op_meters = Bound(lambda m, op: (
            m.counter(f"{ns}.requests.{op}"),
            m.histogram(f'{ns}.latency_ms{{op="{op}"}}', DEFAULT_MS_BUCKETS),
        ))

    # -- what a front-end supplies -------------------------------------------

    def _caps(self) -> list[str]:
        """Capabilities this front-end can honor, in canonical order."""
        raise NotImplementedError

    async def _open(self) -> None:
        """Acquire what serving needs, before the listener binds."""

    async def _finish_admitted(self) -> None:
        """Drain step one: wait for work that must not be abandoned."""

    async def _close(self) -> None:
        """Release whatever :meth:`_open` acquired — also after an
        ``_open`` that failed half way."""

    async def _dispatch(
        self, conn: Connection, op: str, header: dict[str, Any],
        payload: bytes, reply: Reply,
    ) -> None:
        """Answer one request that is not HELLO/CANCEL/refused-as-draining."""
        raise NotImplementedError

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start serving; resolves ``self.port`` when it was 0.

        If anything on the way fails, everything acquired so far is
        released again before the exception propagates.
        """
        if get_telemetry().enabled is False:
            # A front-end is its own observability domain: STATS reads
            # the process-wide registry, so serving without telemetry
            # would expose empty counters.  Restored at shutdown — an
            # embedding process (tests, notebooks) must get its
            # NullTelemetry back.  Retention is capped unless spans must
            # survive for trace_out.
            set_telemetry(Telemetry(
                self.ns,
                max_finished=None if self.trace_out else SPAN_RETENTION,
            ))
            self._installed_telemetry = True
        try:
            await self._open()
            self._server = await asyncio.get_running_loop().create_server(
                lambda: Connection(self), self.host, self.port
            )
        except BaseException:
            await self._release()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("%s listening on %s:%d", self.role, self.host, self.port)

    async def serve(self, install_signal_handlers: bool = True) -> None:
        """Run until drained (SIGTERM/SIGINT or :meth:`request_drain`)."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(sig, self.request_drain)
        await self._draining.wait()
        await self._shutdown()

    def request_drain(self) -> None:
        """Begin graceful drain: refuse new work, finish what's admitted."""
        if not self._draining.is_set():
            logger.info("%s drain requested: refusing new work", self.role)
            self._draining.set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    async def _shutdown(self) -> None:
        assert self._server is not None
        self._server.close()  # stop accepting new connections
        await self._server.wait_closed()
        # New work is being refused as draining; what was admitted
        # finishes and replies, then whoever is still parked on a read
        # is hung up on.
        await self._finish_admitted()
        loop = asyncio.get_running_loop()
        give_up = loop.time() + self.drain_grace_s
        while self._inflight and loop.time() < give_up:
            await asyncio.sleep(0.005)
        conns = list(self._connections)
        tasks = [task for conn in conns for task in conn.tasks]
        for conn in conns:
            conn.transport.close()  # its frames are cancelled as it goes
        await asyncio.gather(
            *tasks, *(conn.lost for conn in conns), return_exceptions=True
        )
        logger.info(
            "%s drained after %d request(s); bye",
            self.role, self._requests_total,
        )
        if self.trace_out:
            self._dump_trace()
        await self._release()

    async def _release(self) -> None:
        """Undo :meth:`start`: the subclass's resources, then telemetry."""
        try:
            await self._close()
        finally:
            if self._installed_telemetry:
                set_telemetry(NullTelemetry())
                self._installed_telemetry = False

    def _dump_trace(self) -> None:
        """Write every retained span as JSONL (the ``--trace-out`` dump)."""
        from repro.telemetry import export

        tm = get_telemetry()
        if not tm.enabled:
            return
        spans = tm.tracer.finished_spans()
        try:
            export.write_jsonl(self.trace_out, spans)
            logger.info("wrote %d span(s) to %s", len(spans), self.trace_out)
        except OSError as exc:  # pragma: no cover - disk full etc.
            logger.error("could not write %s: %s", self.trace_out, exc)

    # -- connection handling ---------------------------------------------------

    def _frame_done(self) -> None:
        self._inflight -= 1
        self._meters(get_telemetry().metrics)[3].set(float(self._inflight))

    async def _serve_frame(
        self, conn: Connection, header: dict[str, Any], payload: bytes
    ) -> None:
        """One request: accounting, dispatch, and the error → reply map."""
        tm = get_telemetry()
        ns = self.ns
        op = str(header.get("op", "")).lower()
        label = op if op in protocol.OPS else "unknown"  # never a client string
        rid = header.get("id")
        t0 = time.perf_counter()
        self._requests_total += 1
        seq = self._requests_total
        requests, bytes_in, bytes_out, inflight, latency_all = \
            self._meters(tm.metrics)
        requests_op, latency_op = self._op_meters(tm.metrics, label)
        inflight.set(float(self._inflight))
        requests.inc()
        requests_op.inc()
        bytes_in.inc(len(payload))

        async def reply(h: dict[str, Any], body: bytes = b"") -> None:
            if rid is not None:
                h["id"] = rid
            if self.shard_id is not None:
                h.setdefault(protocol.SHARD_FIELD, self.shard_id)
            bytes_out.inc(len(body))
            with tm.span(f"{ns}.reply", op=op, bytes=len(body)):
                conn.write_frame(h, body)
                await conn.drain()
            latency = time.perf_counter() - t0
            self._latencies.append(latency)
            latency_all.observe(latency * 1e3)
            latency_op.observe(latency * 1e3)

        # Serve under the client's trace context (if the header carries
        # one): the <ns>.request span then chains under the client's
        # call span, and everything below chains under it.  Contextvars
        # are task-local, so concurrent frames don't bleed into each
        # other.
        try:
            with trace_context.use(trace_context.extract(header)), \
                    trace_context.use_request_id(str(seq)):
                with tm.span(
                    f"{ns}.request",
                    op=op, bytes=len(payload), request_id=seq,
                ):
                    if op == "hello":
                        await reply(self._hello(header))
                    elif op == "cancel":
                        await reply(conn.cancel(header.get("cancel_id"), ns))
                    elif self.draining and op not in self.control_ops:
                        await reply(
                            {"status": "busy", "code": "draining",
                             "retry_after_ms": RETRY_AFTER_MS}
                        )
                    else:
                        await self._dispatch(conn, op, header, payload, reply)
        except (ConnectionResetError, BrokenPipeError):
            pass  # the connection task handles transport teardown
        except asyncio.CancelledError:
            if not conn.was_cancelled(rid):
                raise  # connection teardown, not a CANCEL frame
            await self._reply_error(
                reply, "cancelled", "request cancelled by peer"
            )
        except ProtocolError as exc:
            tm.count(f"{ns}.protocol_errors")
            await self._reply_error(reply, "protocol", str(exc))
        except ReproError as exc:
            tm.count(f"{ns}.errors")
            await self._reply_error(
                reply, getattr(exc, "code", None) or type(exc).__name__,
                str(exc),
            )
        except Exception as exc:  # noqa: BLE001 — a bug must not kill the server
            logger.exception("internal error serving %s", op)
            tm.count(f"{ns}.errors")
            await self._reply_error(
                reply, "internal", f"{type(exc).__name__}: {exc}"
            )

    @staticmethod
    async def _reply_error(reply: Reply, code: str, error: str) -> None:
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await reply({"status": "error", "code": code, "error": error})

    # -- ops every front-end answers the same way --------------------------------

    def _hello(self, header: dict[str, Any]) -> dict[str, Any]:
        """Capability negotiation: offered ∩ supported (absent list = ∅)."""
        offered = header.get(protocol.CAPS_FIELD)
        if not isinstance(offered, list):
            offered = ()
        return {
            "status": "ok",
            "role": self.role,
            protocol.CAPS_FIELD: [c for c in self._caps() if c in offered],
        }

    def _latency_summary(self) -> dict[str, Any]:
        """The ``latency`` section of STATS (``window_n``: the sample
        count behind the percentiles)."""
        window = list(self._latencies)
        out: dict[str, Any] = {"window_n": len(window)}
        if window:
            out.update(
                p50_ms=percentile(window, 50) * 1e3,
                p99_ms=percentile(window, 99) * 1e3,
                mean_ms=sum(window) / len(window) * 1e3,
            )
        return out


class ServerThread:
    """Run a :class:`FrameServer` on a background thread.

    Subclasses name the front-end (``server_class``); keyword arguments
    go to its constructor.  ``start`` returns once the port is bound —
    or raises what the front-end's ``start`` raised, with nothing left
    behind; the context exit requests a drain and joins the thread.
    """

    server_class: type[FrameServer]

    def __init__(self, **kwargs: Any) -> None:
        self.server = self.server_class(**kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self._run, name=f"repro-{self.server.role}", daemon=True
        )
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            try:
                self.loop.run_until_complete(self.server.start())
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            self.loop.run_until_complete(
                self.server.serve(install_signal_handlers=False)
            )
        finally:
            self.loop.close()

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 120.0) -> "ServerThread":
        self.thread.start()
        self._ready.wait(timeout)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise ServiceError(
                f"{self.server.role} thread failed to start in {timeout:.0f}s"
            )
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self.thread.is_alive():
            with contextlib.suppress(RuntimeError):  # loop closed: thread exiting
                self.loop.call_soon_threadsafe(self.server.request_drain)
            self.thread.join(timeout)
            if self.thread.is_alive():
                raise ServiceError(
                    f"{self.server.role} thread did not drain in time"
                )

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
