"""Client for the compression daemon: one transport, blocking or async.

:class:`ServiceClient` (one connection) and :class:`PooledClient`
(``connections`` of them, round-robin, plus ``compress_async`` /
``decompress_async`` futures) are the same transport.  Every call is a
request registered under a per-connection ``id`` on a pipelined MSG1
connection, its frame written under a send lock, and completed — in any
order — by the one thread reading that connection: a blocking caller
reads its own reply when no one else is reading (no thread hand-off,
no ``Future``), else the connection's reader thread does.  Inside:

* **connect retry** within ``connect_timeout_s``, then one HELLO round
  trip negotiating the ``pipeline`` and ``shm`` capabilities;
* **backpressure retry**: a ``busy`` reply is re-sent on a timer thread
  after a capped, jittered exponential backoff
  (:func:`repro.util.backoff.backoff_delay`, honoring ``retry_after_ms``),
  up to ``busy_retries`` times before
  :class:`~repro.errors.ServiceBusyError`;
* **timeouts**: ``request_timeout_s`` fails each call on its own, even on
  a silent connection; ``timeout_ms`` becomes the server's queue deadline;
* **zero-copy payloads**: against a same-host daemon granting ``shm``,
  large payloads travel in pooled client-owned segments
  (:class:`repro.parallel.shm.SegmentPool`, unlinked on :meth:`close`),
  falling back to inline bytes transparently (remote host, small array,
  ``REPRO_NO_SHM=1``, no grant, or any per-request shm error); replies
  are byte-identical either way;
* **tracing**: with telemetry on, each call records a ``client.<op>``
  span (and ``client.busy_wait`` spans under it) and sends its context
  in the header's ``trace`` field, so the daemon's spans stitch under it
  (``docs/OBSERVABILITY.md``); with telemetry off an ambient trace still
  travels.

Both clients are thread-safe.  Construction is free of I/O — the
connection dials on the first call (or ``__enter__``):

>>> client = ServiceClient(port=7777, busy_retries=3, seed=42)
>>> (client.host, client.port, client.busy_retries)
('127.0.0.1', 7777, 3)
>>> client.close()                     # idempotent, even if never dialed

Against a live daemon or a cluster router alike:

>>> with ServiceClient(port=7777) as client:        # doctest: +SKIP
...     buf = client.compress(field, "sz", mode="abs", value=1e-3)
...     round_tripped = client.decompress(buf)
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import math
import random
import select
import socket
import threading
import time
import uuid
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.compressors.base import CompressedBuffer, CompressorMode
from repro.errors import ProtocolError, ServiceBusyError, ServiceError
from repro.parallel.shm import SegmentPool, SharedArray, shm_enabled
from repro.service import protocol
from repro.telemetry import context as trace_context
from repro.telemetry import get_telemetry
from repro.telemetry.spans import Tracer
from repro.util.backoff import backoff_delay

DEFAULT_PORT = 9461

#: Extra reply-segment capacity offered on COMPRESS (codec headers can
#: push an incompressible stream slightly past the input size; if even
#: that is exceeded the server just replies inline).
REPLY_SHM_SLACK = 1 << 12

#: Cap on one redial / busy-retry back-off sleep.
RETRY_MAX_S = 1.0

#: Error codes that mean "this peer cannot attach my segments" — the
#: client retries inline and stops offering shm.
_SHM_ERROR_CODES = frozenset({"shm_attach", "shm_unavailable"})

#: The pooled segments staged for one request: ``(request payload,
#: reply scratch)``, either ``None`` when that direction travels inline.
Segments = tuple["SharedArray | None", "SharedArray | None"]
_INLINE: Segments = (None, None)


class _Request(NamedTuple):
    """One request of the table, independent of the connection carrying it.

    ``build(use_shm)`` makes the frame — ``(header, payload, segments)``,
    bulk data staged in pooled segments when ``use_shm`` — and may be
    called again to rebuild the frame inline; ``finish(reply, body,
    segments)`` turns an ``ok`` reply into the call's result.
    ``nbytes`` is the bulk size that decides whether shm is worth it
    (0 for the control ops).
    """

    op: str
    nbytes: int
    build: Callable[[bool], tuple[dict[str, Any], bytes, Segments]]
    finish: Callable[[dict[str, Any], bytes, Segments], Any]


class _Blocking:
    """What a blocking call waits on: the one-waiter part of a
    :class:`concurrent.futures.Future` — a lock held until the call
    resolves, with no condition, callbacks or state machine."""

    __slots__ = ("_done", "_result", "_error")

    def __init__(self) -> None:
        self._done = threading.Lock()
        self._done.acquire()
        self._result = self._error = None

    def set_result(self, result: Any) -> None:
        self._result = result
        self._done.release()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self._done.release()

    def result(self) -> Any:
        self._done.acquire()  # returns at once if already resolved
        if self._error is not None:
            raise self._error
        return self._result


@dataclasses.dataclass(eq=False, slots=True)
class _Call:
    """One logical request in flight: its frame, what resolves it (a
    :class:`_Blocking` for a blocking call, a ``Future`` for an async
    one), where it stands, and — when traced — its context and span
    clock."""

    request: _Request
    epoch: int
    future: "_Blocking | concurrent.futures.Future"
    header: dict[str, Any] | None = None  # None: not built yet
    payload: bytes = b""
    segments: Segments = _INLINE
    attempt: int = 0
    deadline: float = 0.0
    id: int = 0
    claimed: bool = False  # its blocking caller will read for it once sent
    trace: trace_context.TraceContext | None = None
    tracer: Tracer | None = None
    started: float = 0.0


def _header(op: str, timeout_ms: float | None, **fields: Any) -> dict[str, Any]:
    header = {"op": op, **fields}
    if timeout_ms is not None:
        header["timeout_ms"] = float(timeout_ms)
    return header


def _reply_error(op: Any, reply: dict[str, Any]) -> ServiceError:
    """An error reply as the exception the caller sees (``.code`` is the
    machine-readable reply code)."""
    code = reply.get("code", "error")
    return ServiceError(
        f"{op} failed [{code}]: {reply.get('error')}", code=code
    )


def _shm_reply(reply: dict[str, Any], reply_seg: SharedArray | None):
    """The bulk reply the server left in the scratch segment, as a uint8
    view of it — ``None`` when the reply travelled inline."""
    n = reply.get(protocol.SHM_NBYTES_FIELD)
    if n is None:
        return None
    if (
        reply_seg is None
        or not isinstance(n, int)
        or not 0 <= n <= reply_seg.nbytes
    ):
        raise ProtocolError(f"bad {protocol.SHM_NBYTES_FIELD}: {n!r}")
    return reply_seg.view((n,), np.uint8)


def _buffer_from_reply(
    reply: dict[str, Any], body: bytes, segments: Segments,
    compressor: str, options: dict[str, Any] | None,
) -> CompressedBuffer:
    """A COMPRESS reply as a real :class:`CompressedBuffer`."""
    view = _shm_reply(reply, segments[1])
    meta = dict(reply.get("meta") or {})
    meta["compressor"] = reply.get("compressor", compressor)
    if options:
        meta["options"] = dict(options)
    return CompressedBuffer(
        payload=body if view is None else view.tobytes(),
        original_shape=tuple(reply["shape"]),
        original_dtype=np.dtype(reply["dtype"]),
        mode=CompressorMode(reply["mode"]),
        parameter=float(reply["parameter"]),
        meta=meta,
    )


class _Channel:
    """One pipelined connection, dialed and HELLOed on construction: an
    id→call table under ``lock``, frame writes under ``send_lock``, and
    a read role (``reading``) held by one thread at a time — a blocking
    caller, once its frame is written, until its call leaves the table;
    else the reader thread, while a call has no such caller.  The two
    locks are separate, and no thread reads while it writes, so a writer
    blocked on a full socket (the daemon stops reading once its
    per-connection gate is full) never stops the replies that open the
    gate from being drained.
    """

    def __init__(self, client: "_Client") -> None:
        self.client = client
        self.sock = self._dial()
        try:
            self.caps = self._hello()
        except (OSError, ProtocolError) as exc:
            self.sock.close()
            raise ServiceError(f"capability handshake failed: {exc}") from exc
        self.lock = threading.Lock()
        #: Wakes the reader thread: a call needs it, or the connection died.
        self.changed = threading.Condition(self.lock)
        self.send_lock = threading.Lock()
        self.pending: dict[int, _Call] = {}
        self.next_id = 0
        self.reading = False  # some thread holds the read role
        self.dead = False
        self._poll = select.poll()
        self._poll.register(self.sock, select.POLLIN)
        self.reader = threading.Thread(
            target=self._reader, name="repro-client-reader", daemon=True
        )
        self.reader.start()

    def _dial(self) -> socket.socket:
        """The connected socket, attempts backing off within the
        client's ``connect_timeout_s``."""
        client = self.client
        deadline = time.monotonic() + client.connect_timeout_s
        attempt = 0
        while True:
            try:
                sock = socket.create_connection(
                    (client.host, client.port),
                    timeout=max(0.1, deadline - time.monotonic()),
                )
                break
            except OSError as exc:
                attempt += 1
                delay = backoff_delay(
                    attempt,
                    base_s=client.retry_base_s,
                    cap_s=RETRY_MAX_S,
                    jitter=(0.5, 1.0),
                    rng=client._rng,
                )
                if time.monotonic() + delay >= deadline:
                    raise ServiceError(
                        f"cannot connect to {client.host}:{client.port}: {exc}"
                    ) from exc
                time.sleep(delay)
        sock.settimeout(client.request_timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _hello(self) -> frozenset[str]:
        """One HELLO round trip, before the reader starts; the granted
        capabilities (none from a peer that refuses HELLO)."""
        want = [protocol.CAP_PIPELINE]
        if self.client._shm_wanted():
            want.append(protocol.CAP_SHM)
        protocol.write_frame_sock(
            self.sock, {"op": "hello", protocol.CAPS_FIELD: want}
        )
        reply, _ = protocol.read_frame_sock(self.sock)
        caps = (
            reply.get(protocol.CAPS_FIELD)
            if reply.get("status") == "ok" else None
        )
        return frozenset(caps if isinstance(caps, list) else ())

    def send(self, call: _Call, lead: bool = False) -> bool:
        """Register ``call`` under a fresh id, then write its frame;
        True when ``lead`` (the caller will read for it) got the read
        role, which the caller must then hold through :meth:`read`.

        Raises only while the caller still owns ``call``: once a reply,
        the expiry or :meth:`fail` has taken it from the table, they
        resolve it.  A failed write kills the connection — a partial
        frame leaves the stream unreadable.
        """
        with self.lock:
            if self.dead:
                raise ServiceError("connection closed")
            self.next_id += 1
            call.id = call.header["id"] = self.next_id
            call.deadline = time.monotonic() + self.client.request_timeout_s
            call.claimed = lead
            self.pending[call.id] = call
            if not lead and not self.reading:
                self.changed.notify()
        with self.send_lock:
            if call.id not in self.pending:
                return False  # expired while waiting its turn
            try:
                protocol.write_frame_sock(self.sock, call.header, call.payload)
                error = None
            except OSError as exc:
                error = ServiceError(f"send failed: {exc}")
        with self.lock:
            call.claimed = False
            if error is None:
                if lead and not self.reading and call.id in self.pending:
                    self.reading = True
                    return True
                return False
            mine = self.pending.pop(call.id, None) is call
        self.fail(error)
        if mine:
            raise error
        return False

    def _reader(self) -> None:
        """Read while a call has no caller reading for it; close the
        socket once the connection is dead and no one reads it."""
        while True:
            with self.lock:
                while self.reading or not (self.dead or self._orphans()):
                    self.changed.wait()
                if self.dead:
                    break
                self.reading = True
            self.read()
        self.sock.close()

    def _orphans(self) -> bool:
        """A call in the table has no caller reading for it (under lock)."""
        return any(not c.claimed for c in self.pending.values())

    def read(self, call: _Call | None = None) -> None:
        """Read and complete replies until ``call`` has left the table
        (without one: until every call has a caller reading for it),
        then release the read role.  Waits for a frame only until the
        earliest deadline in the table, then reads the whole frame (a
        timeout mid-frame would desync the stream, so it kills the
        connection instead)."""
        try:
            while (timeout := self._expire(call)) is not None:
                if self._poll.poll(timeout * 1e3):
                    reply, body = protocol.read_frame_sock(self.sock)
                    self.client._on_reply(self, reply, body)
                    # One dict lookup, atomic without the lock; whoever
                    # reads next expires what is overdue.
                    if call is not None and self.pending.get(call.id) is not call:
                        break
        except Exception as exc:  # noqa: BLE001 - every call must resolve
            error = ServiceError(f"connection lost: {exc}")
            error.__cause__ = exc
            self.fail(error)
        finally:
            with self.lock:
                self.reading = False
                if self.dead or self._orphans():
                    self.changed.notify()

    def _expire(self, call: _Call | None) -> float | None:
        """Fail every call whose ``request_timeout_s`` has passed; the
        seconds until the next deadline, or None once the connection is
        dead or :meth:`read` is done.  The table is in deadline order
        (each send appends with one client-wide timeout), so only its
        head is ever looked at."""
        now = time.monotonic()
        overdue = []
        with self.lock:
            pending = self.pending
            for c in pending.values():
                if c.deadline > now:
                    break
                overdue.append(c)
            for c in overdue:
                del pending[c.id]
            if self.dead or (not self._orphans() if call is None
                             else pending.get(call.id) is not call):
                timeout = None
            else:
                head = next(iter(pending.values()), None)
                timeout = (self.client.request_timeout_s if head is None
                           else head.deadline - now)
        for late in overdue:
            self.client._finish(late, error=ServiceError("request timed out"))
        return timeout

    def fail(self, exc: Exception) -> None:
        """Kill the connection, failing every call in flight with ``exc``;
        whoever reads stops at the shutdown (see :meth:`_reader`)."""
        with self.lock:
            self.dead = True
            calls = list(self.pending.values())
            self.pending.clear()
            self.changed.notify()
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        for call in calls:
            self.client._finish(call, error=exc)


@dataclasses.dataclass(eq=False)
class _Client:
    """The one client transport: the options (the constructor
    signature), the shm policy and segment pool, the request table, the
    connection slots, and the reply policies (busy back-off, shm
    rejection, expiry).  A subclass fixes ``connections``."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    _: dataclasses.KW_ONLY
    connect_timeout_s: float = 5.0
    request_timeout_s: float = 120.0
    busy_retries: int = 8
    retry_base_s: float = 0.02
    seed: int | None = None
    #: ``None`` = automatic (loopback peers only); ``False`` forces
    #: inline payloads; ``True`` offers shm even to non-loopback hosts
    #: (the error fallback still protects a wrong guess).
    shm: bool | None = None

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._shm_broken = False
        self._segments = SegmentPool()
        self._lock = threading.Lock()
        self._channels: list[_Channel | None] = [None] * self.connections
        self._rr = 0
        #: Bumped by :meth:`close`; a call of an older epoch is not re-sent.
        self._epoch = 0

    # -- connections ----------------------------------------------------------

    def _next_channel(self) -> _Channel:
        """Round-robin over the slots, (re)dialing a missing or dead one."""
        with self._lock:
            slot = self._rr % self.connections
            self._rr += 1
            chan = self._channels[slot]
            if chan is None or chan.dead:
                chan = self._channels[slot] = _Channel(self)
            return chan

    def close(self) -> None:
        """Fail in-flight calls, close every connection, unlink segments.
        Idempotent; the client stays usable (the next call redials)."""
        with self._lock:
            self._epoch += 1
            channels = [c for c in self._channels if c is not None]
            self._channels = [None] * self.connections
            segments, self._segments = self._segments, SegmentPool()
        for chan in channels:
            chan.fail(ServiceError("client closed"))
        for chan in channels:
            chan.reader.join(timeout=2.0)
        segments.close()

    def __enter__(self):
        self._next_channel()  # dial now: an unreachable peer fails here
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- shm policy and staging -----------------------------------------------

    def _shm_wanted(self) -> bool:
        if self._shm_broken or not shm_enabled():
            return False
        if self.shm is not None:
            return self.shm
        return protocol.is_loopback(self.host)

    def _shm_rejected(self, exc: ServiceError, segments: Segments) -> bool:
        """True when ``exc`` says the peer cannot attach the segments
        this request offered: stop offering them, resend it inline."""
        if segments == _INLINE or exc.code not in _SHM_ERROR_CODES:
            return False
        self._shm_broken = True
        return True

    def _stage(
        self, header: dict[str, Any], data: np.ndarray | None,
        reply_capacity: int,
    ) -> Segments:
        """Stage one request in pooled segments, described in ``header``:
        ``data`` copied into a request segment, and a scratch segment of
        ``reply_capacity`` bytes (0: none) offered for the bulk reply."""
        req = rep = None
        try:
            if data is not None:
                arr = np.ascontiguousarray(data)
                req = self._segments.acquire(arr.nbytes)
                req.view(arr.shape, arr.dtype)[...] = arr
                header[protocol.SHM_FIELD] = protocol.shm_fields(
                    req.view_descriptor(arr.shape, arr.dtype)
                )
            if reply_capacity:
                rep = self._segments.acquire(reply_capacity)
                header[protocol.REPLY_SHM_FIELD] = protocol.reply_shm_fields(
                    rep.name, rep.nbytes
                )
        except BaseException:
            self._release((req, rep))
            raise
        return req, rep

    def _release(self, segments: Segments, reuse: bool = True) -> None:
        for seg in segments:
            if seg is None:
                continue
            if reuse:
                self._segments.release(seg)
            else:
                seg.unlink()

    # -- the request table -------------------------------------------

    def _array_request(
        self, op: str, data: np.ndarray, timeout_ms: float | None,
        fields: dict[str, Any], reply_slack: int | None,
        finish: Callable[[dict[str, Any], bytes, Segments], Any],
    ) -> _Request:
        """A request whose payload is one ndarray (COMPRESS, SWEEP,
        SESSION_STEP); ``reply_slack=None`` means no bulk reply."""
        data = np.asarray(data)

        def build(use_shm: bool):
            header = _header(
                op, timeout_ms, **fields, **protocol.array_fields(data)
            )
            if not use_shm:
                return header, protocol.pack_array(data), _INLINE
            capacity = 0 if reply_slack is None else data.nbytes + reply_slack
            return header, b"", self._stage(header, data, capacity)

        return _Request(op, data.nbytes, build, finish)

    def _compress_request(
        self, data, compressor, mode, value, options, timeout_ms
    ) -> _Request:
        return self._array_request(
            "compress", data, timeout_ms,
            {"compressor": compressor, "mode": mode, "value": float(value),
             "options": options or {}},
            REPLY_SHM_SLACK,
            lambda reply, body, segments: _buffer_from_reply(
                reply, body, segments, compressor, options
            ),
        )

    def _sweep_request(self, data, sweeps, field, timeout_ms) -> _Request:
        return self._array_request(
            "sweep", data, timeout_ms, {"field": field, "sweeps": sweeps},
            None,
            lambda reply, body, segments: list(reply.get("records") or []),
        )

    def _session_step_request(
        self, session_id, data, expect_ref, timeout_ms
    ) -> _Request:
        fields = {protocol.SESSION_FIELD: session_id}
        if expect_ref is not ...:
            fields["expect_ref"] = expect_ref

        def finish(reply, body, segments):
            view = _shm_reply(reply, segments[1])
            return reply, body if view is None else view.tobytes()

        return self._array_request(
            "session_step", data, timeout_ms, fields, REPLY_SHM_SLACK, finish
        )

    def _decompress_request(
        self, buf, compressor, options, timeout_ms
    ) -> _Request:
        name = compressor or buf.meta.get("compressor")
        if not name:
            raise ServiceError(
                "decompress needs a compressor (none recorded in buf.meta)"
            )
        if options is None:
            options = buf.meta.get("options") or {}
        out_shape = tuple(int(s) for s in buf.original_shape)
        out_dtype = np.dtype(buf.original_dtype)
        out_nbytes = math.prod(out_shape) * out_dtype.itemsize
        stream = np.frombuffer(buf.payload, dtype=np.uint8)

        def build(use_shm: bool):
            header = _header(
                "decompress", timeout_ms, compressor=name, options=options,
                mode=buf.mode.value, parameter=buf.parameter,
                dtype=out_dtype.str, shape=list(out_shape),
            )
            if not use_shm:
                return header, buf.payload, _INLINE
            # Each direction rides a segment only if it is big enough.
            big_in = stream.nbytes >= protocol.SHM_MIN_BYTES
            segments = self._stage(
                header, stream if big_in else None,
                out_nbytes if out_nbytes >= protocol.SHM_MIN_BYTES else 0,
            )
            return header, b"" if big_in else buf.payload, segments

        def finish(reply, body, segments):
            view = _shm_reply(reply, segments[1])
            if view is None:
                return protocol.unpack_array(reply, body).copy()
            if view.nbytes != out_nbytes:
                raise ProtocolError(
                    f"bad {protocol.SHM_NBYTES_FIELD}: {view.nbytes!r}"
                )
            return view.view(out_dtype).reshape(out_shape).copy()

        return _Request(
            "decompress", max(stream.nbytes, out_nbytes), build, finish
        )

    # -- the transport: submit, (re)send, reply, finish -----------------------

    def _submit(
        self, request: _Request, lead: bool = False
    ) -> "_Blocking | concurrent.futures.Future":
        """Send ``request``; the future resolves to its result.  With
        ``lead`` (a blocking call) this thread reads for it unless
        another one is reading the connection, and waits on a
        :class:`_Blocking` instead of a ``Future``.  Traced (telemetry on)
        calls get a child of the ambient context — or a fresh trace —
        and record their ``client.<op>`` span on completion; untraced
        ones carry the ambient context, if any."""
        call = _Call(request, self._epoch,
                     _Blocking() if lead else concurrent.futures.Future())
        tm = get_telemetry()
        call.trace = trace_context.current()
        if tm.enabled:
            outer = call.trace or trace_context.TraceContext(
                trace_context.new_trace_id(), trace_context.new_span_id()
            )
            call.trace, call.tracer = outer.child(), tm.tracer
            call.started = call.tracer.now()
        if not lead:
            # Not cancellable from here on: a reading or timer thread
            # resolves it.
            call.future.set_running_or_notify_cancel()
        chan = self._send(call, lead)
        if chan is not None:
            chan.read(call)
        return call.future

    def _call(
        self, header: dict[str, Any], payload: bytes = b""
    ) -> tuple[dict[str, Any], bytes]:
        """One raw frame through the transport; ``(reply, body)`` of its
        ``ok`` reply.  The control ops' path, and the tests' seam."""
        return self._submit(_Request(
            str(header.get("op")), 0,
            lambda use_shm: (dict(header), payload, _INLINE),
            lambda reply, body, segments: (reply, body),
        ), lead=True).result()

    def _send(self, call: _Call, lead: bool = False) -> _Channel | None:
        """Write ``call`` on the next connection, building its frame
        first if it has none (through shm when that connection granted
        it); with ``lead``, the connection whose read role this thread
        got, if any.  Runs on the caller's thread, or a timer's for a
        re-send — never on one that is reading."""
        try:
            if call.epoch != self._epoch:
                raise ServiceError("client closed")
            chan = self._next_channel()
            if call.header is None:
                request = call.request
                call.header, call.payload, call.segments = request.build(
                    request.nbytes >= protocol.SHM_MIN_BYTES
                    and self._shm_wanted()
                    and protocol.CAP_SHM in chan.caps
                )
                if call.trace is not None:
                    call.header[protocol.TRACE_FIELD] = \
                        call.trace.to_traceparent()
            return chan if chan.send(call, lead) else None
        except Exception as exc:
            self._finish(call, error=exc)
            return None

    def _send_later(self, call: _Call, delay: float = 0.0, **busy: Any) -> None:
        """Re-send ``call`` after ``delay`` seconds on a timer thread;
        ``busy`` attributes record the wait as a ``client.busy_wait``
        span under the call."""
        start = call.tracer.now() if call.tracer is not None else 0.0

        def fire() -> None:
            if busy and call.tracer is not None:
                call.tracer.add_span(
                    "client.busy_wait", start, call.tracer.now(),
                    ctx=call.trace.child(), root=True, **busy,
                )
            self._send(call)

        timer = threading.Timer(delay, fire)
        timer.daemon = True
        timer.start()

    def _on_reply(
        self, chan: _Channel, reply: dict[str, Any], body: bytes
    ) -> None:
        """A reply read off ``chan``: finish its call, or hand it to
        a timer to re-send (``busy``; an shm rejection goes inline)."""
        with chan.lock:
            call = chan.pending.pop(reply.get("id"), None)
        if call is None:
            return  # the reply of an expired call — drop it
        status = reply.get("status")
        if status == "ok":
            self._finish(call, reply=reply, body=body)
        elif status == "busy":
            if call.attempt >= self.busy_retries:
                self._finish(call, reply=reply, error=ServiceBusyError(
                    f"server still busy after {self.busy_retries} retries"
                ))
                return
            delay = backoff_delay(
                call.attempt,
                base_s=self.retry_base_s,
                cap_s=RETRY_MAX_S,
                hint_s=float(reply.get("retry_after_ms", 0)) / 1e3,
                rng=self._rng,
            )
            call.attempt += 1
            self._send_later(
                call, delay, attempt=call.attempt, delay_ms=delay * 1e3,
                code=reply.get("code", "busy"),
            )
        else:
            error = _reply_error(call.request.op, reply)
            if not self._shm_rejected(error, call.segments):
                self._finish(call, reply=reply, error=error)
                return
            self._release(call.segments)
            call.header, call.segments = None, _INLINE  # rebuilt inline
            self._send_later(call)

    def _finish(
        self, call: _Call, *, reply: dict[str, Any] | None = None,
        body: bytes = b"", error: Exception | None = None,
    ) -> None:
        """Resolve ``call``: its result from an ``ok`` reply, or
        ``error``.  Segments the server answered for go back to the
        pool; those of a call that got no reply may still be in the
        server's hands, so they are unlinked instead."""
        result = None
        try:
            if error is None:
                result = call.request.finish(reply, body, call.segments)
        except Exception as exc:  # finish() raised — surface it
            error = exc
        finally:
            if call.segments is not _INLINE:
                self._release(call.segments, reuse=reply is not None)
                call.segments = _INLINE
        if call.tracer is not None:
            op = call.request.op
            span = call.tracer.add_span(
                f"client.{op}", call.started, call.tracer.now(),
                ctx=call.trace, root=True, op=op, bytes=len(call.payload),
            )
            if error is not None:
                span.status = "error"
                span.attrs["exception"] = f"{type(error).__name__}: {error}"
        if error is not None:
            call.future.set_exception(error)
        else:
            call.future.set_result(result)

    # -- operations ---------------------------------------------------------

    def compress(
        self,
        data: np.ndarray,
        compressor: str,
        mode: str = "abs",
        value: float = 1e-3,
        options: dict[str, Any] | None = None,
        timeout_ms: float | None = None,
    ) -> CompressedBuffer:
        """Compress ``data`` remotely; returns a real :class:`CompressedBuffer`.

        The buffer is byte-identical to a local
        ``get_compressor(compressor, **options).compress(...)`` call and
        interoperates with it — ``meta["compressor"]`` records the codec
        so :meth:`decompress` can route it back without extra arguments.
        """
        return self._submit(self._compress_request(
            data, compressor, mode, value, options, timeout_ms
        ), lead=True).result()

    def decompress(
        self,
        buf: CompressedBuffer,
        compressor: str | None = None,
        options: dict[str, Any] | None = None,
        timeout_ms: float | None = None,
    ) -> np.ndarray:
        """Decompress a buffer remotely (codec from ``buf.meta`` by default)."""
        return self._submit(self._decompress_request(
            buf, compressor, options, timeout_ms
        ), lead=True).result()

    def sweep(
        self,
        data: np.ndarray,
        sweeps: list[dict[str, Any]],
        field: str = "field",
        timeout_ms: float | None = None,
    ) -> list[dict[str, Any]]:
        """Run a server-side CBench sweep over ``data``; returns flat rows.

        ``sweeps`` entries mirror the Foresight config compressor list:
        ``{"name": "sz", "mode": "abs", "sweep": {"error_bound": [...]}}``.
        Repeat sweeps of the same data hit the server's result cache
        (``row["cache"] == "hit"``).
        """
        return self._submit(
            self._sweep_request(data, sweeps, field, timeout_ms), lead=True
        ).result()

    # -- stateful sessions (docs/INSITU.md) ---------------------------------

    def session_open(
        self,
        compressor: str = "sz",
        mode: str = "abs",
        value: float = 1e-3,
        options: dict[str, Any] | None = None,
        keyframe_every: int = 8,
        session_id: str | None = None,
    ) -> "ServiceSession":
        """Open a stateful temporal stream on the daemon; a
        :class:`ServiceSession` (a context manager).  The id is made
        client-side: the router places a session by it, so it must be
        fixed before the SESSION_OPEN frame is routed."""
        reply, _ = self._call({
            "op": "session_open",
            protocol.SESSION_FIELD: session_id or uuid.uuid4().hex,
            "compressor": compressor,
            "mode": mode,
            "value": float(value),
            "options": options or {},
            "keyframe_every": int(keyframe_every),
        })
        return ServiceSession(self, reply)

    def session_step(
        self,
        session_id: str,
        data: np.ndarray,
        expect_ref: str | None = ...,
        timeout_ms: float | None = None,
    ) -> tuple[dict[str, Any], bytes]:
        """One snapshot through an open session: ``(reply, TMP1 bytes)``.
        ``expect_ref`` is the reference digest the daemon should hold
        (``None`` before the first step; a mismatch is refused
        ``session_desync``; the default skips the check).
        :class:`ServiceSession` tracks the chain for you."""
        return self._submit(self._session_step_request(
            session_id, data, expect_ref, timeout_ms
        ), lead=True).result()

    def session_close(self, session_id: str) -> dict[str, Any]:
        """Tear down a session; returns its step/byte accounting."""
        reply, _ = self._call(
            {"op": "session_close", protocol.SESSION_FIELD: session_id}
        )
        return reply

    def list_compressors(self) -> list[str]:
        reply, _ = self._call({"op": "list"})
        return list(reply.get("compressors") or [])

    def health(self) -> dict[str, Any]:
        reply, _ = self._call({"op": "health"})
        return reply

    def stats(self) -> dict[str, Any]:
        reply, _ = self._call({"op": "stats"})
        return reply

    def metrics_text(self) -> str:
        """The daemon's metrics in Prometheus text format (a router's:
        the fleet's, each sample labelled ``shard="..."``)."""
        _, body = self._call({"op": "metrics"})
        return body.decode("utf-8")

    def cluster(self) -> dict[str, Any]:
        """Topology, membership and ring shares of the cluster router
        dialed (``docs/CLUSTER.md``); a plain daemon answers ``bad_op``,
        raised as :class:`~repro.errors.ServiceError`."""
        reply, _ = self._call({"op": "cluster"})
        return reply


class ServiceClient(_Client):
    """Blocking MSG1 client: the transport pinned to one connection
    (see module docstring)."""

    connections = 1


class ServiceSession:
    """Client half of one open temporal stream (see docs/INSITU.md).

    Tracks the reference-digest chain the daemon echoes on every step
    and sends it back as ``expect_ref`` on the next one, so a lost or
    reordered step surfaces as a clean ``session_desync`` error instead
    of silently undecodable deltas.  :meth:`step` returns the reply
    header and the raw TMP1 stream; feed the streams in order to a
    :class:`~repro.compressors.temporal.TemporalCompressor` (same inner
    codec and options) to reconstruct — bytes are identical to the
    library path.

        with client.session_open("sz", value=1e-3) as session:
            for snapshot in simulation:
                reply, stream = session.step(snapshot)
    """

    def __init__(self, client: _Client, opened: dict[str, Any]) -> None:
        self._client = client
        self.session_id = str(opened[protocol.SESSION_FIELD])
        self.compressor = opened.get("compressor")
        self.mode = opened.get("mode")
        self.value = opened.get("value")
        self.keyframe_every = opened.get("keyframe_every")
        #: Digest of the reference snapshot the daemon holds (None
        #: before the first step); updated from every step reply.
        self.ref: str | None = None
        self.steps = 0
        self.closed = False

    def step(
        self, data: np.ndarray, timeout_ms: float | None = None
    ) -> tuple[dict[str, Any], bytes]:
        """Push one snapshot; returns ``(reply header, TMP1 bytes)``."""
        if self.closed:
            raise ServiceError(f"session {self.session_id!r} is closed")
        reply, body = self._client.session_step(
            self.session_id, data, expect_ref=self.ref,
            timeout_ms=timeout_ms,
        )
        self.ref = reply.get("ref")
        self.steps += 1
        return reply, body

    def close(self) -> dict[str, Any]:
        """Close the daemon-side session (idempotent client-side)."""
        if self.closed:
            return {"status": "ok", protocol.SESSION_FIELD: self.session_id}
        self.closed = True
        return self._client.session_close(self.session_id)

    def __enter__(self) -> "ServiceSession":
        return self

    def __exit__(self, *exc: Any) -> None:
        # Best-effort teardown: the daemon's idle eviction is the
        # backstop if the close cannot be delivered (dead shard, drain).
        try:
            self.close()
        except (ServiceError, OSError):
            pass


@dataclasses.dataclass(eq=False)
class PooledClient(_Client):
    """N requests in flight over M pipelined connections.

    The same transport as :class:`ServiceClient`, spread round-robin
    over ``connections`` of them, plus the futures themselves:
    ``compress_async``/``decompress_async`` return
    :class:`concurrent.futures.Future`, and every blocking call waits
    on one, so one pool serves both styles from any number of threads.
    One :class:`SegmentPool` serves all connections.
    """

    connections: int = dataclasses.field(default=2, kw_only=True)

    def __post_init__(self) -> None:
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        super().__post_init__()

    def compress_async(
        self,
        data: np.ndarray,
        compressor: str,
        mode: str = "abs",
        value: float = 1e-3,
        options: dict[str, Any] | None = None,
        timeout_ms: float | None = None,
    ) -> concurrent.futures.Future:
        """Submit a COMPRESS; the future resolves to a CompressedBuffer."""
        return self._submit(self._compress_request(
            data, compressor, mode, value, options, timeout_ms
        ))

    def decompress_async(
        self,
        buf: CompressedBuffer,
        compressor: str | None = None,
        options: dict[str, Any] | None = None,
        timeout_ms: float | None = None,
    ) -> concurrent.futures.Future:
        """Submit a DECOMPRESS; the future resolves to an ndarray."""
        return self._submit(self._decompress_request(
            buf, compressor, options, timeout_ms
        ))
