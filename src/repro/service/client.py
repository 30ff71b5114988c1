"""Synchronous client for the compression daemon.

:class:`ServiceClient` is the in-situ caller's view of the service: a
blocking socket speaking MSG1 frames, with the operational edges a
simulation loop needs handled inside —

* **connect retry**: the daemon may still be binding when the client
  starts; connection attempts back off within ``connect_timeout_s``;
* **backpressure retry**: a ``busy`` reply (admission queue full) is
  retried with capped exponential backoff *plus jitter* (decorrelating
  a fleet of clients that would otherwise retry in lockstep), honoring
  the server's ``retry_after_ms`` hint, up to ``busy_retries`` times
  before :class:`~repro.errors.ServiceBusyError`;
* **timeouts**: ``request_timeout_s`` bounds each socket wait (and,
  in :class:`PooledClient`, each call on its own); ``timeout_ms`` per
  call becomes the server-side queue deadline;
* **zero-copy payload handoff**: against a same-host daemon that
  negotiates the ``shm`` capability (one HELLO round trip on the first
  bulk call), large request payloads travel as pooled shared-memory
  segments and bulk replies come back through a client-owned scratch
  segment — the TCP stream then carries only headers.  Fallback to
  inline bytes is transparent: remote hosts, small arrays,
  ``REPRO_NO_SHM=1``, a server that does not grant ``shm``, and any
  per-request shm error (the client retries the call inline and stops
  offering segments).  Replies are byte-identical either way.  All
  segments are owned by the client — published once, reused across calls
  (:class:`repro.parallel.shm.SegmentPool`), unlinked on
  :meth:`~ServiceClient.close`; a crashed client's are reclaimed by its
  ``multiprocessing`` resource tracker;
* **distributed tracing**: when telemetry is enabled in the client
  process (or a :mod:`repro.telemetry.context` trace is already
  active), every call runs inside a ``client.<op>`` span — busy
  retries get nested ``client.busy_wait`` spans — and the active
  context travels in the MSG1 header's optional ``trace`` field, so
  the daemon's queue/batch/worker spans stitch under this call in one
  trace (see ``docs/OBSERVABILITY.md``).  With telemetry off and no
  ambient trace, nothing is added to the header and nothing is timed.

Both retry paths share one delay policy —
:func:`repro.util.backoff.backoff_delay` — so the whole fleet
(clients, and the cluster router's membership re-probe) jitters the
same way.

One client owns one socket and is **not** thread-safe — give each
thread its own client (they are cheap; the stress tests do exactly
this).  Use as a context manager to close the socket deterministically.
Construction is free of I/O — the socket dials lazily on the first
call (or on ``__enter__``), so a client can be built before its daemon
is up:

>>> client = ServiceClient(port=7777, busy_retries=3, seed=42)
>>> (client.host, client.port, client.busy_retries)
('127.0.0.1', 7777, 3)
>>> client.close()                     # idempotent, even if never dialed

Against a live daemon (or a cluster router — the client is oblivious
to which one it dialed):

>>> with ServiceClient(port=7777) as client:        # doctest: +SKIP
...     buf = client.compress(field, "sz", mode="abs", value=1e-3)
...     round_tripped = client.decompress(buf)
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import random
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
    """One data-plane request, independent of the transport carrying it.

    ``build(use_shm)`` makes the frame — ``(header, payload, segments)``,
    bulk data staged in pooled segments when ``use_shm`` — and may be
    called again to rebuild the frame inline; ``finish(reply, body,
    segments)`` turns an ``ok`` reply into the call's result.
    ``nbytes`` is the bulk size that decides whether shm is worth it.
    """

    nbytes: int
    build: Callable[[bool], tuple[dict[str, Any], bytes, Segments]]
    finish: Callable[[dict[str, Any], bytes, Segments], Any]


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


class _Connection:
    """One blocking MSG1 socket: dial with backoff, HELLO, frames."""

    def __init__(self, client: "_Client") -> None:
        self.client = client
        self.sock: socket.socket | None = None
        self.caps: frozenset[str] = frozenset()
        self.negotiated = False

    def open(self) -> socket.socket:
        """The connected socket — dialed on first use, attempts backing
        off within the client's ``connect_timeout_s``."""
        if self.sock is not None:
            return self.sock
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
        self.sock = sock
        return sock

    def negotiate(self) -> frozenset[str]:
        """HELLO once per connection; the granted capabilities."""
        if not self.negotiated:
            want = [protocol.CAP_PIPELINE]
            if self.client._shm_wanted():
                want.append(protocol.CAP_SHM)
            reply, _ = self.roundtrip(
                {"op": "hello", protocol.CAPS_FIELD: want}
            )
            caps = (
                reply.get(protocol.CAPS_FIELD)
                if reply.get("status") == "ok" else None
            )
            self.caps = frozenset(caps if isinstance(caps, list) else ())
            self.negotiated = True
        return self.caps

    def send(self, header: dict[str, Any], payload: bytes = b"") -> None:
        protocol.write_frame_sock(self.open(), header, payload)

    def recv(self) -> tuple[dict[str, Any], bytes]:
        return protocol.read_frame_sock(self.sock)

    def roundtrip(
        self, header: dict[str, Any], payload: bytes = b""
    ) -> tuple[dict[str, Any], bytes]:
        """One frame out, one frame in; a broken stream is dropped (the
        next call redials and renegotiates)."""
        try:
            self.send(header, payload)
            return self.recv()
        except (OSError, ProtocolError):
            self.close()
            raise

    def close(self) -> None:
        sock, self.sock = self.sock, None
        self.caps = frozenset()
        self.negotiated = False
        if sock is not None:
            sock.close()


@dataclasses.dataclass(eq=False)
class _Client:
    """What both clients share: the options (the constructor signature),
    the shm policy and segment pool, the table of data-plane requests
    and their blocking entry points, and the reply policies (busy
    back-off, shm rejection).  A subclass supplies ``_run(request)``."""

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

    def _release(self, segments: Segments) -> None:
        for seg in segments:
            if seg is not None:
                self._segments.release(seg)

    def _busy_delay(self, attempt: int, reply: dict[str, Any]) -> float:
        """How long to wait before re-sending after the ``attempt``-th
        (0-based) ``busy`` reply; :class:`ServiceBusyError` once the
        retries are used up."""
        if attempt >= self.busy_retries:
            raise ServiceBusyError(
                f"server still busy after {self.busy_retries} retries"
            )
        return backoff_delay(
            attempt,
            base_s=self.retry_base_s,
            cap_s=RETRY_MAX_S,
            hint_s=float(reply.get("retry_after_ms", 0)) / 1e3,
            rng=self._rng,
        )

    # -- the data-plane request table -------------------------------------------

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

        return _Request(data.nbytes, build, finish)

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
        out_nbytes = (
            int(np.prod(out_shape, dtype=np.int64)) * out_dtype.itemsize
        )
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

        return _Request(max(stream.nbytes, out_nbytes), build, finish)

    # -- the blocking calls both clients offer --------------------------------

    def _run(self, request: _Request) -> Any:
        """Carry one request to the server and back (the transport)."""
        raise NotImplementedError

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
        return self._run(self._compress_request(
            data, compressor, mode, value, options, timeout_ms
        ))

    def decompress(
        self,
        buf: CompressedBuffer,
        compressor: str | None = None,
        options: dict[str, Any] | None = None,
        timeout_ms: float | None = None,
    ) -> np.ndarray:
        """Decompress a buffer remotely (codec from ``buf.meta`` by default)."""
        return self._run(self._decompress_request(
            buf, compressor, options, timeout_ms
        ))


class ServiceClient(_Client):
    """Blocking MSG1 client (see module docstring)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self._conn = _Connection(self)
        self._next_id = 0

    def close(self) -> None:
        """Close the socket and unlink any pooled data-plane segments."""
        self._conn.close()
        self._segments.close()
        self._segments = SegmentPool()  # the client stays usable

    def __enter__(self) -> "ServiceClient":
        self._conn.open()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- request plumbing ---------------------------------------------------

    def _roundtrip(
        self, header: dict[str, Any], payload: bytes
    ) -> tuple[dict[str, Any], bytes]:
        """One frame out, one frame in, read on the calling thread."""
        return self._conn.roundtrip(header, payload)

    def _request(
        self, header: dict[str, Any], payload: bytes = b""
    ) -> tuple[dict[str, Any], bytes]:
        """Send a request, retrying ``busy`` replies with jittered backoff.

        Traced calls (telemetry enabled, or an ambient trace context)
        run inside a ``client.<op>`` span and carry the context in the
        header; the untraced path adds nothing to the header.
        """
        self._next_id += 1
        header = {**header, "id": self._next_id}
        tm = get_telemetry()
        if not tm.enabled and trace_context.current() is None:
            return self._request_once(header, payload)
        op = header.get("op")
        with trace_context.start_trace():
            with tm.span(f"client.{op}", op=op, bytes=len(payload)):
                # Inject *inside* the span so the daemon parents under it.
                return self._request_once(
                    trace_context.inject(header), payload
                )

    def _request_once(
        self, header: dict[str, Any], payload: bytes
    ) -> tuple[dict[str, Any], bytes]:
        """The busy-retry loop around one logical request."""
        attempt = 0
        while True:
            reply, body = self._roundtrip(header, payload)
            status = reply.get("status")
            if status == "ok":
                return reply, body
            if status != "busy":
                raise _reply_error(header.get("op"), reply)
            delay = self._busy_delay(attempt, reply)
            attempt += 1
            with get_telemetry().span(
                "client.busy_wait",
                attempt=attempt,
                delay_ms=delay * 1e3,
                code=reply.get("code", "busy"),
            ):
                time.sleep(delay)

    def _run(self, request: _Request) -> Any:
        """Run one data-plane request: through shared memory when the
        peer negotiated it (one HELLO on the first eligible call), with
        one inline retry if the peer then cannot attach the segments."""
        use_shm = (
            request.nbytes >= protocol.SHM_MIN_BYTES
            and self._shm_wanted()
            and protocol.CAP_SHM in self._conn.negotiate()
        )
        while True:
            header, payload, segments = request.build(use_shm)
            try:
                reply, body = self._request(header, payload)
                return request.finish(reply, body, segments)
            except ServiceError as exc:
                if not self._shm_rejected(exc, segments):
                    raise
                use_shm = False
            finally:
                self._release(segments)

    # -- operations ---------------------------------------------------------

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
        return self._run(self._sweep_request(data, sweeps, field, timeout_ms))

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
        """Open a stateful temporal-compression stream on the daemon.

        The session id is generated *client-side* by default: the
        cluster router hashes it for shard placement, so the id must be
        fixed before the SESSION_OPEN frame is routed (a server-chosen
        id could land the open on one shard and the steps on another).
        Returns a :class:`ServiceSession`; use it as a context manager
        so the daemon-side state is torn down deterministically.
        """
        reply, _ = self._request({
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
        """One snapshot through an open session; returns (reply, TMP1 bytes).

        ``expect_ref`` is the reference digest the client believes the
        daemon holds (``None`` before the first step); the daemon
        refuses with ``session_desync`` on mismatch.  Pass the default
        sentinel to skip the check entirely.  Most callers want the
        :class:`ServiceSession` wrapper, which tracks the digest chain
        automatically.
        """
        return self._run(self._session_step_request(
            session_id, data, expect_ref, timeout_ms
        ))

    def session_close(self, session_id: str) -> dict[str, Any]:
        """Tear down a session; returns its step/byte accounting."""
        reply, _ = self._request(
            {"op": "session_close", protocol.SESSION_FIELD: session_id}
        )
        return reply

    def list_compressors(self) -> list[str]:
        reply, _ = self._request({"op": "list"})
        return list(reply.get("compressors") or [])

    def health(self) -> dict[str, Any]:
        reply, _ = self._request({"op": "health"})
        return reply

    def stats(self) -> dict[str, Any]:
        reply, _ = self._request({"op": "stats"})
        return reply

    def metrics_text(self) -> str:
        """The daemon's metrics in Prometheus text exposition format.

        Against a cluster router this is the *fleet* exposition: every
        per-shard sample gains a ``shard="..."`` label and the router's
        own metrics appear under ``shard="router"``.
        """
        _, body = self._request({"op": "metrics"})
        return body.decode("utf-8")

    def cluster(self) -> dict[str, Any]:
        """Topology and membership of the cluster router this client dialed.

        Only a :class:`repro.service.cluster.ClusterRouter` answers the
        CLUSTER op — a plain daemon replies with ``bad_op``, which
        surfaces here as :class:`~repro.errors.ServiceError`.  The reply
        carries per-shard membership state, probe/hedge counters, and
        ring ownership shares (see ``docs/CLUSTER.md``).
        """
        reply, _ = self._request({"op": "cluster"})
        return reply


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

    def __init__(self, client: ServiceClient, opened: dict[str, Any]) -> None:
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


# ---------------------------------------------------------------------------
# Multiplexing client pool
# ---------------------------------------------------------------------------


@dataclasses.dataclass(eq=False, slots=True)
class _Call:
    """One logical request in flight through a :class:`PooledClient`."""

    request: _Request
    future: concurrent.futures.Future = dataclasses.field(
        default_factory=concurrent.futures.Future
    )
    header: dict[str, Any] = dataclasses.field(default_factory=dict)
    payload: bytes = b""
    segments: Segments = _INLINE
    attempt: int = 0
    deadline: float = 0.0
    id: int = 0


class _Channel:
    """One pipelined connection: a send lock, an id→call map, a reader."""

    def __init__(self, owner: "PooledClient", conn: _Connection) -> None:
        self.owner = owner
        self.conn = conn
        self.lock = threading.Lock()
        self.pending: dict[int, _Call] = {}
        self.next_id = 0
        self.dead = False
        self.reader = threading.Thread(
            target=self._read_loop, name="repro-pooled-reader", daemon=True
        )
        self.reader.start()

    def send(self, call: _Call) -> None:
        """Register ``call`` under a fresh id and write its frame."""
        with self.lock:
            if self.dead:
                raise ServiceError("channel closed")
            self.next_id += 1
            call.id = self.next_id
            call.header = {**call.header, "id": call.id}
            call.deadline = time.monotonic() + self.owner.request_timeout_s
            self.pending[call.id] = call
            try:
                self.conn.send(call.header, call.payload)
            except OSError as exc:
                self.pending.pop(call.id, None)
                raise ServiceError(f"send failed: {exc}") from exc

    def _read_loop(self) -> None:
        while True:
            try:
                reply, body = self.conn.recv()
            except socket.timeout:
                # The connection was silent for request_timeout_s; each
                # call answers for its own deadline below.
                reply = None
            except (OSError, ProtocolError) as exc:
                with self.lock:
                    dead = self.dead
                if not dead:
                    self.fail(ServiceError(f"connection lost: {exc}"))
                return
            if reply is not None:
                self.owner._dispatch(self, reply, body)
            self._expire()

    def _expire(self) -> None:
        """Fail every call whose ``request_timeout_s`` has passed — a
        lost reply must not hang its future while siblings' arrive."""
        now = time.monotonic()
        with self.lock:
            overdue = [c for c in self.pending.values() if c.deadline <= now]
            for call in overdue:
                del self.pending[call.id]
        for call in overdue:
            self.owner._finish_call(
                call, error=ServiceError("request timed out")
            )

    def fail(self, exc: Exception) -> None:
        """Kill the channel, failing every in-flight call with ``exc``."""
        with self.lock:
            if self.dead:
                calls = []
            else:
                self.dead = True
                calls = list(self.pending.values())
                self.pending.clear()
            try:
                self.conn.sock.close()
            except OSError:
                pass
        for call in calls:
            self.owner._finish_call(call, error=exc)


@dataclasses.dataclass(eq=False)
class PooledClient(_Client):
    """N requests in flight over M pipelined connections.

    Where :class:`ServiceClient` is strictly one-request-at-a-time,
    ``PooledClient`` multiplexes: every call gets a per-connection
    ``id``, frames are written under a send lock, and a reader thread
    per connection completes futures as replies arrive — in any order.
    ``compress_async``/``decompress_async`` return
    :class:`concurrent.futures.Future`; the blocking ``compress``/
    ``decompress`` wrappers just ``.result()`` them, so one pool serves
    both styles from any number of threads.  ``request_timeout_s``
    bounds every call on its own: a reply that never comes fails that
    call's future, not its siblings'.

    The zero-copy data plane is shared with :class:`ServiceClient`:
    one HELLO per connection negotiates capabilities, large payloads
    ride pooled shared-memory segments (one :class:`SegmentPool` for
    the whole pool), and any shm error falls back to inline bytes for
    the rest of the pool's life.  ``busy`` replies are retried off a
    timer thread with the same jittered backoff as the blocking client,
    so a full admission queue never stalls the reader.
    """

    connections: int = dataclasses.field(default=2, kw_only=True)

    def __post_init__(self) -> None:
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        super().__post_init__()
        self._lock = threading.Lock()
        self._channels: list[_Channel | None] = [None] * self.connections
        self._rr = 0
        self._closed = False

    # -- connections --------------------------------------------------------

    def _next_channel(self) -> _Channel:
        """Round-robin over the slots, (re)dialing a missing or dead one:
        dial, HELLO synchronously, then hand the socket to a reader."""
        with self._lock:
            if self._closed:
                raise ServiceError("client closed")
            slot = self._rr % self.connections
            self._rr += 1
            chan = self._channels[slot]
            if chan is None or chan.dead:
                conn = _Connection(self)
                try:
                    conn.negotiate()
                except (OSError, ProtocolError) as exc:
                    raise ServiceError(
                        f"capability handshake failed: {exc}"
                    ) from exc
                chan = self._channels[slot] = _Channel(self, conn)
            return chan

    def close(self) -> None:
        """Fail in-flight calls, close every connection, unlink segments."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            channels = [c for c in self._channels if c is not None]
            self._channels = [None] * self.connections
        for chan in channels:
            chan.fail(ServiceError("client closed"))
        for chan in channels:
            chan.reader.join(timeout=2.0)
        self._segments.close()

    def __enter__(self) -> "PooledClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- completion plumbing (reader / timer threads) -----------------------

    def _finish_call(
        self, call: _Call, *, reply: dict[str, Any] | None = None,
        body: bytes = b"", error: Exception | None = None,
    ) -> None:
        """Resolve ``call``'s future and give its segments back."""
        result = None
        try:
            if error is None:
                result = call.request.finish(reply, body, call.segments)
        except Exception as exc:  # finish() raised — surface it
            error = exc
        finally:
            self._release(call.segments)
            call.segments = _INLINE
        if error is not None:
            call.future.set_exception(error)
        else:
            call.future.set_result(result)

    def _resend(self, chan: _Channel, call: _Call) -> None:
        try:
            chan.send(call)
        except ServiceError as exc:
            self._finish_call(call, error=exc)

    def _dispatch(self, chan: _Channel, reply: dict[str, Any],
                  body: bytes) -> None:
        with chan.lock:
            call = chan.pending.pop(reply.get("id"), None)
        if call is None:
            return  # late or duplicate reply — drop it
        status = reply.get("status")
        try:
            if status == "ok":
                self._finish_call(call, reply=reply, body=body)
            elif status == "busy":
                delay = self._busy_delay(call.attempt, reply)
                call.attempt += 1
                timer = threading.Timer(delay, self._resend, args=(chan, call))
                timer.daemon = True
                timer.start()
            else:
                exc = _reply_error(call.header.get("op"), reply)
                if not self._shm_rejected(exc, call.segments):
                    raise exc
                self._release(call.segments)
                call.segments = _INLINE
                call.header, call.payload, call.segments = \
                    call.request.build(False)
                chan.send(call)
        except (ServiceError, ProtocolError) as exc:
            self._finish_call(call, error=exc)

    def _submit(self, request: _Request) -> "concurrent.futures.Future":
        call = _Call(request)
        # Not cancellable from here on: a reader or timer thread resolves it.
        call.future.set_running_or_notify_cancel()
        try:
            chan = self._next_channel()
            call.header, call.payload, call.segments = request.build(
                request.nbytes >= protocol.SHM_MIN_BYTES
                and self._shm_wanted()
                and protocol.CAP_SHM in chan.conn.caps
            )
            chan.send(call)
        except Exception as exc:
            self._finish_call(call, error=exc)
        return call.future

    # -- operations ---------------------------------------------------------

    def compress_async(
        self,
        data: np.ndarray,
        compressor: str,
        mode: str = "abs",
        value: float = 1e-3,
        options: dict[str, Any] | None = None,
        timeout_ms: float | None = None,
    ) -> "concurrent.futures.Future":
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
    ) -> "concurrent.futures.Future":
        """Submit a DECOMPRESS; the future resolves to an ndarray."""
        return self._submit(self._decompress_request(
            buf, compressor, options, timeout_ms
        ))

    def _run(self, request: _Request) -> Any:
        return self._submit(request).result()
