"""MSG1: the length-prefixed wire protocol of the compression service.

One frame carries one request or one reply::

    offset  size  field
    0       4     magic  b"MSG1"
    4       4     header length H   (u32, big-endian)
    8       8     payload length P  (u64, big-endian)
    16      H     header — one UTF-8 JSON object (pure stdlib, no msgpack)
    16+H    P     payload — raw bytes (ndarray data or compressed stream)

The header is the structured part (op, request id, compressor name,
knob values, array dtype/shape); the payload is the bulk part and is
never re-encoded — an ndarray travels as its C-contiguous bytes, a
compressed stream travels verbatim.  JSON costs nothing at these header
sizes (~100 bytes) and keeps the protocol dependency-free and easily
inspectable on the wire.

Every decoder in this module raises :class:`~repro.errors.ProtocolError`
on malformed input — bad magic, oversized lengths, truncation, a header
that is not a JSON object — and never anything else, so the server can
treat any other exception as a bug rather than a hostile peer.

Request headers carry ``op`` plus op-specific fields (see
``docs/SERVICE.md`` for the full table); reply headers carry ``status``
(``"ok"``, ``"error"``, or ``"busy"``) and echo the request ``id``.

Request headers may additionally carry an **optional** ``trace`` field
(:data:`TRACE_FIELD`): a W3C-traceparent-style string linking the
request into a distributed trace (see :mod:`repro.telemetry.context`).
The field is backward- and forward-compatible by construction — JSON
headers tolerate unknown keys, so an old server ignores it and an old
client simply never sends it; a malformed value is ignored rather than
rejected.  The frame format itself is unchanged (still MSG1).

Reply headers may carry an **optional** ``shard`` field
(:data:`SHARD_FIELD`): the identity of the daemon shard that served
the request.  A standalone daemon sends it when started with
``--shard-id``; the cluster router (:mod:`repro.service.cluster`)
stamps it on every routed reply.  Like ``trace``, it is pure metadata —
clients that do not know it ignore it.

**Capabilities and the zero-copy data plane.**  A client may open a
connection with a ``hello`` request carrying :data:`CAPS_FIELD` (a list
of capability names); the reply echoes the subset the server supports.
Two capabilities exist today:

* :data:`CAP_PIPELINE` — the server dispatches frames concurrently, so
  one connection may carry many in-flight requests distinguished by
  their ``id``; replies can arrive out of order.
* :data:`CAP_SHM` — same-host shared-memory payload handoff.  A large
  request payload travels as a published segment: the header carries
  :data:`SHM_FIELD` (name/shape/dtype of a
  :class:`repro.parallel.shm.ShmDescriptor`) and the frame payload is
  empty.  The client may also offer :data:`REPLY_SHM_FIELD`
  (``{"name": ..., "capacity": n}``) — a client-owned scratch segment
  the server writes the bulk reply into, answering with
  :data:`SHM_NBYTES_FIELD` instead of inline payload bytes.  Every
  segment is owned (published, reused, and unlinked) by the *client*;
  the server only ever attaches and detaches, so a dying peer cannot
  leak the other side's memory.  A client granted nothing (or that
  never says hello) uses inline payloads, one request in flight.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from typing import Any

import numpy as np

from repro.errors import ProtocolError

#: Frame magic (protocol version 1); bump to MSG2 on incompatible change.
MAGIC = b"MSG1"

#: Optional request-header field carrying a serialized trace context
#: (re-exported from :mod:`repro.telemetry.context` for wire-level docs).
TRACE_FIELD = "trace"

#: Optional reply-header field naming the shard that served the request
#: (set by ``serve --shard-id`` and by the cluster router on routed ops).
SHARD_FIELD = "shard"

#: Request/reply-header field carrying the session id for the stateful
#: ``SESSION_OPEN``/``SESSION_STEP``/``SESSION_CLOSE`` op family
#: (docs/INSITU.md).  The cluster router hashes this field — and nothing
#: else — when routing session ops, so every step of one session lands
#: on the shard that holds its reference snapshot.
SESSION_FIELD = "session"

#: Every op a front-end answers; metrics count any other as ``unknown``.
OPS = frozenset("compress decompress sweep session_open session_step "
                "session_close hello cancel list health stats metrics cluster".split())

#: HELLO request/reply field listing capability names.
CAPS_FIELD = "caps"

#: Capability: concurrent per-connection dispatch with out-of-order replies.
CAP_PIPELINE = "pipeline"

#: Capability: same-host shared-memory payload handoff.
CAP_SHM = "shm"

#: Request-header field carrying the payload's shm descriptor
#: (``{"name": ..., "shape": [...], "dtype": ...}``; frame payload empty).
SHM_FIELD = "shm"

#: Request-header field offering a client-owned reply scratch segment
#: (``{"name": ..., "capacity": n}``).
REPLY_SHM_FIELD = "reply_shm"

#: Reply-header field: byte count the server wrote into the offered
#: reply segment (payload travels there instead of inline).
SHM_NBYTES_FIELD = "shm_nbytes"

#: Fixed-size frame prefix: magic + u32 header length + u64 payload length.
PREFIX = struct.Struct(">4sIQ")

#: Headers are small structured metadata; anything bigger is hostile.
MAX_HEADER_BYTES = 1 << 20

#: Payloads below this stay inline even when :data:`CAP_SHM` was
#: negotiated — segment bookkeeping costs more than a small send.  The
#: batcher uses the same threshold for worker-bound publishing.
SHM_MIN_BYTES = 1 << 16

#: Default payload cap (1 GiB); the server makes this configurable.
MAX_PAYLOAD_BYTES = 1 << 30


#: ``json.dumps(header, sort_keys=True, separators=(",", ":"))``, built once.
_HEADER_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_header(header: dict[str, Any]) -> bytes:
    """Serialize a header dict to canonical compact JSON bytes."""
    return _HEADER_ENCODER.encode(header).encode()


def decode_header(raw: bytes) -> dict[str, Any]:
    """Parse header bytes; :class:`ProtocolError` unless a JSON object."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"header is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(
            f"header must be a JSON object, got {type(header).__name__}"
        )
    return header


def encode_frame(header: dict[str, Any], payload: bytes = b"") -> bytes:
    """One complete MSG1 frame as bytes."""
    raw = encode_header(header)
    if len(raw) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header too large: {len(raw)} bytes")
    return PREFIX.pack(MAGIC, len(raw), len(payload)) + raw + payload


def parse_prefix(
    prefix: bytes, max_payload_bytes: int = MAX_PAYLOAD_BYTES
) -> tuple[int, int]:
    """Validate a 16-byte frame prefix; returns (header_len, payload_len)."""
    if len(prefix) != PREFIX.size:
        raise ProtocolError(
            f"frame prefix truncated: {len(prefix)}/{PREFIX.size} bytes"
        )
    magic, header_len, payload_len = PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if header_len == 0 or header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"header length {header_len} out of range")
    if payload_len > max_payload_bytes:
        raise ProtocolError(
            f"payload length {payload_len} exceeds cap {max_payload_bytes}"
        )
    return header_len, payload_len


def decode_frame(
    buf: bytes, max_payload_bytes: int = MAX_PAYLOAD_BYTES
) -> tuple[dict[str, Any], bytes]:
    """Decode one complete in-memory frame (tests, fuzzing)."""
    header_len, payload_len = parse_prefix(buf[: PREFIX.size], max_payload_bytes)
    expected = PREFIX.size + header_len + payload_len
    if len(buf) != expected:
        raise ProtocolError(f"frame is {len(buf)} bytes, expected {expected}")
    header = decode_header(buf[PREFIX.size : PREFIX.size + header_len])
    return header, buf[PREFIX.size + header_len :]


# -- asyncio stream I/O ------------------------------------------------------


async def read_frame(
    reader, max_payload_bytes: int = MAX_PAYLOAD_BYTES
) -> tuple[dict[str, Any], bytes] | None:
    """Read one frame from an ``asyncio.StreamReader``.

    Returns ``None`` on clean EOF *before* a frame starts; raises
    :class:`ProtocolError` on EOF mid-frame or malformed content.
    """
    import asyncio

    try:
        prefix = await reader.readexactly(PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-prefix ({len(exc.partial)} bytes)"
        ) from exc
    header_len, payload_len = parse_prefix(prefix, max_payload_bytes)
    try:
        raw = await reader.readexactly(header_len + payload_len)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    header = decode_header(raw[:header_len])
    return header, raw[header_len:]


#: Payloads at or above this size are written as a separate buffer
#: instead of being concatenated into one frame bytes object — at data
#: plane sizes the concat is a measurable extra copy per frame.
_WRITE_SPLIT_BYTES = 1 << 16


async def write_frame(writer, header: dict[str, Any], payload: bytes = b"") -> None:
    """Write one frame to an ``asyncio.StreamWriter`` and drain."""
    if len(payload) >= _WRITE_SPLIT_BYTES:
        raw = encode_header(header)
        if len(raw) > MAX_HEADER_BYTES:
            raise ProtocolError(f"header too large: {len(raw)} bytes")
        writer.write(PREFIX.pack(MAGIC, len(raw), len(payload)) + raw)
        writer.write(payload)
    else:
        writer.write(encode_frame(header, payload))
    await writer.drain()


# -- blocking socket I/O (client side) ---------------------------------------


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(
                f"connection closed with {remaining}/{n} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sock(
    sock: socket.socket, max_payload_bytes: int = MAX_PAYLOAD_BYTES
) -> tuple[dict[str, Any], bytes]:
    """Read one frame from a blocking socket."""
    header_len, payload_len = parse_prefix(
        _recv_exactly(sock, PREFIX.size), max_payload_bytes
    )
    raw = _recv_exactly(sock, header_len + payload_len)
    return decode_header(raw[:header_len]), raw[header_len:]


def write_frame_sock(
    sock: socket.socket, header: dict[str, Any], payload: bytes = b""
) -> None:
    """Write one frame to a blocking socket."""
    if len(payload) >= _WRITE_SPLIT_BYTES:
        raw = encode_header(header)
        if len(raw) > MAX_HEADER_BYTES:
            raise ProtocolError(f"header too large: {len(raw)} bytes")
        sock.sendall(PREFIX.pack(MAGIC, len(raw), len(payload)) + raw)
        sock.sendall(payload)
    else:
        sock.sendall(encode_frame(header, payload))


# -- ndarray payload helpers -------------------------------------------------


def array_fields(arr: np.ndarray) -> dict[str, Any]:
    """Header fields describing an ndarray payload (dtype + shape)."""
    return {"dtype": arr.dtype.str, "shape": list(arr.shape)}


def pack_array(arr: np.ndarray) -> bytes:
    """An array's raw C-contiguous bytes (the MSG1 payload encoding)."""
    return np.ascontiguousarray(arr).tobytes()


def unpack_array(header: dict[str, Any], payload: bytes) -> np.ndarray:
    """Rebuild the ndarray a header + payload describe.

    The returned array is a read-only zero-copy view over ``payload``
    (compressors only read their input); callers that need to write
    must copy.
    """
    try:
        dtype = np.dtype(header["dtype"])
        shape = tuple(int(s) for s in header["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad array header: {exc}") from exc
    expected = math.prod(shape) * dtype.itemsize
    if len(payload) != expected:
        raise ProtocolError(
            f"array payload is {len(payload)} bytes, "
            f"dtype/shape require {expected}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(shape)


# -- shared-memory handoff header fields -------------------------------------


def is_loopback(host: str) -> bool:
    """Whether ``host`` is this machine — the precondition for ``shm``."""
    return host == "localhost" or host.startswith("127.") or host == "::1"


def shm_fields(desc) -> dict[str, Any]:
    """The :data:`SHM_FIELD` value describing one published segment."""
    return {
        "name": desc.name,
        "shape": list(desc.shape),
        "dtype": str(desc.dtype),
    }


def parse_shm(value: Any):
    """Validate a :data:`SHM_FIELD` value into a ``ShmDescriptor``.

    Raises :class:`ProtocolError` on anything malformed — a truncated or
    hostile descriptor must surface as a per-request protocol error, not
    as an arbitrary exception inside the daemon.
    """
    from repro.parallel.shm import ShmDescriptor

    if not isinstance(value, dict):
        raise ProtocolError(
            f"shm field must be an object, got {type(value).__name__}"
        )
    name = value.get("name")
    if not isinstance(name, str) or not name:
        raise ProtocolError("shm field needs a non-empty segment name")
    shape_raw = value.get("shape")
    if not isinstance(shape_raw, (list, tuple)):
        raise ProtocolError("shm field needs a shape list")
    try:
        shape = tuple(int(s) for s in shape_raw)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad shm shape: {exc}") from exc
    if any(s < 0 for s in shape):
        raise ProtocolError(f"bad shm shape: {shape}")
    try:
        dtype = np.dtype(value.get("dtype"))
    except TypeError as exc:
        raise ProtocolError(f"bad shm dtype: {exc}") from exc
    desc = ShmDescriptor(name=name, shape=shape, dtype=dtype.str)
    if desc.nbytes <= 0:
        raise ProtocolError("shm descriptor describes an empty array")
    return desc


def reply_shm_fields(name: str, capacity: int) -> dict[str, Any]:
    """The :data:`REPLY_SHM_FIELD` value offering a reply scratch segment."""
    return {"name": name, "capacity": int(capacity)}


def parse_reply_shm(value: Any) -> tuple[str, int]:
    """Validate a :data:`REPLY_SHM_FIELD` value into ``(name, capacity)``."""
    if not isinstance(value, dict):
        raise ProtocolError(
            f"reply_shm field must be an object, got {type(value).__name__}"
        )
    name = value.get("name")
    if not isinstance(name, str) or not name:
        raise ProtocolError("reply_shm field needs a non-empty segment name")
    capacity = value.get("capacity")
    if not isinstance(capacity, int) or isinstance(capacity, bool) \
            or capacity <= 0:
        raise ProtocolError(f"bad reply_shm capacity: {capacity!r}")
    return name, capacity
