"""The zero-copy data plane: pipelined framing, shm handoff, and hygiene.

Three families of guarantees:

* **Protocol robustness** — request ids survive interleaving and
  duplication, and malformed or lying shm descriptors produce error
  replies (or a clean connection close), never a dead daemon.
* **Bit-exactness** — a reply served through a shared-memory segment is
  byte-identical to the same request served inline, for both the
  blocking and the pooled client.
* **Hygiene** — no shared-memory segments survive a client crash, a
  drained daemon, or a fork()ed worker pool (the owner-pid regression).
"""

import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.compressors.base import CompressedBuffer, Compressor, CompressorMode
from repro.compressors.registry import register_compressor
from repro.errors import ConfigError, ProtocolError, ServiceError
from repro.service import (
    ClusterThread,
    PooledClient,
    ServiceClient,
    ServiceThread,
    protocol,
    routing_key,
)
from repro.parallel.shm import SegmentPool, SharedArray, ShmDescriptor, shm_enabled

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no POSIX shared memory here"
)

#: For tests that assert the shm path actually *ran* — under
#: REPRO_NO_SHM the transparent inline fallback is the correct
#: behavior, and the remaining tests in this file prove it.
requires_shm = pytest.mark.skipif(
    not shm_enabled(), reason="REPRO_NO_SHM disables the shm data plane"
)


def _psm_segments() -> set[str]:
    """Names of live shared-memory segments (best effort)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:  # pragma: no cover - platform without /dev/shm
        return set()


def _wait_until(predicate, timeout_s=15.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError("condition not reached in time")


def _counter(stats: dict, name: str) -> float:
    inst = stats.get("metrics", {}).get(name)
    return float(inst["value"]) if inst else 0.0


def _field(kib: int = 256, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = (kib << 10) // 4
    return (rng.standard_normal(n) * 40).astype(np.float32)


class SlowpokeCompressor(Compressor):
    """Store-like codec that sleeps first (in-process batches only)."""

    name = "slowpoke-test"
    supported_modes = (CompressorMode.ABS,)

    def __init__(self, delay: float = 0.5) -> None:
        self.delay = delay

    def compress(self, data, error_bound=None, mode=None, **_):
        time.sleep(self.delay)
        data = np.asarray(data)
        return CompressedBuffer(
            payload=data.tobytes(),
            original_shape=data.shape,
            original_dtype=data.dtype,
            mode=CompressorMode.ABS,
            parameter=float(error_bound or 0.0),
        )

    def decompress(self, buf):
        return np.frombuffer(buf.payload, dtype=buf.original_dtype).reshape(
            buf.original_shape
        )


try:
    register_compressor("slowpoke-test", SlowpokeCompressor)
except ConfigError:  # re-imported module; already registered
    pass


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.settimeout(10)
    return sock


def _compress_header(arr: np.ndarray, **extra) -> dict:
    return {
        "op": "compress",
        "compressor": "store",
        "mode": "abs",
        "value": 0.0,
        "options": {},
        **protocol.array_fields(arr),
        **extra,
    }


# -- protocol robustness ------------------------------------------------------


class TestRequestIds:
    """MSG1 request ids, HELLO and CANCEL — one set of cases that the
    daemon (here) and the router (subclass below) must both pass."""

    front = "daemon"

    def test_hello_echoes_id_and_filters_caps(self, front_end):
        with front_end(self.front) as st:
            with _connect(st.port) as sock:
                protocol.write_frame_sock(sock, {
                    "op": "hello", "id": 41,
                    protocol.CAPS_FIELD: [
                        protocol.CAP_PIPELINE, protocol.CAP_SHM,
                        "bogus-cap-from-the-future",
                    ],
                })
                reply, _ = protocol.read_frame_sock(sock)
                # No caps list offered: nothing granted.
                protocol.write_frame_sock(sock, {"op": "hello", "id": 42})
                bare, _ = protocol.read_frame_sock(sock)
            assert reply["status"] == "ok"
            assert reply["id"] == 41
            assert reply["role"] == self.front
            granted = set(reply[protocol.CAPS_FIELD])
            assert protocol.CAP_PIPELINE in granted
            assert "bogus-cap-from-the-future" not in granted
            assert bare["id"] == 42 and bare[protocol.CAPS_FIELD] == []

    def test_interleaved_requests_are_matched_by_id(self, front_end):
        fields = {i: _field(kib=4, seed=i) for i in (3, 1, 2)}
        with front_end(self.front) as st:
            with _connect(st.port) as sock:
                for i, arr in fields.items():
                    protocol.write_frame_sock(
                        sock,
                        _compress_header(arr, id=i),
                        protocol.pack_array(arr),
                    )
                replies = {}
                for _ in fields:
                    reply, body = protocol.read_frame_sock(sock)
                    replies[reply["id"]] = (reply, body)
            assert set(replies) == set(fields)
            for i, arr in fields.items():
                reply, body = replies[i]
                assert reply["status"] == "ok"
                assert body == arr.tobytes()  # store: payload is the input

    def test_duplicate_ids_get_two_replies(self, front_end):
        # Ids are the *client's* correlation tokens; the front-end
        # answers every frame and echoes whatever id it carried.
        arr = _field(kib=4)
        with front_end(self.front) as st:
            with _connect(st.port) as sock:
                for _ in range(2):
                    protocol.write_frame_sock(
                        sock, _compress_header(arr, id=7),
                        protocol.pack_array(arr),
                    )
                for _ in range(2):
                    reply, body = protocol.read_frame_sock(sock)
                    assert reply["id"] == 7
                    assert reply["status"] == "ok"
                    assert body == arr.tobytes()

    def test_cancel_of_unknown_id_is_harmless(self, front_end):
        with front_end(self.front) as st:
            with _connect(st.port) as sock:
                protocol.write_frame_sock(
                    sock, {"op": "cancel", "cancel_id": 10**9, "id": 1}
                )
                reply, _ = protocol.read_frame_sock(sock)
                assert reply["status"] == "ok"
                assert reply["cancelled"] is False
                # Same connection keeps serving.
                protocol.write_frame_sock(sock, {"op": "health", "id": 2})
                reply, _ = protocol.read_frame_sock(sock)
                assert reply["status"] == "ok" and reply["id"] == 2

    def test_cancel_revokes_a_request_still_in_flight(self, front_end):
        # Two slow requests, the second in another batch group (so on
        # one daemon it queues behind the first); a CANCEL of the second
        # is acknowledged and the request itself answered ``cancelled``.
        arr = _field(kib=4)

        def slow(rid, delay):
            header = _compress_header(arr, id=rid)
            header.update(compressor="slowpoke-test", options={"delay": delay})
            return header

        with front_end(self.front, workers=1) as st:
            with _connect(st.port) as sock:
                payload = protocol.pack_array(arr)
                protocol.write_frame_sock(sock, slow(1, 0.4), payload)
                protocol.write_frame_sock(sock, slow(2, 0.41), payload)
                protocol.write_frame_sock(
                    sock, {"op": "cancel", "cancel_id": 2, "id": 3}
                )
                replies = {}
                for _ in range(3):
                    reply, body = protocol.read_frame_sock(sock)
                    replies[reply["id"]] = (reply, body)
                assert replies[3][0]["cancelled"] is True
                assert replies[2][0]["status"] == "error"
                assert replies[2][0]["code"] == "cancelled"
                assert replies[1][0]["status"] == "ok"
                assert replies[1][1] == arr.tobytes()
                protocol.write_frame_sock(sock, {"op": "health", "id": 4})
                reply, _ = protocol.read_frame_sock(sock)
                assert reply["status"] == "ok" and reply["id"] == 4


class TestRequestIdsViaRouter(TestRequestIds):
    front = "router"


class TestShmDescriptorFuzz:
    BAD_DESCRIPTORS = [
        "not-a-mapping",
        {},
        {"name": "psm_does_not_exist"},
        {"name": "psm_does_not_exist", "shape": [16], "dtype": "<f4"},
        {"name": 7, "shape": [16], "dtype": "<f4"},
        {"name": "x", "shape": "wat", "dtype": "<f4"},
        {"name": "x", "shape": [-4], "dtype": "<f4"},
        {"name": "x", "shape": [16], "dtype": "no-such-dtype"},
    ]

    def test_garbage_shm_descriptors_never_kill_the_daemon(self):
        arr = _field(kib=4)
        with ServiceThread() as st:
            for bad in self.BAD_DESCRIPTORS:
                with _connect(st.port) as sock:
                    protocol.write_frame_sock(
                        sock,
                        _compress_header(arr, **{protocol.SHM_FIELD: bad}),
                    )
                    try:
                        reply, _ = protocol.read_frame_sock(sock)
                    except (ServiceError, OSError):
                        continue  # clean close is acceptable for junk
                    assert reply["status"] == "error", bad
                # A fresh connection must always work afterwards.
                with ServiceClient(port=st.port, shm=False) as client:
                    assert client.health()["status"] == "ok"

    @requires_shm
    def test_truncated_segment_is_a_clean_attach_error(self):
        # The descriptor promises more bytes than the segment holds —
        # e.g. a peer that resized or unlinked mid-flight.
        arr = _field(kib=64)
        seg = SharedArray.create(1 << 12)  # 4 KiB, far short of 256 KiB
        try:
            lie = protocol.shm_fields(
                ShmDescriptor(name=seg.name, shape=arr.shape,
                              dtype=arr.dtype.str)
            )
            with ServiceThread() as st:
                with _connect(st.port) as sock:
                    protocol.write_frame_sock(
                        sock,
                        _compress_header(arr, **{protocol.SHM_FIELD: lie}),
                    )
                    reply, _ = protocol.read_frame_sock(sock)
                assert reply["status"] == "error"
                assert reply["code"] == "shm_attach"
                with ServiceClient(port=st.port, shm=False) as client:
                    assert client.health()["status"] == "ok"
        finally:
            seg.unlink()

    def test_lying_reply_shm_falls_back_to_inline(self):
        # The offered scratch segment claims more capacity than it has;
        # the daemon must notice and answer inline instead.
        arr = _field(kib=256)
        scratch = SharedArray.create(1 << 12)
        try:
            offer = protocol.reply_shm_fields(scratch.name, arr.nbytes * 2)
            with ServiceThread() as st:
                with _connect(st.port) as sock:
                    protocol.write_frame_sock(
                        sock,
                        _compress_header(
                            arr, **{protocol.REPLY_SHM_FIELD: offer}
                        ),
                        protocol.pack_array(arr),
                    )
                    reply, body = protocol.read_frame_sock(sock)
                assert reply["status"] == "ok"
                assert protocol.SHM_NBYTES_FIELD not in reply
                assert body == arr.tobytes()
        finally:
            scratch.unlink()

    def test_unknown_reply_shm_name_falls_back_to_inline(self):
        arr = _field(kib=256)
        offer = protocol.reply_shm_fields("psm_never_was", arr.nbytes * 2)
        with ServiceThread() as st:
            with _connect(st.port) as sock:
                protocol.write_frame_sock(
                    sock,
                    _compress_header(arr, **{protocol.REPLY_SHM_FIELD: offer}),
                    protocol.pack_array(arr),
                )
                reply, body = protocol.read_frame_sock(sock)
            assert reply["status"] == "ok"
            assert body == arr.tobytes()


# -- bit-exactness ------------------------------------------------------------


class TestShmInlineEquivalence:
    @requires_shm
    @pytest.mark.parametrize("codec,value", [("store", 0.0), ("sz", 1e-3)])
    def test_blocking_client_shm_reply_is_byte_identical(self, codec, value):
        arr = _field(kib=256)
        with ServiceThread() as st:
            with ServiceClient(port=st.port, shm=False) as inline_client, \
                    ServiceClient(port=st.port, shm=True) as shm_client:
                ref = inline_client.compress(arr, codec, mode="abs",
                                             value=value)
                via = shm_client.compress(arr, codec, mode="abs", value=value)
                assert via.payload == ref.payload
                out_ref = inline_client.decompress(ref)
                out_via = shm_client.decompress(via)
                assert out_via.tobytes() == out_ref.tobytes()
                # Prove the shm path actually ran, not a silent fallback.
                stats = shm_client.stats()
                assert _counter(stats, "service.shm_requests") >= 2
                assert _counter(stats, "service.shm_replies") >= 1

    def test_pooled_client_matches_blocking_inline(self):
        arr = _field(kib=256)
        with ServiceThread() as st, \
                ServiceClient(port=st.port, shm=False) as ref_client:
            ref = ref_client.compress(arr, "store", mode="abs", value=0.0)
            for shm in (False, True):
                before = _counter(ref_client.stats(), "service.shm_requests")
                with PooledClient(port=st.port, connections=2,
                                  shm=shm) as pool:
                    futures = [
                        pool.compress_async(arr, "store", mode="abs",
                                            value=0.0)
                        for _ in range(6)
                    ]
                    for fut in futures:
                        assert fut.result(timeout=60).payload == ref.payload
                    outs = [pool.decompress_async(ref) for _ in range(3)]
                    for fut in outs:
                        assert fut.result(timeout=60).tobytes() == arr.tobytes()
                    assert pool.decompress(ref).tobytes() == arr.tobytes()
                # The shm pool really went through segments (both
                # directions); the inline pool never did.
                via_shm = _counter(
                    ref_client.stats(), "service.shm_requests"
                ) - before
                assert (via_shm >= 9) if shm and shm_enabled() \
                    else (via_shm == 0)

    def test_pooled_call_times_out_alone_when_its_reply_is_lost(self):
        # A server that answers everything except request id 1: that
        # call must fail after request_timeout_s even though sibling
        # replies keep the connection busy, and the siblings succeed.
        arr = _field(kib=4)
        server = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = server.accept()
            with conn:
                try:
                    while True:
                        header, payload = protocol.read_frame_sock(conn)
                        if header["op"] == "hello":
                            reply = {"status": "ok", protocol.CAPS_FIELD:
                                     [protocol.CAP_PIPELINE]}
                        elif header["id"] == 1:
                            continue  # the lost reply
                        else:
                            reply = {"status": "ok", "mode": "abs",
                                     "parameter": 0.0, "dtype": "<f4",
                                     "shape": list(arr.shape)}
                        protocol.write_frame_sock(
                            conn, {**reply, "id": header.get("id")}, payload
                        )
                except (OSError, ProtocolError):
                    pass  # the pool hung up

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with PooledClient(port=server.getsockname()[1], connections=1,
                              request_timeout_s=0.5, shm=False) as pool:
                lost = pool.compress_async(arr, "store", value=0.0)
                give_up = time.monotonic() + 5
                while not lost.done() and time.monotonic() < give_up:
                    buf = pool.compress(arr, "store", value=0.0)
                    assert buf.payload == arr.tobytes()
                    time.sleep(0.05)
                assert lost.done()  # while the connection was never silent
                with pytest.raises(ServiceError, match="timed out"):
                    lost.result(timeout=0)
        finally:
            server.close()
            thread.join(timeout=5)

    @requires_shm
    def test_attach_failure_mid_flight_falls_back_inline(self, monkeypatch):
        # The server granted shm at HELLO but the attach breaks later
        # (e.g. namespace isolation): the client must retry inline once,
        # mark the path broken, and keep returning correct results.
        import repro.service.server as server_mod

        arr = _field(kib=256)
        with ServiceThread() as st:
            with ServiceClient(port=st.port, shm=True) as client:
                ref = client.compress(arr, "store", mode="abs", value=0.0)
                assert not client._shm_broken

                def broken_attach(desc):
                    from repro.errors import DataError
                    raise DataError("segment namespace not shared")

                monkeypatch.setattr(
                    server_mod.SharedArray, "attach",
                    staticmethod(broken_attach),
                )
                buf = client.compress(arr, "store", mode="abs", value=0.0)
                assert buf.payload == ref.payload
                assert client._shm_broken
                monkeypatch.undo()
                # Broken stays broken for this client — no flapping.
                buf = client.compress(arr, "store", mode="abs", value=0.0)
                assert buf.payload == ref.payload
                assert client._shm_broken

    @requires_shm
    def test_forced_inline_server_still_serves_shm_clients(self, tmp_path):
        # REPRO_NO_SHM on the daemon: HELLO never grants the shm cap, so
        # a willing client ships inline without ever seeing an error.
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_NO_SHM="1")
        # The with-block closes the stdout pipe and reaps the daemon.
        with subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--port", "0", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        ) as proc:
            try:
                line = proc.stdout.readline().strip()
                assert line.startswith("serving on ")
                port = int(line.rsplit(":", 1)[1])
                arr = _field(kib=256)
                with ServiceClient(port=port, shm=True) as client:
                    buf = client.compress(arr, "store", mode="abs", value=0.0)
                    assert buf.payload == arr.tobytes()
                    granted = client._call({
                        "op": "hello",
                        protocol.CAPS_FIELD: [protocol.CAP_PIPELINE,
                                              protocol.CAP_SHM],
                    })[0][protocol.CAPS_FIELD]
                    assert protocol.CAP_PIPELINE in granted  # HELLO answered
                    assert protocol.CAP_SHM not in granted
            finally:
                proc.terminate()
                proc.wait(timeout=30)


# -- the client transport -----------------------------------------------------


def _store_reply(header: dict, arr: np.ndarray) -> dict:
    """The reply a daemon sends for a ``store`` COMPRESS of ``arr``."""
    return {"status": "ok", "id": header["id"], "mode": "abs",
            "parameter": 0.0, "dtype": arr.dtype.str,
            "shape": list(arr.shape)}


class TestClientTransport:
    def test_reader_drains_replies_while_a_writer_is_stuck(self, fake_peer):
        # A frame larger than the socket buffers blocks its writer once
        # the peer stops reading (the daemon does so when its
        # per-connection gate is full).  The reply the peer already sent
        # must still complete its call, or the daemon's gate never opens.
        small, big = _field(kib=4), _field(kib=8 << 10)
        release = threading.Event()

        def handle(conn):
            header, payload = protocol.read_frame_sock(conn)
            time.sleep(0.5)  # the big frame's writer is stuck by now
            protocol.write_frame_sock(conn, _store_reply(header, small),
                                      payload)
            release.wait(10)  # ...and this peer never reads again

        with fake_peer(handle, rcvbuf=1 << 16) as port:
            with PooledClient(port=port, connections=1, shm=False,
                              request_timeout_s=3.0) as pool:
                first = pool.compress_async(small, "store", value=0.0)
                stuck = threading.Thread(
                    target=pool.compress_async, args=(big, "store"),
                    kwargs={"value": 0.0}, daemon=True,
                )
                stuck.start()
                try:
                    buf = first.result(timeout=2.0)
                finally:
                    release.set()
                assert buf.payload == small.tobytes()
            stuck.join(timeout=10)
            assert not stuck.is_alive()

    def test_lone_blocking_caller_reads_its_own_reply(self, monkeypatch):
        # One caller, one connection: the reply is read on the calling
        # thread, with no hand-off to the reader thread and back.
        from repro.service import client as client_mod

        readers = []
        on_reply = client_mod._Client._on_reply

        def spy(self, chan, reply, body):
            readers.append(threading.current_thread())
            return on_reply(self, chan, reply, body)

        monkeypatch.setattr(client_mod._Client, "_on_reply", spy)
        arr = _field(kib=4)
        with ServiceThread() as st, \
                ServiceClient(port=st.port, shm=False) as client:
            client.health()
            assert client.compress(arr, "store", value=0.0).payload \
                == arr.tobytes()
        assert len(readers) == 2
        assert all(t is threading.current_thread() for t in readers)

    def test_a_blocking_call_makes_no_future(self, monkeypatch):
        # A caller that reads its own reply waits on a plain lock: only
        # the async calls pay for a Future (a Condition, callbacks, a
        # state machine).
        import concurrent.futures
        import types

        from repro.service import client as client_mod

        made = []

        class Counting(concurrent.futures.Future):
            def __init__(self):
                made.append(self)
                super().__init__()

        monkeypatch.setattr(client_mod, "concurrent", types.SimpleNamespace(
            futures=types.SimpleNamespace(Future=Counting)))
        arr = _field(kib=4)
        with ServiceThread() as st, \
                PooledClient(port=st.port, connections=1, shm=False) as pool:
            pool.health()
            assert pool.compress(arr, "store", value=0.0).payload \
                == arr.tobytes()
            assert made == []
            future = pool.compress_async(arr, "store", value=0.0)
            assert future.result(timeout=10).payload == arr.tobytes()
        assert made == [future]

    def test_reader_thread_reads_for_a_caller_once_the_reading_one_returns(
        self, fake_peer
    ):
        # A's call holds the read role when B's frame goes out, so B waits
        # for A to read its reply; A returns first, and B's reply must
        # still be read (by the reader thread) rather than hang B.
        a, b = _field(kib=4, seed=1), _field(kib=4, seed=2)
        first_read = threading.Event()

        def handle(conn):
            first, p1 = protocol.read_frame_sock(conn)
            first_read.set()
            second, p2 = protocol.read_frame_sock(conn)
            time.sleep(0.2)
            protocol.write_frame_sock(conn, _store_reply(first, a), p1)
            time.sleep(0.2)
            protocol.write_frame_sock(conn, _store_reply(second, b), p2)
            protocol.read_frame_sock(conn)  # until the client hangs up

        results = {}

        def call(name, arr):
            results[name] = client.compress(arr, "store", value=0.0).payload

        with fake_peer(handle) as port:
            with ServiceClient(port=port, shm=False,
                               request_timeout_s=5.0) as client:
                threads = [threading.Thread(target=call, args=("a", a),
                                            daemon=True)]
                threads[0].start()
                assert first_read.wait(5)
                threads.append(threading.Thread(target=call, args=("b", b),
                                                daemon=True))
                threads[1].start()
                for t in threads:
                    t.join(timeout=3)
                assert not any(t.is_alive() for t in threads)
        assert results == {"a": a.tobytes(), "b": b.tobytes()}

    def test_threads_sharing_one_client_get_their_own_replies(self):
        # More callers than cores on one connection, switching often: a
        # reply completed for the wrong call hands a thread another
        # thread's bytes.
        n_threads, per_thread = max(8, 4 * (os.cpu_count() or 1)), 20
        fields = [_field(kib=4, seed=i) for i in range(n_threads)]
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServiceThread() as st, \
                    ServiceClient(port=st.port, shm=False) as client:
                def worker(i):
                    for _ in range(per_thread):
                        buf = client.compress(fields[i], "store", value=0.0)
                        if buf.payload != fields[i].tobytes():
                            failures.append(i)

                threads = [threading.Thread(target=worker, args=(i,))
                           for i in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures

    @pytest.mark.parametrize("pooled", [False, True],
                             ids=["blocking", "pooled"])
    def test_lost_reply_on_a_silent_connection_fails_on_time(
        self, fake_peer, pooled
    ):
        # The peer answers the first call, then reads and drops the rest:
        # the second call must fail request_timeout_s after it was sent,
        # although the connection was already silent before it.
        arr, timeout_s = _field(kib=4), 1.0

        def handle(conn):
            header, payload = protocol.read_frame_sock(conn)
            protocol.write_frame_sock(conn, _store_reply(header, arr), payload)
            while True:
                protocol.read_frame_sock(conn)

        opts = dict(shm=False, request_timeout_s=timeout_s)
        with fake_peer(handle) as port:
            client = (PooledClient(port=port, connections=1, **opts)
                      if pooled else ServiceClient(port=port, **opts))
            with client:
                client.compress(arr, "store", value=0.0)
                time.sleep(0.1)
                t0 = time.monotonic()
                with pytest.raises(ServiceError, match="timed out"):
                    client.compress(arr, "store", value=0.0)
                assert time.monotonic() - t0 < 1.5 * timeout_s


# -- hygiene ------------------------------------------------------------------


class TestSegmentHygiene:
    def test_clean_close_leaves_no_segments(self):
        before = _psm_segments()
        arr = _field(kib=256)
        with ServiceThread() as st:
            with ServiceClient(port=st.port, shm=True) as client:
                client.compress(arr, "store", mode="abs", value=0.0)
            with PooledClient(port=st.port, connections=2) as pool:
                pool.compress(arr, "store", mode="abs", value=0.0)
        _wait_until(lambda: _psm_segments() <= before, timeout_s=10)

    def test_killed_client_process_leaks_nothing(self):
        before = _psm_segments()
        with ServiceThread() as st:
            # The child publishes request + reply segments, fires the
            # request, and dies without reading the reply or cleaning up.
            code = (
                "import numpy as np, sys, os\n"
                "from repro.service import ServiceClient\n"
                "from repro.service import protocol\n"
                "port = int(sys.argv[1])\n"
                "arr = np.arange(1 << 16, dtype=np.float32)\n"
                "client = ServiceClient(port=port, shm=True)\n"
                "client.compress(arr, 'store', mode='abs', value=0.0)\n"
                "print('ready', flush=True)\n"
                "os.kill(os.getpid(), 9)\n"
            )
            with subprocess.Popen(
                [sys.executable, "-c", code, str(st.port)],
                stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
            ) as proc:
                assert proc.stdout.readline().strip() == "ready"
                proc.wait(timeout=30)
            assert proc.returncode == -signal.SIGKILL
            # The dead client's resource tracker unlinks its segments.
            _wait_until(lambda: _psm_segments() <= before, timeout_s=20)
            # And the daemon shrugs it off.
            with ServiceClient(port=st.port, shm=False) as client:
                assert client.health()["status"] == "ok"

    def test_sigterm_drain_leaves_no_segments(self):
        before = _psm_segments()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--port", "0", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        ) as proc:
            try:
                line = proc.stdout.readline().strip()
                assert line.startswith("serving on ")
                port = int(line.rsplit(":", 1)[1])
                arr = _field(kib=256)
                with ServiceClient(port=port, shm=True) as client:
                    buf = client.compress(arr, "store", mode="abs", value=0.0)
                    assert buf.payload == arr.tobytes()
                    proc.send_signal(signal.SIGTERM)
                    assert proc.wait(timeout=30) == 0
            finally:
                if proc.poll() is None:  # pragma: no cover - cleanup on failure
                    proc.kill()
                    proc.wait(timeout=30)
        _wait_until(lambda: _psm_segments() <= before, timeout_s=10)

    def test_forked_worker_exit_does_not_unlink_parent_segments(self):
        # Regression: a fork()ed child inherits owner handles, and its
        # exit-time GC used to unlink segments the parent still serves.
        seg = SharedArray.create(1 << 16)
        try:
            ctx = multiprocessing.get_context("fork")
            child = ctx.Process(target=_touch_nothing)
            child.start()
            child.join(timeout=30)
            assert child.exitcode == 0
            # The segment must still be attachable by name.
            desc = ShmDescriptor(name=seg.name, shape=(1 << 16,), dtype="|u1")
            SharedArray.attach(desc).close()
        finally:
            seg.unlink()
        assert seg.name not in _psm_segments()

    def test_pool_reuse_survives_a_forked_batch(self):
        # End to end: a two-slot daemon attaching the client's pooled
        # segments from its codec threads must not break them between
        # requests.
        before = _psm_segments()
        arr = _field(kib=256)
        with ServiceThread(workers=2) as st:
            with ServiceClient(port=st.port, shm=True) as client:
                for _ in range(4):
                    buf = client.compress(arr, "store", mode="abs", value=0.0)
                    assert buf.payload == arr.tobytes()
                assert not client._shm_broken
                stats = client.stats()
                assert _counter(stats, "service.shm_attach_errors") == 0
        _wait_until(lambda: _psm_segments() <= before, timeout_s=10)


def _touch_nothing() -> None:
    """Fork target: exit immediately, running interpreter teardown."""


# -- hedged late replies ------------------------------------------------------


class TestHedgeDrain:
    def test_late_reply_is_drained_and_the_channel_survives(self):
        # Both shards run a slow codec, so the hedge loser *does* reply
        # eventually — after its future was abandoned.  The pipelined
        # channel must swallow that orphan by id and keep the
        # connection; the legacy behavior was to tear it down.
        arr = _pick_field_for_any_primary()
        with ServiceThread(workers=1) as sa, \
                ServiceThread(workers=1) as sb:
            shards = [f"127.0.0.1:{sa.port}", f"127.0.0.1:{sb.port}"]
            with ClusterThread(shards=shards, hedge_after_s=0.1,
                               fail_after=10_000) as cluster, \
                    ServiceClient(port=cluster.port) as client:
                buf = client.compress(
                    arr, "slowpoke-test", mode="abs", value=1.0,
                    options={"delay": 0.5},
                )
                assert buf.payload == arr.tobytes()
                stats = client.stats()
                assert _counter(stats, "router.hedges") >= 1

                def drained() -> bool:
                    return _counter(client.stats(),
                                    "router.hedge_drains") >= 1

                _wait_until(drained, timeout_s=20)
                # The loser's channel is still live: another request
                # through the router round-trips without a redial.
                buf = client.compress(
                    arr, "slowpoke-test", mode="abs", value=1.0,
                    options={"delay": 0.0},
                )
                assert buf.payload == arr.tobytes()
                topo = client._call({"op": "cluster"}, b"")[0]
                assert all(
                    s.get("pipelined") for s in topo["shards"]
                ), topo["shards"]


def _pick_field_for_any_primary() -> np.ndarray:
    rng = np.random.default_rng(11)
    return (rng.standard_normal((1 << 14,)) * 40).astype(np.float32)
