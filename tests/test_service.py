"""The compression daemon: correctness under concurrency, backpressure,
deadlines, graceful drain, and the service CLI."""

import asyncio
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.compressors import TemporalCompressor
from repro.compressors.base import CompressedBuffer, Compressor, CompressorMode
from repro.compressors.registry import (
    available_compressors,
    get_compressor,
    register_compressor,
)
from repro import kernels, telemetry
from repro.errors import ConfigError, ServiceBusyError, ServiceError
from repro.service import ServiceClient, ServiceThread
from repro.service import protocol
from repro.parallel.shm import ShmDescriptor
from repro.service.batch import (
    POOL_THREAD_PREFIX,
    Batcher,
    PendingRequest,
    bounded,
)
from repro.telemetry import context as trace_context

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


class SleepyCompressor(Compressor):
    """Test-only codec that holds the batcher for a controllable time.

    Registered in this process only, which is where every COMPRESS runs
    (a SWEEP's worker processes would not know it).
    """

    name = "sleepy-test"
    supported_modes = (CompressorMode.ABS,)
    #: ``error_bound`` of every compress call that reached the codec.
    calls: list = []

    def __init__(self, delay: float = 0.5) -> None:
        self.delay = delay

    def compress(self, data, error_bound=None, mode=None, **_):
        self.calls.append(error_bound)
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


class GatedCompressor(SleepyCompressor):
    """Test-only codec whose calls hold their codec slot until the test
    opens ``gate`` (at most ``HOLD_S``); ``entered`` is set once a call
    reached a slot."""

    name = "gated-test"
    calls: list = []
    HOLD_S = 10.0
    entered = threading.Event()
    gate = threading.Event()

    def __init__(self) -> None:
        super().__init__(delay=0.0)

    def compress(self, data, error_bound=None, mode=None, **_):
        self.entered.set()
        self.gate.wait(self.HOLD_S)
        return super().compress(data, error_bound, mode)


for _name, _cls in (("sleepy-test", SleepyCompressor),
                    ("gated-test", GatedCompressor)):
    try:
        register_compressor(_name, _cls)
    except ConfigError:  # re-imported module; already registered
        pass


def _field(side: int = 12, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((side, side, side)) * 40).astype(np.float32)


def _healthy_tier(kernel: str) -> str:
    """The tier the process selection serves ``kernel`` on while nothing
    has tripped: native unless pinned to numpy or not built here."""
    registry = kernels.KernelRegistry()
    registry.set_backend(kernels.requested_backend())
    return registry.resolve(kernel)[0]


def _counter(stats: dict, name: str) -> float:
    inst = stats.get("metrics", {}).get(name)
    return float(inst["value"]) if inst else 0.0


class FrameLevelCases:
    """Frame-level behaviour every MSG1 front-end shares (the daemon
    here, a router over two daemons in the subclass below)."""

    front = "daemon"

    def test_unknown_op_is_an_error(self, front_end):
        with front_end(self.front) as st:
            with socket.create_connection(("127.0.0.1", st.port)) as sock:
                protocol.write_frame_sock(sock, {"op": "frobnicate", "id": 1})
                reply, _ = protocol.read_frame_sock(sock)
                assert reply["status"] == "error"
                assert reply["code"] == "bad_op"

    def test_malformed_frame_gets_protocol_error_then_close(self, front_end):
        with front_end(self.front) as st:
            with socket.create_connection(("127.0.0.1", st.port)) as sock:
                sock.sendall(b"GARBAGE-NOT-MSG1" * 4)
                reply, _ = protocol.read_frame_sock(sock)
                assert reply["status"] == "error"
                assert reply["code"] == "protocol"
                assert sock.recv(1) == b""  # server hung up: no resync
            # The front-end survives hostile input: a new connection works.
            with ServiceClient(port=st.port) as client:
                assert client.health()["status"] == "ok"

    def test_unknown_codec_option_is_a_typed_error(self, front_end):
        """An option the codec does not take is the caller's mistake on
        every op that carries options — a ``ConfigError`` reply naming
        it, never ``internal`` with a daemon traceback.  That includes
        ZFP's former ``batched`` / ``backend``: the wire cannot choose a
        slower implementation."""
        field = _field(8)
        with front_end(self.front) as st, \
                ServiceClient(port=st.port) as client:
            good = client.compress(field, "zfp", mode="fixed_rate", value=8.0)
            for codec, options in (("sz", {"block_size": 8}),
                                   ("zfp", {"batched": False}),
                                   ("zfp", {"backend": "numpy"})):
                option = next(iter(options))
                for call in (
                    lambda: client.compress(field, codec, value=0.1,
                                            options=options),
                    lambda: client.decompress(good, codec, options=options),
                    lambda: client.session_open(codec, options=options),
                ):
                    with pytest.raises(ServiceError, match=option) as err:
                        call()
                    assert err.value.code == "ConfigError"
                    assert "accepted" in str(err.value)
            # bad input cost nobody their connection or their daemon
            again = client.compress(field, "zfp", mode="fixed_rate", value=8.0)
            assert again.payload == good.payload
            assert _counter(client.stats(), "service.errors") >= 9

    def test_bad_zfp_knob_is_a_typed_error(self, front_end):
        """A ZFP knob no block can code is a ``DataError`` reply that
        degrades nothing.  ``rate=1e9`` used to raise ``MemoryError`` in
        the native ``zfp.encode``; the registry took that for a broken
        tier and served every later ZFP request of the daemon on numpy."""
        field = _field(8)
        expected = get_compressor("zfp").compress(field, rate=8.0).payload
        with front_end(self.front) as st, \
                ServiceClient(port=st.port) as client:
            for mode, value in (("fixed_rate", float("nan")),
                                ("fixed_rate", float("inf")),
                                ("fixed_rate", 1e9),
                                ("fixed_rate", 1e308),
                                ("fixed_precision", 1.5)):
                with pytest.raises(ServiceError) as err:
                    client.compress(field, "zfp", mode=mode, value=value)
                assert err.value.code == "DataError", (mode, value)
            stats = client.stats()
            daemons = stats["fleet"]["shards"].values() if "fleet" in stats \
                else [stats]
            assert [d["kernels"]["tripped"] for d in daemons] == [{}] * len(daemons)
            assert client.compress(field, "zfp", mode="fixed_rate",
                                   value=8.0).payload == expected
            assert kernels.last_used()["zfp.encode"] == _healthy_tier("zfp.encode")

    def test_oversized_sz_blocks_are_a_typed_error(self, front_end):
        """A request's ``block_side`` reaches the codec as it is: past
        65536 cells per block it is a ``DataError`` reply, before the
        daemon builds a block-sized design matrix (side 128 cost ~400 MiB
        for any field), and the daemon keeps serving."""
        field = _field(8)
        expected = get_compressor("sz").compress(field, error_bound=0.1).payload
        with front_end(self.front) as st, \
                ServiceClient(port=st.port) as client:
            for side, mode, value in ((41, "abs", 0.1), (128, "abs", 0.1),
                                      (255, "pw_rel", 0.1)):
                with pytest.raises(ServiceError, match="at most 65536") as err:
                    client.compress(field, "sz", mode=mode, value=value,
                                    options={"block_side": side})
                assert err.value.code == "DataError", side
            stats = client.stats()
            daemons = stats["fleet"]["shards"].values() if "fleet" in stats \
                else [stats]
            assert [d["kernels"]["tripped"] for d in daemons] == [{}] * len(daemons)
            assert client.compress(field, "sz", value=0.1).payload == expected


class TestBasicOps(FrameLevelCases):
    def test_compress_matches_direct_call(self):
        field = _field()
        with ServiceThread() as st, ServiceClient(port=st.port) as client:
            buf = client.compress(field, "sz", mode="abs", value=0.1)
            local = get_compressor("sz").compress(
                field, mode="abs", error_bound=0.1
            )
            assert buf.payload == local.payload
            assert buf.compression_ratio == local.compression_ratio
            assert buf.mode is CompressorMode.ABS
            assert buf.original_shape == field.shape
            recon = client.decompress(buf)
            assert np.array_equal(recon, get_compressor("sz").decompress(local))

    def test_list_health_stats(self):
        with ServiceThread() as st, ServiceClient(port=st.port) as client:
            assert client.list_compressors() == available_compressors()
            health = client.health()
            assert health["status"] == "ok" and not health["draining"]
            client.compress(_field(8), "zfp", mode="fixed_rate", value=8.0)
            stats = client.stats()
            assert stats["requests_total"] >= 3
            assert stats["latency"]["window_n"] >= 1
            assert stats["latency"]["p99_ms"] >= stats["latency"]["p50_ms"]
            assert _counter(stats, "service.requests.compress") >= 1
            assert _counter(stats, "service.bytes_in") > 0

    def test_error_reply_does_not_kill_connection(self):
        with ServiceThread() as st, ServiceClient(port=st.port) as client:
            with pytest.raises(ServiceError, match="unknown compressor"):
                client.compress(_field(8), "no-such-codec", value=0.1)
            # Same socket keeps working afterwards.
            buf = client.compress(_field(8), "sz", mode="abs", value=0.5)
            assert buf.compressed_nbytes > 0

    def test_bad_array_fails_alone(self):
        with ServiceThread() as st, ServiceClient(port=st.port) as client:
            ints = np.arange(64, dtype=np.int64).reshape(4, 4, 4)
            with pytest.raises(ServiceError, match="dtype"):
                client.compress(ints, "sz", mode="abs", value=0.1)

    def test_fuzzed_junk_never_kills_the_daemon(self):
        rng = np.random.default_rng(42)
        with ServiceThread() as st:
            for _ in range(10):
                blob = rng.integers(
                    0, 256, size=int(rng.integers(1, 200)), dtype=np.uint8
                ).tobytes()
                with socket.create_connection(("127.0.0.1", st.port)) as sock:
                    sock.sendall(blob)
                    sock.shutdown(socket.SHUT_WR)
                    sock.recv(1 << 16)  # whatever the server answers
            with ServiceClient(port=st.port) as client:
                assert client.health()["status"] == "ok"


class TestBasicOpsViaRouter(FrameLevelCases):
    front = "router"


class TestMetricLabels:
    """Client strings never become metric names or label values."""

    def test_malformed_requests_do_not_grow_the_registry(self):
        field = _field(4)

        def junk(sock: socket.socket, tag: str) -> None:
            for i in range(40):
                protocol.write_frame_sock(sock, {"op": f"bogus-{tag}{i}"})
                assert protocol.read_frame_sock(sock)[0]["code"] == "bad_op"
                protocol.write_frame_sock(sock, {
                    "op": "compress", "compressor": f"nope-{tag}{i}",
                    "mode": "abs", "value": 0.5,
                    **protocol.array_fields(field),
                }, protocol.pack_array(field))
                assert protocol.read_frame_sock(sock)[0]["status"] == "error"

        with ServiceThread() as st, ServiceClient(port=st.port) as client, \
                socket.create_connection(("127.0.0.1", st.port)) as sock:
            junk(sock, "a")
            client.stats()
            before = set(client.stats()["metrics"])
            junk(sock, "b")
            after = set(client.stats()["metrics"])
        assert after == before
        assert not [k for k in after if "bogus" in k or "nope" in k]
        assert "service.requests.unknown" in after

    def test_a_compressor_name_cannot_inject_a_label(self):
        with ServiceThread() as st, ServiceClient(port=st.port) as client:
            with pytest.raises(ServiceError, match="unknown compressor"):
                client.compress(_field(4), 'x",evil="1', value=0.5)
            text = client.metrics_text()
        assert 'evil="1"' not in text
        assert 'compressor="unknown"' in text


class TestConcurrentStress:
    def test_responses_bit_exact_under_concurrency(self):
        """N threads hammer one daemon; every reply must be byte-identical
        to the direct library call for its configuration."""
        field = _field(16)
        configs = [
            ("sz", "abs", 0.5),
            ("sz", "abs", 0.1),
            ("zfp", "fixed_rate", 8.0),
            ("zfp", "fixed_rate", 4.0),
        ]
        expected = {}
        for name, mode, value in configs:
            knob = {"abs": "error_bound", "fixed_rate": "rate"}[mode]
            expected[(name, mode, value)] = get_compressor(name).compress(
                field, mode=mode, **{knob: value}
            ).payload

        # More callers than dispatch slots, whatever the host: the
        # surplus queues.
        n_threads, per_thread = max(8, 4 * (os.cpu_count() or 1)), 8
        failures: list[str] = []

        with ServiceThread(max_pending=256) as st:
            before_client = ServiceClient(port=st.port)
            before = before_client.stats()
            before_client.close()

            def worker(tid: int) -> None:
                with ServiceClient(port=st.port, seed=tid) as client:
                    for i in range(per_thread):
                        name, mode, value = configs[(tid + i) % len(configs)]
                        buf = client.compress(field, name, mode=mode, value=value)
                        if buf.payload != expected[(name, mode, value)]:
                            failures.append(
                                f"thread {tid} req {i}: {name}/{mode}/{value}"
                            )

            threads = [
                threading.Thread(target=worker, args=(t,))
                for t in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            stats_client = ServiceClient(port=st.port)
            stats = stats_client.stats()
            stats_client.close()

        assert not failures, failures
        # Telemetry counters are process-wide and survive across servers,
        # so assert on deltas over this test's window.
        compressed = (
            _counter(stats, "service.requests.compress")
            - _counter(before, "service.requests.compress")
        )
        assert compressed == n_threads * per_thread

    def test_large_fields_through_shm_dispatch(self):
        """Concurrent >=64 KiB arrays with workers=2 (large enough for
        the client's shared-memory data plane) come back bit-exact."""
        field = _field(32)  # 128 KiB: above SHM_MIN_BYTES
        expected = get_compressor("zfp").compress(
            field, mode="fixed_rate", rate=8.0
        ).payload
        results: list[bytes] = []
        with ServiceThread(workers=2) as st:
            def worker() -> None:
                with ServiceClient(port=st.port) as client:
                    buf = client.compress(
                        field, "zfp", mode="fixed_rate", value=8.0
                    )
                    results.append(buf.payload)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        assert len(results) == 4
        assert all(r == expected for r in results)

    def test_overload_never_leaves_the_daemon_process(self):
        """Overload with two slots: every queued request runs on a codec
        thread — no dispatch crosses into a worker process."""
        import multiprocessing

        field = _field(32)  # 128 KiB: above SHM_MIN_BYTES
        expected = get_compressor("sz").compress(
            field, mode="abs", error_bound=0.5
        ).payload
        slots = 2
        n_threads, per_thread = 4 * slots, 8
        payloads: list[bytes] = []
        with ServiceThread(workers=slots, max_pending=256) as st:
            with ServiceClient(port=st.port) as client:
                before = client.stats()

            def worker(tid: int) -> None:
                with ServiceClient(port=st.port, seed=tid) as client:
                    for _ in range(per_thread):
                        buf = client.compress(field, "sz", mode="abs", value=0.5)
                        payloads.append(buf.payload)

            threads = [
                threading.Thread(target=worker, args=(t,))
                for t in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            with ServiceClient(port=st.port) as client:
                stats = client.stats()
            assert multiprocessing.active_children() == []

        def delta(name: str) -> float:
            return _counter(stats, name) - _counter(before, name)

        assert len(payloads) == n_threads * per_thread
        assert all(p == expected for p in payloads)
        assert delta("parallel.process_map_tasks") == 0


class TestBackpressure:
    def test_busy_reply_when_queue_full(self):
        field = _field(6)
        with ServiceThread(max_pending=1, workers=1) as st:
            blocker_done = threading.Event()

            def blocker() -> None:
                with ServiceClient(port=st.port) as client:
                    client.compress(field, "sleepy-test", mode="abs", value=2.0)
                blocker_done.set()

            t = threading.Thread(target=blocker)
            t.start()
            # Wait until the blocker's request was *dequeued* (in flight).
            with ServiceClient(port=st.port) as probe:
                rejected0 = _counter(probe.stats(), "service.rejected_busy")
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    h = probe.health()
                    if h["requests_total"] >= 1 and h["queue_depth"] == 0:
                        break
                    time.sleep(0.01)

                # Fill the single queue slot from another thread...
                filler_started = threading.Event()

                def filler() -> None:
                    with ServiceClient(port=st.port) as client:
                        filler_started.set()
                        client.compress(field, "sz", mode="abs", value=0.5)

                f = threading.Thread(target=filler)
                f.start()
                filler_started.wait(5)
                deadline = time.monotonic() + 5
                while probe.health()["queue_depth"] < 1:
                    assert time.monotonic() < deadline, "filler never queued"
                    time.sleep(0.01)

                # ...so the next request must bounce with BUSY.
                with ServiceClient(port=st.port, busy_retries=0) as client:
                    with pytest.raises(ServiceBusyError):
                        client.compress(field, "sz", mode="abs", value=0.25)

                stats = probe.stats()
                assert _counter(stats, "service.rejected_busy") >= rejected0 + 1
            t.join(30)
            f.join(30)
            assert blocker_done.is_set()

    def test_client_retry_rides_out_the_busy_window(self):
        """With retries enabled the same overload resolves transparently."""
        field = _field(6)
        with ServiceThread(max_pending=1, workers=1) as st:
            def blocker() -> None:
                with ServiceClient(port=st.port) as client:
                    client.compress(field, "sleepy-test", mode="abs", value=2.0)

            threads = [threading.Thread(target=blocker) for _ in range(3)]
            for t in threads:
                t.start()
                time.sleep(0.05)
            # Three sleepy requests saturate a 1-deep queue; a patient
            # client gets through anyway.
            with ServiceClient(
                port=st.port, busy_retries=40, retry_base_s=0.05, seed=1
            ) as client:
                buf = client.compress(field, "sz", mode="abs", value=0.5)
                assert buf.compressed_nbytes > 0
            for t in threads:
                t.join(60)


class TestDeadlines:
    def test_deadline_expires_in_queue(self):
        field = _field(6)
        with ServiceThread(max_pending=8, workers=1) as st:
            def blocker() -> None:
                with ServiceClient(port=st.port) as client:
                    client.compress(field, "sleepy-test", mode="abs", value=2.0)

            t = threading.Thread(target=blocker)
            t.start()
            time.sleep(0.1)  # let the sleepy batch occupy the dispatcher
            with ServiceClient(port=st.port) as client:
                expired0 = _counter(client.stats(), "service.deadline_expired")
                with pytest.raises(ServiceError, match="deadline"):
                    client.compress(
                        field, "sz", mode="abs", value=0.5, timeout_ms=50
                    )
                stats = client.stats()
                assert _counter(stats, "service.deadline_expired") >= expired0 + 1
            t.join(30)


@contextmanager
def _held_slot(port: int):
    """Hold one codec slot with a ``gated-test`` COMPRESS for the block."""
    GatedCompressor.entered.clear()
    GatedCompressor.gate.clear()

    def hold() -> None:
        with ServiceClient(port=port) as client:
            client.compress(_field(4), "gated-test", mode="abs", value=1.0)

    t = threading.Thread(target=hold)
    t.start()
    try:
        assert GatedCompressor.entered.wait(30), "the holder never ran"
        yield
    finally:
        GatedCompressor.gate.set()
        t.join(60)
    assert not t.is_alive()


def _wait_queued(client, depth: int, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while client.health()["queue_depth"] < depth:
        assert time.monotonic() < deadline, f"queue never reached {depth}"
        time.sleep(0.01)


class TestSessionStepAdmission:
    """A SESSION_STEP is admitted like a COMPRESS: it queues for a slot,
    expires at its deadline and bounces off a full queue — and neither
    failure advances the daemon's encoder reference."""

    BOUND = 0.5

    def _series(self):
        snaps = [_field(8, seed=s) for s in range(3)]
        library = TemporalCompressor(inner="sz", keyframe_every=4)
        return snaps, [
            library.compress(s, mode="abs", error_bound=self.BOUND).payload
            for s in snaps
        ]

    def test_a_step_queued_past_its_deadline_does_not_advance(self):
        snaps, expected = self._series()
        with ServiceThread(workers=1) as st, \
                ServiceClient(port=st.port) as client:
            session = client.session_open(
                "sz", mode="abs", value=self.BOUND, keyframe_every=4
            )
            assert session.step(snaps[0])[1] == expected[0]
            failed = []

            def late_step() -> None:
                try:
                    session.step(snaps[1], timeout_ms=50)
                except ServiceError as exc:
                    failed.append(getattr(exc, "code", None))

            with _held_slot(st.port):
                t = threading.Thread(target=late_step)
                t.start()
                _wait_queued(client, 1)
                time.sleep(0.1)  # the step's 50 ms run out in the queue
            t.join(60)
            assert failed == ["deadline"]
            # Same expect_ref: the daemon still holds step 0's reference.
            reply, stream = session.step(snaps[1])
            assert reply["step"] == 1
            assert [stream, session.step(snaps[2])[1]] == expected[1:]

    def test_a_full_queue_answers_a_step_busy(self):
        snaps, expected = self._series()
        with ServiceThread(workers=1, max_pending=1) as st, \
                ServiceClient(port=st.port, busy_retries=0) as client:
            session = client.session_open(
                "sz", mode="abs", value=self.BOUND, keyframe_every=4
            )
            assert session.step(snaps[0])[1] == expected[0]

            def filler() -> None:
                with ServiceClient(port=st.port) as other:
                    other.compress(_field(4), "sz", mode="abs", value=0.5)

            with _held_slot(st.port):
                f = threading.Thread(target=filler)
                f.start()
                _wait_queued(client, 1)
                with pytest.raises(ServiceBusyError):
                    session.step(snaps[1])
            f.join(60)
            assert not f.is_alive()
            assert [session.step(s)[1] for s in snaps[1:]] == expected[1:]


def _sleepy_frame(rid: int, value: float, delay: float, **extra) -> dict:
    """Header of one pipelined ``sleepy-test`` COMPRESS of ``_field(4)``;
    ``value`` tells configurations apart, a trace field makes the daemon
    record the request's queue-wait and dispatch spans."""
    with trace_context.start_trace():
        return trace_context.inject({
            "op": "compress", "id": rid, "compressor": "sleepy-test",
            "mode": "abs", "value": value, "options": {"delay": delay},
            **protocol.array_fields(_field(4)), **extra,
        })


def _sleepy_threads(port: int, delay: float, n: int = 2) -> list:
    """Start ``n`` callers, each one ``sleepy-test`` request."""
    def call(value: float) -> None:
        with ServiceClient(port=port) as client:
            client.compress(
                _field(4), "sleepy-test", mode="abs", value=value,
                options={"delay": delay},
            )

    threads = [
        threading.Thread(target=call, args=(float(i),)) for i in range(n)
    ]
    for t in threads:
        t.start()
    return threads


def _pipeline(port: int, frames: list[dict]) -> None:
    """Write ``frames`` (each a COMPRESS of ``_field(4)``) on one socket
    without waiting, then read every reply; each must be ``ok``."""
    payload = protocol.pack_array(_field(4))
    with socket.create_connection(("127.0.0.1", port)) as sock:
        for frame in frames:
            protocol.write_frame_sock(sock, frame, payload)
        for _ in frames:
            reply, _ = protocol.read_frame_sock(sock)
            assert reply["status"] == "ok"


def _dispatch_groups(tm) -> list[tuple[float, list[int]]]:
    """``(start, request ids)`` of each distinct ``service.dispatch``
    start, in start order (request_id is the daemon's arrival number,
    from 1)."""
    groups: dict = {}
    for s in tm.tracer.finished_spans():
        if s.name == "service.dispatch":
            groups.setdefault(s.start, []).append(s.attrs["request_id"])
    return sorted(groups.items())


class TestDispatcher:
    """Dispatch on arrival: slots, one request per dispatch in arrival
    order, the codec pool."""

    def test_lone_request_is_dispatched_without_a_wait(self):
        field = _field(8)
        with telemetry.enabled_telemetry("client") as tm:
            with ServiceThread() as st, ServiceClient(port=st.port) as client:
                for _ in range(9):
                    client.compress(field, "sz", mode="abs", value=0.5)
        waits = sorted(
            s.duration for s in tm.tracer.finished_spans()
            if s.name == "service.queue_wait"
        )
        assert len(waits) == 9
        assert waits[len(waits) // 2] < 1e-3  # a 2 ms window sat here

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
    def test_independent_requests_overlap_on_a_default_daemon(self):
        with ServiceThread() as st:
            t0 = time.monotonic()
            for t in _sleepy_threads(st.port, delay=0.3):
                t.join(30)
            assert time.monotonic() - t0 < 0.5

    def test_workers_1_keeps_one_dispatch_in_flight(self):
        with ServiceThread(workers=1) as st:
            t0 = time.monotonic()
            for t in _sleepy_threads(st.port, delay=0.3):
                t.join(30)
            assert time.monotonic() - t0 >= 0.6

    def test_queued_requests_leave_one_per_dispatch_in_arrival_order(self):
        # Arrival order behind the blocker: A B A C A (A, B, C: work keys).
        values = [1.0, 2.0, 1.0, 3.0, 1.0]
        frames = [_sleepy_frame(1, 0.0, delay=0.3)] + [
            _sleepy_frame(2 + i, value, delay=0.0)
            for i, value in enumerate(values)
        ]
        with telemetry.enabled_telemetry("client") as tm:
            with ServiceThread(workers=1) as st:
                _pipeline(st.port, frames)
        assert [ids for _, ids in _dispatch_groups(tm)] == \
            [[1], [2], [3], [4], [5], [6]]

    def test_two_slots_split_a_same_key_backlog(self):
        """Six same-key requests on two slots: the four queued ones leave
        two at a time, each in a dispatch of its own, so request 4 runs
        beside request 3 instead of after it."""
        frames = [_sleepy_frame(1 + i, 1.0, delay=0.3) for i in range(6)]
        with telemetry.enabled_telemetry("client") as tm:
            with ServiceThread(workers=2) as st:
                _pipeline(st.port, frames)
        assert [ids for _, ids in _dispatch_groups(tm)] == \
            [[1], [2], [3], [4], [5], [6]]
        spans = {s.attrs["request_id"]: s for s in tm.tracer.finished_spans()
                 if s.name == "service.dispatch"}
        third, fourth = spans[3], spans[4]
        assert third.start < fourth.end and fourth.start < third.end

    def test_cancelled_or_expired_while_queued_never_reaches_a_codec(self):
        payload = protocol.pack_array(_field(4))
        with ServiceThread(workers=1) as st:
            with socket.create_connection(("127.0.0.1", st.port)) as sock:
                protocol.write_frame_sock(
                    sock, _sleepy_frame(1, 70.0, delay=0.3), payload
                )
                protocol.write_frame_sock(
                    sock, _sleepy_frame(2, 71.0, delay=0.0, timeout_ms=50),
                    payload,
                )
                protocol.write_frame_sock(
                    sock, _sleepy_frame(3, 72.0, delay=0.0), payload
                )
                protocol.write_frame_sock(
                    sock, {"op": "cancel", "cancel_id": 3, "id": 4}
                )
                replies = {}
                for _ in range(4):
                    reply, _ = protocol.read_frame_sock(sock)
                    replies[reply["id"]] = reply
        assert replies[1]["status"] == "ok"
        assert replies[2]["code"] == "deadline"
        assert replies[3]["code"] == "cancelled"
        assert replies[4]["cancelled"] is True
        assert 70.0 in SleepyCompressor.calls
        assert not {71.0, 72.0} & set(SleepyCompressor.calls)

    def test_drain_returns_after_every_dispatch_in_flight_replied(self):
        with ServiceThread(workers=2) as st:
            batcher = st.server.batcher
            threads = _sleepy_threads(st.port, delay=0.3)
            deadline = time.monotonic() + 5
            while len(batcher._inflight) < 2:
                assert time.monotonic() < deadline, "never both in flight"
                time.sleep(0.01)
            done: list = []
            for task in list(batcher._inflight):
                st.loop.call_soon_threadsafe(
                    task.add_done_callback, done.append
                )
            asyncio.run_coroutine_threadsafe(
                batcher.drain(), st.loop
            ).result(10)
            assert len(done) == 2 and not batcher._inflight
            for t in threads:
                t.join(30)
                assert not t.is_alive()

    def test_codec_threads_never_exceed_the_slots(self):
        def codec_threads() -> int:
            return sum(
                t.name.startswith(POOL_THREAD_PREFIX)
                for t in threading.enumerate()
            )

        field = _field(8)
        seen: list[int] = []
        with ServiceThread(workers=2) as st:
            assert st.server.batcher.slots == 2

            def stateless() -> None:
                with ServiceClient(port=st.port) as client:
                    for _ in range(6):
                        client.compress(field, "sz", mode="abs", value=0.5)
                        seen.append(codec_threads())

            def stepping() -> None:
                with ServiceClient(port=st.port) as client:
                    session = client.session_open("sz", mode="abs", value=0.5)
                    for _ in range(6):
                        session.step(field)
                        seen.append(codec_threads())
                    session.close()

            threads = [threading.Thread(target=stateless) for _ in range(4)]
            threads.append(threading.Thread(target=stepping))
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        assert seen and max(seen) <= 2
        assert codec_threads() == 0  # the pool went down with the daemon


def _native() -> bool:
    return all(_healthy_tier(k) == "native" for k in kernels.active())


def _pending(op: str = "compress", compressor: str = "sz",
             data: np.ndarray | bytes | None = None, **fields) -> PendingRequest:
    """A 16 KiB SZ COMPRESS (``data``: the array, or a DECOMPRESS's
    stream) with one thing changed."""
    data = _field(16) if data is None else data
    if isinstance(data, bytes):
        header = {"op": op, "compressor": compressor, "mode": "abs",
                  "parameter": 0.5, "shape": [16] * 3, "dtype": "float32"}
    else:
        header = {"op": op, "compressor": compressor, "mode": "abs",
                  "value": 0.5, **protocol.array_fields(data)}
        data = protocol.pack_array(data)
    shm = fields.pop("shm", None)
    return PendingRequest(op=op, header={**header, **fields}, payload=data,
                          future=None, shm=shm)


def _dispatch_paths(tm) -> list[str]:
    return [s.attrs["path"] for s in tm.tracer.finished_spans()
            if s.name == "service.dispatch"]


class TestFramePath:
    """How a connection turns bytes into frames: at most PIPELINE_DEPTH
    in flight per connection, and a loop-thread request served on the
    read without a task."""

    def test_no_frame_is_read_past_the_pipeline_depth(self):
        from repro.service.core import PIPELINE_DEPTH

        n = PIPELINE_DEPTH + 8
        payload = protocol.pack_array(_field(4))
        GatedCompressor.entered.clear()
        GatedCompressor.gate.clear()
        with ServiceThread(workers=1, max_pending=2 * n) as st, \
                socket.create_connection(("127.0.0.1", st.port)) as sock:
            for rid in range(1, n + 1):  # one holds the slot, the rest queue
                protocol.write_frame_sock(sock, {
                    "op": "compress", "id": rid, "compressor": "gated-test",
                    "mode": "abs", "value": 1.0,
                    **protocol.array_fields(_field(4)),
                }, payload)
            try:
                assert GatedCompressor.entered.wait(30)
                with ServiceClient(port=st.port) as client:
                    _wait_queued(client, PIPELINE_DEPTH - 1)
                    time.sleep(0.2)  # a frame read past the gate would queue
                    stats = client.stats()
                assert stats["queue_depth"] == PIPELINE_DEPTH - 1
                assert _counter(stats, "service.requests.compress") == PIPELINE_DEPTH
            finally:
                GatedCompressor.gate.set()
            ids = sorted(protocol.read_frame_sock(sock)[0]["id"] for _ in range(n))
        assert ids == list(range(1, n + 1))

    def test_a_loop_thread_request_runs_without_a_task(self, monkeypatch):
        from repro.service import core

        resumed = []
        init = core._Resume.__init__

        def spy(self, *args):
            resumed.append(args)
            init(self, *args)

        monkeypatch.setattr(core._Resume, "__init__", spy)
        with kernels.use("native"):
            if not _native():
                pytest.skip("the native tier is not built on this host")
            with ServiceThread() as st, ServiceClient(port=st.port) as client:
                buf = client.compress(_field(16), "sz", mode="abs", value=0.5)
                client.decompress(buf)
                loop_frames = len(resumed)
                client.compress(_field(4), "sleepy-test", mode="abs",
                                value=1.0, options={"delay": 0.0})
        assert loop_frames == 0
        assert len(resumed) == 1  # the pool-bound one suspends


class TestLoopDispatch:
    """Small requests skip the thread hop: a *bounded* request that
    would start at once runs on the event-loop thread."""

    def test_each_condition_flipped_sends_a_request_to_the_pool(self):
        small = _field(16)  # 16 KiB
        sz = get_compressor("sz")
        stream = sz.compress(small, error_bound=0.5).payload
        zfp_stream = get_compressor("zfp").compress(small, rate=8.0).payload
        lzss = get_compressor("sz", lossless=["lzss"]).compress(
            small, error_bound=0.5).payload
        # 70 KiB out of a stream well under 64 KiB
        wide = sz.compress(_field(26), error_bound=5.0).payload
        assert len(wide) < protocol.SHM_MIN_BYTES
        flipped = {
            "op": _pending("sweep"),
            "shm": _pending(shm=ShmDescriptor("seg", (16, 16, 16), "float32")),
            "options": _pending(options={"block_side": 6}),
            "codec": _pending(compressor="store"),
            "input size": _pending(data=_field(26)),
            "stream-declared output size": _pending("decompress", data=wide),
            "lossless flag": _pending("decompress", data=lzss),
            "damaged header": _pending("decompress", data=stream[:20]),
        }
        with kernels.use("native"):
            if not _native():
                pytest.skip("the native tier is not built on this host")
            for name in ("sz", "gpu-sz"):
                assert bounded(_pending(compressor=name))
                assert bounded(_pending("decompress", name, stream))
            for name in ("zfp", "cuzfp"):
                assert bounded(_pending(compressor=name, mode="fixed_rate"))
                assert bounded(_pending("decompress", name, zfp_stream))
            assert {k: bounded(r) for k, r in flipped.items()} == \
                dict.fromkeys(flipped, False)
        with kernels.use("numpy"):
            assert not bounded(_pending())  # the tier
            assert not bounded(_pending("decompress", data=stream))

    def test_load_above_the_slots_sends_a_request_to_the_pool(self):
        async def threads_of(frames: int, first: str | None = None) -> list:
            batcher = Batcher(workers=2 if first is None else 1)
            batcher.start()
            seen: list[str] = []
            run = batcher._run

            def spy(request, ctx):
                seen.append(threading.current_thread().name)
                return run(request, ctx)

            batcher._run = spy
            requests = [_pending(compressor=c) for c in (first, "sz") if c]
            for request in requests:
                request.future = asyncio.get_running_loop().create_future()
                assert batcher.admit(request, frames)
            for request in requests:
                assert isinstance(await request.future, CompressedBuffer)
            await batcher.close()
            return seen

        with kernels.use("native"):
            if not _native():
                pytest.skip("the native tier is not built on this host")
            loop_thread = threading.current_thread().name
            assert asyncio.run(threads_of(frames=2)) == [loop_thread]
            assert asyncio.run(threads_of(frames=3)) == [f"{POOL_THREAD_PREFIX}_0"]
            # no free slot: the request queues behind the first one
            assert asyncio.run(threads_of(frames=1, first="store")) == \
                [f"{POOL_THREAD_PREFIX}_0"] * 2

    def test_streams_that_decode_large_take_the_pool(self):
        """What a DECOMPRESS costs is what its stream's header says it
        decodes to, not its size on the wire."""
        rng = np.random.default_rng(3)
        big = rng.standard_normal((128, 128, 120)).astype(np.float32)
        zfp = get_compressor("zfp").compress(big, rate=0.25)
        smooth = np.linspace(0, 1, 1 << 18, dtype=np.float32).reshape(64, 64, 64)
        lzss = get_compressor("sz", lossless=["lzss"]).compress(
            smooth, error_bound=1e-2)
        small = get_compressor("sz").compress(_field(16), error_bound=0.5)
        for buf in (zfp, lzss):
            assert buf.compressed_nbytes < protocol.SHM_MIN_BYTES
            assert np.prod(buf.original_shape) * 4 >= 16 * protocol.SHM_MIN_BYTES
        garbage = CompressedBuffer(
            payload=b"SZR1" + bytes(range(200)), original_shape=(16, 16, 16),
            original_dtype=np.dtype(np.float32), mode=CompressorMode.ABS,
            parameter=0.5)
        with telemetry.enabled_telemetry("client") as tm:
            with ServiceThread() as st, ServiceClient(port=st.port) as client:
                for name, buf in (("zfp", zfp), ("sz", lzss), ("sz", small)):
                    assert np.array_equal(
                        client.decompress(buf, name),
                        get_compressor(name).decompress(buf))
                with pytest.raises(ServiceError) as err:
                    client.decompress(garbage, "sz")
        with pytest.raises(Exception) as local:
            get_compressor("sz").decompress(garbage)
        assert err.value.code == type(local.value).__name__
        tail = "loop" if _native() else "pool"
        assert _dispatch_paths(tm) == ["pool", "pool", tail, "pool"]

    def test_a_crafted_block_side_is_a_work_bound(self):
        """The loop check reads only the stream's header, and that header
        still bounds the work: a 2x2x2 field whose stream claims blocks
        of side 64 decodes one 64^3 block (1 MiB), so the request takes
        the pool, never the loop thread, and fails there."""
        stream = bytearray(get_compressor("sz", block_side=2).compress(
            _field(2), error_bound=0.5).payload)
        stream[7] = 64  # the header's block side (magic, version, dtype, ndim)
        crafted = bytes(stream)
        assert get_compressor("sz").decoded_nbytes(crafted) == 64**3 * 4
        with kernels.use("native"):
            if not _native():
                pytest.skip("the native tier is not built on this host")
            assert not bounded(_pending("decompress", data=crafted))
        buf = CompressedBuffer(
            payload=crafted, original_shape=(2, 2, 2),
            original_dtype=np.dtype(np.float32), mode=CompressorMode.ABS,
            parameter=0.5)
        with telemetry.enabled_telemetry("client") as tm:
            with ServiceThread() as st, ServiceClient(port=st.port) as client:
                with pytest.raises(ServiceError, match="symbol count"):
                    client.decompress(buf, "sz")
        assert _dispatch_paths(tm) == ["pool"]

    def test_small_compress_runs_on_the_loop_thread_large_on_a_codec_thread(self):
        names: dict[int, str] = {}
        with telemetry.enabled_telemetry("client") as tm:
            with ServiceThread() as st, ServiceClient(port=st.port) as client:
                for side in (16, 32):  # 16 KiB, 128 KiB
                    client.compress(_field(side), "sz", mode="abs", value=0.5)
                    names.update((t.ident, t.name) for t in threading.enumerate())
                stats = client.stats()
        threads = [
            "codec" if names[s.thread_id].startswith(POOL_THREAD_PREFIX)
            else names[s.thread_id]
            for s in tm.tracer.finished_spans() if s.name == "sz.encode"
        ]
        if _native():
            assert threads == ["repro-daemon", "codec"]
            assert _dispatch_paths(tm) == ["loop", "pool"]
            assert _counter(stats, 'service.dispatches{path="loop"}') == 1
        else:
            assert threads == ["codec", "codec"]
        assert _counter(stats, 'service.dispatches{path="pool"}') >= 1

    def test_a_numpy_daemon_never_uses_the_loop(self):
        field = _field(16)
        with telemetry.enabled_telemetry("client") as tm:
            with ServiceThread(backend="numpy") as st, \
                    ServiceClient(port=st.port) as client:
                for name, mode, value in (("sz", "abs", 0.5),
                                          ("zfp", "fixed_rate", 8.0)):
                    client.decompress(
                        client.compress(field, name, mode=mode, value=value))
        assert _dispatch_paths(tm) == ["pool"] * 4


class DrainCases:
    front = "daemon"

    def test_drain_finishes_in_flight_and_refuses_new(self, front_end):
        field = _field(6)
        with front_end(self.front, workers=1) as st:
            result: dict = {}

            def in_flight() -> None:
                with ServiceClient(port=st.port) as client:
                    result["buf"] = client.compress(
                        field, "sleepy-test", mode="abs", value=2.0
                    )

            t = threading.Thread(target=in_flight)
            t.start()
            time.sleep(0.15)  # request admitted and computing

            with ServiceClient(port=st.port) as probe:
                assert probe.health()["status"] == "ok"
                st.loop.call_soon_threadsafe(st.server.request_drain)
                deadline = time.monotonic() + 5
                while not st.server.draining:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                # New work on an existing connection: refused as draining.
                with pytest.raises(ServiceBusyError):
                    probe.busy_retries = 0
                    probe.compress(field, "sz", mode="abs", value=0.5)

            t.join(30)
            assert result["buf"].payload == np.ascontiguousarray(field).tobytes()
        # The embedder's __exit__ joined the server thread: fully drained.
        assert not st.thread.is_alive()


class TestGracefulDrain(DrainCases):
    def test_sigterm_drains_the_cli_daemon(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--port", "0", "--quiet"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("serving on ")
            port = int(line.rsplit(":", 1)[1])
            with ServiceClient(port=port, connect_timeout_s=20) as client:
                buf = client.compress(
                    _field(8), "zfp", mode="fixed_rate", value=8.0
                )
                assert buf.compressed_nbytes > 0
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert "drained" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)


class TestGracefulDrainViaRouter(DrainCases):
    front = "router"


class TestWarmStart:
    def test_cold_daemon_resolves_its_kernels_before_it_serves(self, tmp_path):
        """A daemon with an empty kernel cache loads the native tier
        before it binds: its first requests, all at once, trip nothing."""
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   REPRO_KERNEL_CACHE=str(tmp_path / "kernels"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("serving on ")
            port = int(line.rsplit(":", 1)[1])
            field = _field(8)
            failures: list = []

            def first_request(i: int) -> None:
                name, mode, value = [
                    ("sz", "abs", 0.5), ("zfp", "fixed_rate", 8.0)
                ][i % 2]
                try:
                    with ServiceClient(port=port, connect_timeout_s=20) as c:
                        c.compress(field, name, mode=mode, value=value)
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

            threads = [
                threading.Thread(target=first_request, args=(i,))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not failures, failures
            with ServiceClient(port=port) as client:
                served = client.stats()["kernels"]
            proc.send_signal(signal.SIGTERM)
            _, log = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)
        assert served["tripped"] == {}
        # Same host, same compiler: the daemon runs the tiers this
        # process resolves, and said so before it announced its port.
        assert served["active"] == kernels.active()
        for kernel, tier in served["active"].items():
            assert f"kernel {kernel} -> {tier}" in log
        assert log.index("kernel ") < log.index("listening on")


class TestFailedStart:
    def test_occupied_port_leaves_telemetry_and_backend_untouched(self):
        from repro import kernels
        from repro.telemetry import get_telemetry

        before = kernels.current_override()
        with socket.create_server(("127.0.0.1", 0)) as occupied:
            with pytest.raises(OSError):
                ServiceThread(
                    port=occupied.getsockname()[1], backend="numpy"
                ).start()
        assert get_telemetry().enabled is False
        assert kernels.current_override() == before


class TestSweep:
    def test_sweep_matches_local_cbench_and_serves_warm(self, tmp_path):
        from repro.foresight.cbench import CBench
        from repro.foresight.config import CompressorSweep

        field = _field(10)
        sweeps = [{
            "name": "sz", "mode": "abs",
            "sweep": {"error_bound": [0.5, 0.25]},
        }]
        local = CBench(
            {"field": field}, keep_reconstructions=False
        ).run(CompressorSweep(name="sz", mode="abs",
                              sweep={"error_bound": [0.5, 0.25]}))
        # workers=1 keeps the sweep's cache lookups in the server process:
        # ResultCache stats are per-instance, so worker-process hits would
        # not show in the server's STATS (the rows' cache column still would).
        with ServiceThread(cache=str(tmp_path / "cache"), workers=1) as st:
            with ServiceClient(port=st.port) as client:
                cold = client.sweep(field, sweeps)
                warm = client.sweep(field, sweeps)
                stats = client.stats()
        assert [r["parameter"] for r in cold] == [r.parameter for r in local]
        assert [r["compression_ratio"] for r in cold] == [
            r.compression_ratio for r in local
        ]
        assert all(r["cache"] == "miss" for r in cold)
        assert all(r["cache"] == "hit" for r in warm)
        assert stats["cache"]["hits"] >= 2

    def test_sweep_without_entries_is_an_error(self):
        with ServiceThread() as st, ServiceClient(port=st.port) as client:
            with pytest.raises(ServiceError, match="sweeps"):
                client.sweep(_field(6), [])


class TestCli:
    def test_compress_subcommand_round_trip(self, tmp_path):
        field = _field(8)
        src = tmp_path / "field.npy"
        np.save(src, field)
        out = tmp_path / "field.sz"
        with ServiceThread() as st:
            from repro.service.cli import main

            rc = main([
                "compress", str(src), "--compressor", "sz",
                "--mode", "abs", "--value", "0.5",
                "--port", str(st.port), "--out", str(out),
            ])
        assert rc == 0
        local = get_compressor("sz").compress(field, mode="abs", error_bound=0.5)
        assert out.read_bytes() == local.payload
