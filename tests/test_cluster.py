"""The cluster router: placement, health-gated membership, hedging,
failover, fleet observability, and the stitched router trace.

Shards here are in-process :class:`ServiceThread` daemons addressed by
``host:port`` (fast, no subprocess spawn); the spawned-fleet path is
exercised separately by ``benchmarks/bench_service.py``.  Two stub
"shards" — one that never answers data ops, one that is a dead socket —
stand in for the slow and crashed fleet members the router must route
around.
"""

import asyncio
import re
import socket
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.compressors.registry import get_compressor
from repro.errors import ProtocolError, ServiceError
from repro.service import ServiceClient, ServiceThread, protocol, routing_key
from repro.service.cluster import ClusterThread, ShardHandle
from repro.service.membership import MembershipTable
from repro.service.ring import HashRing


def _field(n=512, seed=0):
    return np.random.default_rng(seed).normal(size=n).astype(np.float32)


def _compress_header(data, value=1e-3):
    return {
        "op": "compress", "compressor": "sz", "mode": "abs",
        "value": value, "options": {}, **protocol.array_fields(data),
    }


def _primary_of(data, shard_ids, value=1e-3):
    """Which shard the router will pick first for compressing ``data``."""
    ring = HashRing(shard_ids)
    key = routing_key(_compress_header(data, value), protocol.pack_array(data))
    return ring.lookup(key)


def _field_with_primary(shard_ids, target, n=512, value=1e-3):
    """A field whose compress request routes to ``target`` first."""
    for seed in range(200):
        data = _field(n, seed)
        if _primary_of(data, shard_ids, value) == target:
            return data
    raise AssertionError(f"no seed routed to {target} in 200 tries")


def _counter(stats, name):
    inst = stats.get("metrics", {}).get(name)
    return float(inst["value"]) if inst else 0.0


def _wait_until(predicate, timeout_s=15.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError("condition not reached in time")


class _StubShard:
    """A fake shard: answers HEALTH promptly, stalls every data op.

    The hedging tests need a shard that is *alive* (so membership keeps
    it in the ring) but uselessly slow — exactly the straggler the hedge
    budget exists for.  HELLO stalls like a data op unless
    ``hello_caps`` says which capabilities to answer it with.
    """

    def __init__(self, stall_s=30.0, hello_caps=None):
        self.stall_s = stall_s
        self.hello_caps = hello_caps
        self._server = socket.create_server(("127.0.0.1", 0))
        self.port = self._server.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def endpoint(self):
        return f"127.0.0.1:{self.port}"

    def _serve(self):
        self._server.settimeout(0.2)
        conns = []
        while not self._stop.is_set():
            try:
                conn, _ = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            t = threading.Thread(target=self._peer, args=(conn,), daemon=True)
            t.start()
            conns.append(conn)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass

    def _peer(self, conn):
        try:
            with conn:
                while not self._stop.is_set():
                    header, _ = protocol.read_frame_sock(conn)
                    op = str(header.get("op", "")).lower()
                    if op == "health" or (
                        op == "hello" and self.hello_caps is not None
                    ):
                        reply = {"status": "ok", "draining": False,
                                 protocol.CAPS_FIELD: self.hello_caps}
                        if header.get("id") is not None:
                            reply["id"] = header["id"]
                        protocol.write_frame_sock(conn, reply)
                        continue
                    # Data op: stall.  The router's hedge fires long
                    # before this returns; its cancel closes our socket.
                    self._stop.wait(self.stall_s)
                    return
        except Exception:
            pass  # router hung up (cancelled hedge loser) — expected

    def close(self):
        self._stop.set()
        self._server.close()
        self._thread.join(timeout=5)


class _FramingShard:
    """A fake shard that grants ``pipeline`` and answers every ``batch``
    requests with one reply frame each, handed to ``send(conn, frames)``
    — which decides how the bytes reach the router.  A redialed
    connection is answered in order, with one ``sendall`` per frame."""

    def __init__(self, send, batch):
        self.send, self.batch = send, batch
        self.accepted = 0
        self._server = socket.create_server(("127.0.0.1", 0))
        self.port = self._server.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            self.accepted += 1
            send = self.send if self.accepted == 1 else _in_order
            threading.Thread(target=self._peer, args=(conn, send),
                             daemon=True).start()

    def _peer(self, conn, send):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with conn:
            try:
                hello, _ = protocol.read_frame_sock(conn)
                protocol.write_frame_sock(conn, {
                    "status": "ok", "id": hello.get("id"),
                    protocol.CAPS_FIELD: [protocol.CAP_PIPELINE]})
                while True:
                    frames = [protocol.read_frame_sock(conn)
                              for _ in range(self.batch)]
                    send(conn, [protocol.encode_frame(
                        {"status": "ok", "id": h["id"], "n": h["n"]}, p[::-1]
                    ) for h, p in frames])
            except (OSError, ProtocolError):
                return  # the router hung up

    def close(self):
        self._server.close()
        self._thread.join(timeout=5)


def _in_order(conn, frames):
    for frame in frames:
        conn.sendall(frame)


def _payload(n):
    return bytes(range(n, n + 64))


def _exchange(send, batch):
    """``batch`` concurrent forwards through one :class:`ShardHandle`,
    then ``batch`` more on whatever channel it has next: ``(first
    outcomes, second outcomes, connections the shard accepted)``."""
    shard = _FramingShard(send, batch)

    async def forwards():
        channel = await handle.get_channel()
        return await asyncio.gather(*(
            channel.request({"op": "compress", "n": n}, _payload(n), 10.0)
            for n in range(batch)
        ), return_exceptions=True)

    async def main():
        try:
            return await forwards(), await forwards()
        finally:
            handle.close()

    handle = ShardHandle("fake", "127.0.0.1", shard.port)
    try:
        first, second = asyncio.run(main())
    finally:
        shard.close()
    return first, second, shard.accepted


def _replies(batch):
    return [({"status": "ok", "n": n}, _payload(n)[::-1]) for n in range(batch)]


def _dead_endpoint():
    """A host:port that refuses connections (bound once, then closed)."""
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


# -- the routing key ---------------------------------------------------------


class TestRoutingKey:
    def test_deterministic_and_metadata_blind(self):
        data = _field()
        header = _compress_header(data)
        key = routing_key(header, protocol.pack_array(data))
        assert key == routing_key(dict(header), protocol.pack_array(data))
        # Request ids, deadlines, and trace context never move a key —
        # otherwise retries of the same work would miss the warm shard.
        noisy = {**header, "id": 99, "timeout_ms": 5.0,
                 protocol.TRACE_FIELD: "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"}
        assert routing_key(noisy, protocol.pack_array(data)) == key

    def test_work_identity_perturbs_the_key(self):
        data = _field()
        payload = protocol.pack_array(data)
        base = routing_key(_compress_header(data), payload)
        assert routing_key(_compress_header(data, value=1e-2), payload) != base
        other = {**_compress_header(data), "compressor": "zfp"}
        assert routing_key(other, payload) != base
        assert routing_key(_compress_header(data),
                           protocol.pack_array(_field(seed=1))) != base

    def test_control_ops_are_keyless(self):
        for op in ("health", "stats", "metrics", "list", "cluster", "nope"):
            assert routing_key({"op": op}, b"") is None

    def test_sweep_keys_on_field_and_spec(self):
        data = _field()
        payload = protocol.pack_array(data)
        sweeps = [{"name": "sz", "mode": "abs",
                   "sweep": {"error_bound": [1e-3]}}]
        h = {"op": "sweep", "field": "rho", "sweeps": sweeps,
             **protocol.array_fields(data)}
        key = routing_key(h, payload)
        assert key == routing_key(dict(h), payload)
        assert routing_key({**h, "field": "vx"}, payload) != key


# -- the membership state machine -------------------------------------------


class TestMembershipTable:
    def test_suspect_does_not_drain(self):
        table = MembershipTable(fail_after=3, recover_after=2)
        table.add("s0")
        assert table.record_failure("s0") is None
        assert table.record_failure("s0") is None
        assert table.state("s0") == "suspect"
        assert table.serving() == ["s0"]  # still eligible while suspect
        assert table.record_failure("s0") == "drain"
        assert table.serving() == []

    def test_recovery_needs_consecutive_successes(self):
        table = MembershipTable(fail_after=1, recover_after=2)
        table.add("s0")
        assert table.record_failure("s0") == "drain"
        assert table.record_success("s0") is None  # 1 of 2
        assert table.record_failure("s0") is None  # streak broken
        assert table.record_success("s0") is None
        assert table.record_success("s0") == "admit"
        assert table.state("s0") == "up"

    def test_success_clears_a_suspect_streak(self):
        table = MembershipTable(fail_after=3, recover_after=1)
        table.add("s0")
        for _ in range(10):  # flapping below the threshold never drains
            table.record_failure("s0")
            assert table.record_success("s0") is None
        assert table.state("s0") == "up"

    def test_probe_delay_backs_off_only_when_down(self):
        table = MembershipTable(fail_after=1, recover_after=1,
                                probe_interval_s=0.1, reprobe_cap_s=2.0,
                                seed=3)
        table.add("s0")
        assert table.probe_delay("s0") == 0.1
        table.record_failure("s0")
        for _ in range(10):
            table.record_failure("s0")
        assert table.probe_delay("s0") <= 2.0 * 1.2  # cap * max jitter
        assert table.probe_delay("s0") > 0.1  # but well past base

    def test_validation(self):
        with pytest.raises(ValueError):
            MembershipTable(fail_after=0)


# -- routed data path --------------------------------------------------------


class TestRoutedRequests:
    def test_reply_matches_direct_library_call(self):
        field = _field(4096)
        with ServiceThread(shard_id="a") as sa, \
                ServiceThread(shard_id="b") as sb:
            shards = [f"127.0.0.1:{sa.port}", f"127.0.0.1:{sb.port}"]
            with ClusterThread(shards=shards) as cluster, \
                    ServiceClient(port=cluster.port) as client:
                buf = client.compress(field, "sz", mode="abs", value=0.1)
                local = get_compressor("sz").compress(
                    field, mode="abs", error_bound=0.1
                )
                assert buf.payload == local.payload
                assert buf.compression_ratio == local.compression_ratio
                recon = client.decompress(buf)
                assert np.array_equal(
                    recon, get_compressor("sz").decompress(local)
                )

    def test_same_key_lands_on_the_same_shard(self):
        data = _field(1024)
        with ServiceThread() as sa, ServiceThread() as sb:
            shards = [f"127.0.0.1:{sa.port}", f"127.0.0.1:{sb.port}"]
            with ClusterThread(shards=shards) as cluster, \
                    ServiceClient(port=cluster.port) as client:
                served_by = set()
                for _ in range(5):
                    reply, _ = client._call(
                        _compress_header(data), protocol.pack_array(data)
                    )
                    served_by.add(reply[protocol.SHARD_FIELD])
                assert len(served_by) == 1
                assert served_by == {_primary_of(data, shards)}

    def test_repeat_sweep_hits_the_warm_shard_cache(self, tmp_path):
        data = _field(2048)
        sweeps = [{"name": "sz", "mode": "abs",
                   "sweep": {"error_bound": [1e-3, 1e-2]}}]
        from repro.cache import ResultCache
        with ServiceThread(cache=ResultCache(tmp_path / "a")) as sa, \
                ServiceThread(cache=ResultCache(tmp_path / "b")) as sb:
            shards = [f"127.0.0.1:{sa.port}", f"127.0.0.1:{sb.port}"]
            with ClusterThread(shards=shards) as cluster, \
                    ServiceClient(port=cluster.port) as client:
                first = client.sweep(data, sweeps, field="rho")
                second = client.sweep(data, sweeps, field="rho")
        assert all(row["cache"] == "miss" for row in first)
        # Placement, not luck: the repeat went to the shard that just
        # filled its cache.
        assert all(row["cache"] == "hit" for row in second)

    def test_keyless_ops_work_through_the_router(self):
        with ServiceThread() as sa:
            shards = [f"127.0.0.1:{sa.port}"]
            with ClusterThread(shards=shards) as cluster, \
                    ServiceClient(port=cluster.port) as client:
                names = client.list_compressors()
                assert "sz" in names

    def test_cluster_op_against_plain_daemon_is_an_error(self):
        with ServiceThread() as svc, \
                ServiceClient(port=svc.port) as client:
            with pytest.raises(ServiceError, match="bad_op|unknown op"):
                client.cluster()


# -- the router's shard channel on arbitrary TCP segmentation ---------------


class TestShardChannelFraming:
    def test_a_reply_written_a_byte_at_a_time(self):
        def bytewise(conn, frames):
            for frame in frames:
                for i in range(len(frame)):
                    conn.sendall(frame[i:i + 1])
                    time.sleep(0.0005)

        first, second, accepted = _exchange(bytewise, batch=1)
        assert first == second == _replies(1)
        assert accepted == 1

    def test_three_replies_in_one_write_resolve_in_any_order(self):
        def batched(conn, frames):
            conn.sendall(b"".join(reversed(frames)))

        first, second, accepted = _exchange(batched, batch=3)
        assert first == second == _replies(3)
        assert accepted == 1

    def test_a_hangup_mid_frame_fails_every_pending_forward(self):
        def hang_up(conn, frames):
            conn.sendall(frames[0][:len(frames[0]) // 2])
            conn.shutdown(socket.SHUT_RDWR)

        first, second, accepted = _exchange(hang_up, batch=2)
        assert len(first) == 2
        assert all(isinstance(r, ProtocolError) for r in first), first
        assert "mid-frame" in str(first[0])
        assert second == _replies(2) and accepted == 2  # redialed

    def test_a_bad_magic_fails_every_pending_forward(self):
        def bad_magic(conn, frames):
            conn.sendall(b"XXXX" + frames[0][4:])

        first, second, accepted = _exchange(bad_magic, batch=2)
        assert len(first) == 2
        assert all(isinstance(r, ProtocolError) for r in first), first
        assert "bad magic" in str(first[0])
        assert second == _replies(2) and accepted == 2  # redialed


# -- failover and hedging ----------------------------------------------------


class TestFailoverAndHedging:
    def test_dead_primary_fails_over_without_an_error(self):
        dead = _dead_endpoint()
        with ServiceThread() as sa:
            live = f"127.0.0.1:{sa.port}"
            # fail_after is huge so the probe loop cannot rescue the
            # request by draining the dead shard first: the *forward*
            # must fail over on its own.
            with ClusterThread(shards=[dead, live],
                               fail_after=10_000) as cluster, \
                    ServiceClient(port=cluster.port) as client:
                data = _field_with_primary([dead, live], dead)
                buf = client.compress(data, "sz", mode="abs", value=1e-3)
                assert buf.compressed_nbytes > 0
                stats = client.stats()
                assert _counter(stats, "router.failovers") >= 1
                assert _counter(stats, "router.forward_errors") >= 1

    def test_slow_primary_is_hedged_and_the_hedge_wins(self):
        stub = _StubShard()
        try:
            with ServiceThread() as sa:
                live = f"127.0.0.1:{sa.port}"
                shards = [stub.endpoint, live]
                with ClusterThread(shards=shards, hedge_after_s=0.15,
                                   fail_after=10_000) as cluster, \
                        ServiceClient(port=cluster.port) as client:
                    data = _field_with_primary(shards, stub.endpoint)
                    t0 = time.monotonic()
                    reply, body = client._call(
                        _compress_header(data), protocol.pack_array(data)
                    )
                    elapsed = time.monotonic() - t0
                    assert reply["status"] == "ok" and len(body) > 0
                    # Served by the hedge target, long before the stub's
                    # stall would have expired.
                    assert reply[protocol.SHARD_FIELD] == live
                    assert elapsed < 10.0
                    stats = client.stats()
                    assert _counter(stats, "router.hedges") >= 1
                    assert _counter(stats, "router.hedge_wins") >= 1
        finally:
            stub.close()

    def test_shard_without_pipeline_is_a_failed_forward(self):
        # A shard that answers HELLO without the ``pipeline`` capability
        # (no daemon of this codebase) is not served on some second
        # path: the forward fails, fails over, and counts against the
        # shard's membership.
        stub = _StubShard(hello_caps=[])
        try:
            with ServiceThread() as sa:
                live = f"127.0.0.1:{sa.port}"
                shards = [stub.endpoint, live]
                with ClusterThread(shards=shards,
                                   fail_after=10_000) as cluster, \
                        ServiceClient(port=cluster.port) as client:
                    data = _field_with_primary(shards, stub.endpoint)
                    reply, body = client._call(
                        _compress_header(data), protocol.pack_array(data)
                    )
                    assert reply["status"] == "ok" and len(body) > 0
                    assert reply[protocol.SHARD_FIELD] == live
                    stats = client.stats()
                    assert _counter(stats, "router.failovers") >= 1
                    assert _counter(stats, "router.forward_errors") >= 1
                    view = {s["shard"]: s
                            for s in client.cluster()["shards"]}
                    assert view[stub.endpoint]["failures_total"] >= 1
                    assert "pipeline" in view[stub.endpoint]["last_error"]
                    assert not view[stub.endpoint].get("pipelined")
        finally:
            stub.close()

    def test_all_shards_down_is_a_routing_error(self):
        dead_a, dead_b = _dead_endpoint(), _dead_endpoint()
        with ClusterThread(shards=[dead_a, dead_b],
                           fail_after=10_000) as cluster, \
                ServiceClient(port=cluster.port) as client:
            with pytest.raises(ServiceError, match="failed|shard"):
                client.compress(_field(), "sz", mode="abs", value=1e-3)
            # Control plane still answers while the data plane is dark.
            assert client.health()["status"] == "ok"


class TestFailedStart:
    def test_occupied_port_leaves_no_spawned_shards_running(self):
        with socket.create_server(("127.0.0.1", 0)) as occupied:
            cluster = ClusterThread(
                spawn=2, port=occupied.getsockname()[1]
            )
            try:
                with pytest.raises(OSError):
                    cluster.start()
                procs = [h.proc for h in
                         cluster.router.shard_handles.values()]
                assert len(procs) == 2
                assert not any(p.alive for p in procs)
            finally:
                for handle in cluster.router.shard_handles.values():
                    handle.proc.kill()


# -- health-gated membership, end to end -------------------------------------


class TestDrainAndReadmit:
    def test_killed_shard_is_drained_then_readmitted(self):
        with ServiceThread() as s_keep:
            victim = ServiceThread().start()
            victim_port = victim.port
            keep_ep = f"127.0.0.1:{s_keep.port}"
            victim_ep = f"127.0.0.1:{victim_port}"
            with ClusterThread(shards=[keep_ep, victim_ep],
                               probe_interval_s=0.05, fail_after=2,
                               recover_after=1) as cluster, \
                    ServiceClient(port=cluster.port) as client:

                def serving():
                    return client.health()["serving"]

                _wait_until(lambda: len(serving()) == 2)
                victim.stop()  # graceful: probes see draining, then EOF
                _wait_until(lambda: serving() == [keep_ep])
                states = {s["shard"]: s["state"]
                          for s in client.cluster()["shards"]}
                assert states[victim_ep] == "down"
                # The survivor carries everything — including keys whose
                # primary was the drained shard.
                data = _field_with_primary([keep_ep, victim_ep], victim_ep)
                reply, _ = client._call(
                    _compress_header(data), protocol.pack_array(data)
                )
                assert reply["status"] == "ok"
                assert reply[protocol.SHARD_FIELD] == keep_ep

                # Recovery: a new daemon on the same port re-admits the
                # shard under its old identity, warm keys and all.
                with ServiceThread(port=victim_port):
                    _wait_until(
                        lambda: sorted(serving()) == sorted([keep_ep,
                                                             victim_ep])
                    )
                    reply, _ = client._call(
                        _compress_header(data), protocol.pack_array(data)
                    )
                    assert reply["status"] == "ok"
                    assert reply[protocol.SHARD_FIELD] == victim_ep


# -- fleet observability -----------------------------------------------------


class TestFleetObservability:
    def test_stats_and_metrics_aggregate_with_shard_labels(self):
        with ServiceThread(shard_id="a") as sa, \
                ServiceThread(shard_id="b") as sb:
            ep_a, ep_b = (f"127.0.0.1:{sa.port}", f"127.0.0.1:{sb.port}")
            with ClusterThread(shards=[ep_a, ep_b]) as cluster, \
                    ServiceClient(port=cluster.port) as client:
                # One field aimed at each shard: placement depends on the
                # ephemeral ports, so fixed seeds could all land on one
                # shard and leave the other with nothing to label.
                for target in (ep_a, ep_b, ep_a, ep_b):
                    data = _field_with_primary([ep_a, ep_b], target)
                    client.compress(data, "sz", mode="abs", value=1e-3)
                stats = client.stats()
                assert stats["role"] == "router"
                fleet = stats["fleet"]
                assert fleet["shards_serving"] == 2
                assert set(fleet["shards"]) == {ep_a, ep_b}
                per_shard = sum(
                    int(s.get("requests_total", 0))
                    for s in fleet["shards"].values()
                )
                assert fleet["requests_total"] == per_shard >= 4

                text = client.metrics_text()
                labels = set(re.findall(r'shard="([^"]+)"', text))
                assert {"router", ep_a, ep_b} <= labels
                type_lines = [l for l in text.splitlines()
                              if l.startswith("# TYPE ")]
                assert len(type_lines) == len(set(type_lines))

    def test_cluster_op_reports_topology_membership_and_shares(self):
        with ServiceThread() as sa, ServiceThread() as sb:
            eps = [f"127.0.0.1:{sa.port}", f"127.0.0.1:{sb.port}"]
            with ClusterThread(shards=eps) as cluster, \
                    ServiceClient(port=cluster.port) as client:
                view = client.cluster()
        assert view["role"] == "router"
        assert [s["shard"] for s in view["shards"]] == sorted(eps)
        assert all(s["state"] == "up" for s in view["shards"])
        assert view["membership"]["fail_after"] == 3
        shares = view["ring"]["shares"]
        assert set(shares) == set(eps)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(0.2 < share < 0.8 for share in shares.values())

    def test_routed_request_is_one_stitched_trace(self):
        with telemetry.enabled_telemetry("client") as tm:
            with ServiceThread() as sa:
                with ClusterThread(
                    shards=[f"127.0.0.1:{sa.port}"]
                ) as cluster, ServiceClient(port=cluster.port) as client:
                    client.compress(_field(1024), "sz", mode="abs",
                                    value=1e-3)
        spans = tm.tracer.finished_spans()
        root = next(s for s in spans if s.name == "client.compress")
        tree = [s for s in spans if s.trace_id == root.trace_id]
        names = {s.name for s in tree}
        # Client -> router -> shard, one trace id end to end.
        assert {"client.compress", "router.request", "router.forward",
                "service.request", "service.dispatch"} <= names
        # Connected: every non-root span's ctx parent is in the tree.
        ids = {s.ctx_id for s in tree}
        roots = [s for s in tree
                 if s.ctx_parent_id is None or s.ctx_parent_id not in ids]
        assert [s.name for s in roots] == ["client.compress"]
        forward = next(s for s in tree if s.name == "router.forward")
        request = next(s for s in tree if s.name == "service.request")
        assert request.ctx_parent_id == forward.ctx_id
