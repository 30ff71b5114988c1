"""Stateful SESSION ops: daemon, cache identity, cluster stickiness."""

import time

import numpy as np
import pytest

from repro.compressors import TemporalCompressor
from repro.cosmo.timeseries import make_nyx_series
from repro.errors import ServiceError
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.cluster import ClusterThread, routing_key
from repro.service.server import ServiceThread
from repro.telemetry.top import render_frame

BOUND = 1e-2


def _snaps(n=6, grid=12, seed=3):
    series = make_nyx_series(grid_size=grid, n_snapshots=n, seed=seed)
    return [s.fields["baryon_density"] for s in series.snapshots]


def _decode(streams, keyframe_every=4):
    codec = TemporalCompressor(inner="sz", keyframe_every=keyframe_every)
    return codec.decode_series(streams)


def _wait_until(predicate, timeout_s=15.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestSessionLifecycle:
    def test_open_step_close_bytes_identical_to_library(self):
        snaps = _snaps()
        library = TemporalCompressor(inner="sz", keyframe_every=4)
        with ServiceThread() as service, \
                ServiceClient(port=service.port) as client:
            with client.session_open(
                "sz", mode="abs", value=BOUND, keyframe_every=4
            ) as session:
                streams = []
                for i, snap in enumerate(snaps):
                    reply, stream = session.step(snap)
                    assert reply["step"] == i
                    assert reply["keyframe"] == (i % 4 == 0)
                    expected = library.compress(
                        snap, mode="abs", error_bound=BOUND
                    )
                    assert stream == expected.payload
                    # The reply echoes the post-step reference digest.
                    assert reply["ref"] == expected.meta["ref_after"]
                    streams.append(stream)
            closing = session.close()  # idempotent client-side
            assert closing["status"] == "ok"
            for snap, out in zip(snaps, _decode(streams)):
                assert np.max(np.abs(
                    out.astype(np.float64) - snap.astype(np.float64)
                )) <= BOUND * (1 + 1e-4)

    def test_close_reports_accounting(self):
        snaps = _snaps(3)
        with ServiceThread() as service, \
                ServiceClient(port=service.port) as client:
            session = client.session_open("sz", mode="abs", value=BOUND)
            for snap in snaps:
                session.step(snap)
            reply = client.session_close(session.session_id)
            assert reply["steps"] == 3
            assert reply["bytes_in"] == sum(s.nbytes for s in snaps)
            assert reply["bytes_out"] > 0

    def test_step_after_close_is_no_session(self):
        with ServiceThread() as service, \
                ServiceClient(port=service.port) as client:
            session = client.session_open("sz", mode="abs", value=BOUND)
            session.close()
            with pytest.raises(ServiceError) as err:
                client.session_step(session.session_id, _snaps(2)[0])
            assert getattr(err.value, "code", None) == "no_session"

    def test_unknown_session_is_no_session(self):
        with ServiceThread() as service, \
                ServiceClient(port=service.port) as client:
            with pytest.raises(ServiceError) as err:
                client.session_step("not-a-session", _snaps(2)[0])
            assert getattr(err.value, "code", None) == "no_session"

    def test_duplicate_session_id_rejected(self):
        with ServiceThread() as service, \
                ServiceClient(port=service.port) as client:
            client.session_open("sz", mode="abs", value=BOUND,
                                session_id="dup")
            with pytest.raises(ServiceError):
                client.session_open("sz", mode="abs", value=BOUND,
                                    session_id="dup")

    def test_session_table_capacity_bounded(self):
        with ServiceThread(max_sessions=2) as service, \
                ServiceClient(port=service.port) as client:
            client.session_open("sz", mode="abs", value=BOUND)
            client.session_open("sz", mode="abs", value=BOUND)
            with pytest.raises(ServiceError):
                client.session_open("sz", mode="abs", value=BOUND)

    def test_pw_rel_session_refused(self):
        with ServiceThread() as service, \
                ServiceClient(port=service.port) as client:
            with pytest.raises(ServiceError) as err:
                client.session_open("sz", mode="pw_rel", value=0.01)
            assert getattr(err.value, "code", None) == "UnsupportedModeError"

    def test_desync_fails_fast(self):
        snaps = _snaps(3)
        with ServiceThread() as service, \
                ServiceClient(port=service.port) as client:
            session = client.session_open("sz", mode="abs", value=BOUND)
            session.step(snaps[0])
            with pytest.raises(ServiceError) as err:
                client.session_step(
                    session.session_id, snaps[1],
                    expect_ref="0" * 32,
                )
            assert getattr(err.value, "code", None) == "session_desync"
            # The failed step did not advance the stream: the wrapper's
            # tracked digest still matches and the session continues.
            reply, _ = session.step(snaps[1])
            assert reply["step"] == 1

    def test_idle_sessions_evicted(self):
        with ServiceThread(session_idle_s=0.05) as service, \
                ServiceClient(port=service.port) as client:
            session = client.session_open("sz", mode="abs", value=BOUND)
            time.sleep(0.3)
            with pytest.raises(ServiceError) as err:
                client.session_step(session.session_id, _snaps(2)[0])
            assert getattr(err.value, "code", None) == "no_session"
            stats = client.stats()
            assert stats["sessions"]["evictions"] >= 1


class TestObservability:
    def test_stats_and_top_show_session_pressure(self):
        snaps = _snaps(3)
        with ServiceThread() as service, \
                ServiceClient(port=service.port) as client:
            session = client.session_open(
                "sz", mode="abs", value=BOUND, keyframe_every=4
            )
            for snap in snaps:
                session.step(snap)
            stats = client.stats()
            body = stats["sessions"]
            assert body["open"] == 1
            assert body["max"] == 64
            row = body["sessions"][0]
            assert row["id"] == session.session_id
            assert row["steps"] == 3
            assert row["bytes_in"] == sum(s.nbytes for s in snaps)
            assert row["ref"] == session.ref
            metrics = stats["metrics"]
            assert metrics["service.sessions_open"]["value"] == 1.0
            assert metrics["service.session_steps"]["value"] == 3.0
            assert metrics["service.session_bytes_in"]["value"] == float(
                sum(s.nbytes for s in snaps)
            )
            frame = render_frame(stats)
            assert "sessions    1 /  64 open" in frame
            session.close()
            assert client.stats()["sessions"]["open"] == 0


class TestCacheIdentity:
    """Satellite: stateful codecs must fold reference state into keys."""

    def test_interleaved_sessions_never_collide_on_cached_bytes(
        self, tmp_path
    ):
        snaps = _snaps(4, seed=3)
        other = _snaps(4, seed=17)
        with ServiceThread(cache=str(tmp_path)) as service, \
                ServiceClient(port=service.port) as client:
            a = client.session_open("sz", mode="abs", value=BOUND,
                                    keyframe_every=4)
            b = client.session_open("sz", mode="abs", value=BOUND,
                                    keyframe_every=4)
            # Interleave: the sessions diverge at step 0 (different
            # keyframes), then both step the *same* snapshot at the same
            # bound — identical (compressor, options, mode, value, data)
            # but different reference state.  A reference-blind cache
            # key would hand session B session A's delta bytes.
            a_streams = [a.step(snaps[0])[1], a.step(snaps[1])[1]]
            b_streams = [b.step(other[0])[1], b.step(snaps[1])[1]]
            assert a_streams[1] != b_streams[1]
            for snap, out in zip(
                [snaps[0], snaps[1]], _decode(a_streams)
            ):
                assert np.max(np.abs(
                    out.astype(np.float64) - snap.astype(np.float64)
                )) <= BOUND * (1 + 1e-4)
            for snap, out in zip(
                [other[0], snaps[1]], _decode(b_streams)
            ):
                assert np.max(np.abs(
                    out.astype(np.float64) - snap.astype(np.float64)
                )) <= BOUND * (1 + 1e-4)
            a.close()
            b.close()

    def test_identical_histories_hit_warm(self, tmp_path):
        snaps = _snaps(3)
        with ServiceThread(cache=str(tmp_path)) as service, \
                ServiceClient(port=service.port) as client:
            first = client.session_open("sz", mode="abs", value=BOUND,
                                        keyframe_every=4)
            cold = [first.step(s)[1] for s in snaps]
            first.close()
            again = client.session_open("sz", mode="abs", value=BOUND,
                                        keyframe_every=4)
            warm = []
            for snap in snaps:
                reply, stream = again.step(snap)
                assert reply["cache"] == "hit"
                warm.append(stream)
            again.close()
            assert warm == cold

    def test_make_key_reference_changes_key(self):
        from repro.cache.store import make_key

        base = make_key("temporal:sz", {}, "abs", "error_bound", 1e-2,
                        "d" * 64)
        with_ref = make_key("temporal:sz", {}, "abs", "error_bound", 1e-2,
                            "d" * 64, reference="1:abc:8")
        other_ref = make_key("temporal:sz", {}, "abs", "error_bound", 1e-2,
                             "d" * 64, reference="1:def:8")
        assert len({base, with_ref, other_ref}) == 3
        # reference=None keeps every pre-existing (stateless) key stable.
        assert base == make_key("temporal:sz", {}, "abs", "error_bound",
                                1e-2, "d" * 64, reference=None)


class TestRoutingKey:
    def test_session_ops_hash_only_the_session_id(self):
        a = routing_key(
            {"op": "session_step", protocol.SESSION_FIELD: "s1"},
            b"payload-one",
        )
        b = routing_key(
            {"op": "session_step", protocol.SESSION_FIELD: "s1",
             "expect_ref": "something"},
            b"payload-two",
        )
        assert a is not None and a == b
        assert routing_key(
            {"op": "session_open", protocol.SESSION_FIELD: "s1"}, b""
        ) == a
        assert routing_key(
            {"op": "session_step", protocol.SESSION_FIELD: "s2"}, b""
        ) != a
        assert routing_key({"op": "session_step"}, b"") is None


class TestClusterSessions:
    def test_session_is_shard_sticky_across_steps(self):
        snaps = _snaps(6)
        sa, sb = ServiceThread().start(), ServiceThread().start()
        try:
            shards = [f"127.0.0.1:{sa.port}", f"127.0.0.1:{sb.port}"]
            with ClusterThread(shards=shards) as cluster, \
                    ServiceClient(port=cluster.port) as client:
                session = client.session_open(
                    "sz", mode="abs", value=BOUND, keyframe_every=4
                )
                served_by = set()
                streams = []
                for snap in snaps:
                    reply, stream = session.step(snap)
                    served_by.add(reply[protocol.SHARD_FIELD])
                    streams.append(stream)
                assert len(served_by) == 1
                assert served_by <= set(shards)
                for snap, out in zip(snaps, _decode(streams)):
                    assert np.max(np.abs(
                        out.astype(np.float64) - snap.astype(np.float64)
                    )) <= BOUND * (1 + 1e-4)
                session.close()
        finally:
            for t in (sa, sb):
                try:
                    t.stop()
                except ServiceError:
                    pass

    def test_killed_shard_surfaces_clean_session_lost(self):
        snaps = _snaps(4)
        sa, sb = ServiceThread().start(), ServiceThread().start()
        stopped = []
        try:
            shards = [f"127.0.0.1:{sa.port}", f"127.0.0.1:{sb.port}"]
            with ClusterThread(
                shards=shards, probe_interval_s=0.05,
                fail_after=2, recover_after=1,
            ) as cluster, ServiceClient(port=cluster.port) as client:
                session = client.session_open(
                    "sz", mode="abs", value=BOUND
                )
                reply, _ = session.step(snaps[0])
                owner = reply[protocol.SHARD_FIELD]
                victim = sa if owner == shards[0] else sb
                victim.stop()
                stopped.append(victim)
                # Wait until the router's membership has noticed.
                def drained():
                    health = client.health()
                    return owner not in health.get("serving", [owner])
                _wait_until(drained)
                # The daemon-side state is gone: the client gets a clean
                # machine-readable error — session_lost from the router
                # (owner still ringed but unreachable) or no_session
                # from the shard the ring moved the id to.  Never bytes.
                with pytest.raises(ServiceError) as err:
                    client.session_step(session.session_id, snaps[1])
                assert getattr(err.value, "code", None) in (
                    "session_lost", "no_session"
                )
        finally:
            for t in (sa, sb):
                if t not in stopped:
                    try:
                        t.stop()
                    except ServiceError:
                        pass
