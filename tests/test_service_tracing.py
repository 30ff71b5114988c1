"""End-to-end distributed tracing, Prometheus exposition, and the
dashboard: one client call must yield one stitched span tree, METRICS
must render valid exposition text, and the MSG1 protocol must stay
byte-compatible when no trace context is present."""

import json
import logging
import re
import socket

import numpy as np
import pytest

from repro import telemetry
from repro.service import PooledClient, ServiceClient, ServiceThread, protocol
from repro.telemetry import context as trace_context
from repro.telemetry.exposition import (
    PROM_CONTENT_TYPE,
    parse_metric_key,
    render_prometheus,
)
from repro.telemetry.logs import JsonLogFormatter
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.top import render_frame


def _field(n=4096, seed=0):
    return np.random.default_rng(seed).normal(size=n).astype(np.float32)


# -- protocol compatibility --------------------------------------------------


class TestProtocolTraceField:
    def test_frame_round_trip_with_trace_field(self):
        header = {"op": "compress", protocol.TRACE_FIELD:
                  "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"}
        decoded, payload = protocol.decode_frame(
            protocol.encode_frame(header, b"xyz")
        )
        assert decoded == header
        assert payload == b"xyz"
        assert trace_context.extract(decoded) is not None

    def test_frame_without_trace_field_is_byte_identical_to_before(self):
        header = {"id": 1, "op": "stats"}
        frame = protocol.encode_frame(header)
        # The exact bytes an old client produced: nothing about tracing
        # may leak into an untraced frame.
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        assert frame == protocol.PREFIX.pack(protocol.MAGIC, len(raw), 0) + raw
        decoded, _ = protocol.decode_frame(frame)
        assert protocol.TRACE_FIELD not in decoded
        assert trace_context.extract(decoded) is None

    def test_untraced_client_header_carries_no_trace_field(self, fake_peer):
        captured = {}

        def handle(conn):
            header, _ = protocol.read_frame_sock(conn)
            captured.update(header)
            protocol.write_frame_sock(conn, {"status": "ok",
                                             "id": header["id"]})

        with fake_peer(handle) as port, ServiceClient(port=port) as client:
            client.stats()
        assert captured["op"] == "stats"
        assert protocol.TRACE_FIELD not in captured

    def test_old_style_request_against_new_server(self):
        """A raw socket speaking trace-less MSG1 (an old client) is served."""
        with ServiceThread(max_pending=8) as svc:
            with socket.create_connection(("127.0.0.1", svc.port), 5) as sock:
                sock.settimeout(30)
                data = _field(256)
                header = {"id": 1, "op": "compress", "compressor": "sz",
                          "mode": "abs", "value": 1e-3, "options": {},
                          **protocol.array_fields(data)}
                protocol.write_frame_sock(
                    sock, header, protocol.pack_array(data)
                )
                reply, body = protocol.read_frame_sock(sock)
        assert reply["status"] == "ok"
        assert protocol.TRACE_FIELD not in reply
        assert len(body) > 0


# -- the tentpole: one request, one stitched tree ----------------------------


class TestStitchedTraces:
    def test_sweep_produces_one_connected_cross_process_tree(self):
        with telemetry.enabled_telemetry("client") as tm:
            with ServiceThread(workers=2, max_pending=16) as svc:
                with ServiceClient(port=svc.port) as client:
                    rows = client.sweep(_field(), [{
                        "name": "sz", "mode": "abs",
                        "sweep": {"error_bound": [1e-3, 1e-2]},
                    }])
        assert len(rows) == 2
        spans = tm.tracer.finished_spans()
        root = next(s for s in spans if s.name == "client.sweep")
        tree = [s for s in spans if s.trace_id == root.trace_id]

        # Single trace id covers client, server, and worker spans.
        names = {s.name for s in tree}
        assert {"client.sweep", "service.request", "service.queue_wait",
                "service.dispatch", "cbench.run_one"} <= names
        assert any(n.startswith("sz.") for n in names), names

        # Exactly one root (the client call); every other span's ctx
        # parent is present in the tree — i.e. the tree is connected.
        ids = {s.ctx_id for s in tree}
        roots = [s for s in tree
                 if s.ctx_parent_id is None or s.ctx_parent_id not in ids]
        assert [s.name for s in roots] == ["client.sweep"]

        # Walking down from the root reaches every span.
        children = {}
        for s in tree:
            children.setdefault(s.ctx_parent_id, []).append(s)
        reached, frontier = set(), [root.ctx_id]
        while frontier:
            nxt = frontier.pop()
            for child in children.get(nxt, []):
                if child.ctx_id not in reached:
                    reached.add(child.ctx_id)
                    frontier.append(child.ctx_id)
        assert len(reached) == len(tree) - 1  # everything except the root

    def test_compress_decompress_each_get_their_own_trace(self):
        with telemetry.enabled_telemetry("client") as tm:
            with ServiceThread(max_pending=16) as svc:
                with ServiceClient(port=svc.port) as client:
                    buf = client.compress(_field(512), "sz",
                                          mode="abs", value=1e-3)
                    client.decompress(buf)
        spans = tm.tracer.finished_spans()
        t_compress = {s.trace_id for s in spans if s.name == "client.compress"}
        t_decompress = {s.trace_id for s in spans
                        if s.name == "client.decompress"}
        assert len(t_compress) == 1 and len(t_decompress) == 1
        assert t_compress != t_decompress
        for trace_id in (*t_compress, *t_decompress):
            names = {s.name for s in spans if s.trace_id == trace_id}
            assert "service.request" in names
            assert "service.dispatch" in names

    def test_session_step_stitches_queue_dispatch_and_codec_spans(self):
        snaps = [_field(4096, seed) for seed in range(2)]
        with telemetry.enabled_telemetry("client") as tm:
            with ServiceThread(max_pending=16) as svc:
                with ServiceClient(port=svc.port) as client:
                    with client.session_open("sz", value=1e-2) as session:
                        for snap in snaps:
                            session.step(snap)
        spans = tm.tracer.finished_spans()
        calls = [s for s in spans if s.name == "client.session_step"]
        assert len({c.trace_id for c in calls}) == 2
        for call in calls:
            tree = [s for s in spans if s.trace_id == call.trace_id]
            names = {s.name for s in tree}
            assert {"service.request", "service.queue_wait",
                    "service.dispatch", "sz.encode"} <= names, names
            dispatch = next(s for s in tree if s.name == "service.dispatch")
            assert dispatch.attrs["op"] == "session_step"
            assert dispatch.attrs["path"] == "pool"

    def test_async_call_under_an_ambient_trace_stitches_with_the_daemon(self):
        with telemetry.enabled_telemetry("client") as tm:
            with ServiceThread(max_pending=16) as svc:
                with PooledClient(port=svc.port, connections=1) as pool:
                    with trace_context.start_trace() as outer:
                        pool.compress_async(
                            _field(512), "sz", mode="abs", value=1e-3
                        ).result(timeout=60)
        tree = [s for s in tm.tracer.finished_spans()
                if s.trace_id == outer.trace_id]
        call = next(s for s in tree if s.name == "client.compress")
        assert call.ctx_parent_id == outer.span_id
        request = next(s for s in tree if s.name == "service.request")
        assert request.ctx_parent_id == call.ctx_id
        assert "service.dispatch" in {s.name for s in tree}

    def test_busy_retry_records_a_busy_wait_span(self, fake_peer):
        frames = []

        def handle(conn):
            for status in ("busy", "ok"):
                header, _ = protocol.read_frame_sock(conn)
                frames.append(header)
                reply = {"status": status, "id": header["id"]}
                if status == "busy":
                    reply.update(code="queue_full", retry_after_ms=5)
                protocol.write_frame_sock(conn, reply)

        with telemetry.enabled_telemetry("client") as tm:
            with fake_peer(handle) as port, \
                    ServiceClient(port=port, retry_base_s=0.001) as client:
                client.stats()
        spans = tm.tracer.finished_spans()
        call = next(s for s in spans if s.name == "client.stats")
        wait = next(s for s in spans if s.name == "client.busy_wait")
        assert wait.attrs["attempt"] == 1
        assert wait.attrs["code"] == "queue_full"
        assert wait.attrs["delay_ms"] >= 5.0 * 0.5  # the hint, jittered
        assert wait.trace_id == call.trace_id
        assert wait.ctx_parent_id == call.ctx_id
        # The re-send is the same call: both frames carry its context.
        assert [trace_context.extract(f).span_id for f in frames] == \
            [call.ctx_id] * 2

    def test_dispatch_span_is_tagged_with_request_id(self):
        with telemetry.enabled_telemetry("client") as tm:
            with ServiceThread(max_pending=16) as svc:
                with ServiceClient(port=svc.port) as client:
                    client.compress(_field(512), "sz", mode="abs", value=1e-3)
        dispatch = next(s for s in tm.tracer.finished_spans()
                        if s.name == "service.dispatch")
        assert dispatch.attrs["op"] == "compress"
        assert dispatch.attrs["compressor"] == "sz"
        assert isinstance(dispatch.attrs["request_id"], int)

    def test_trace_out_dumps_spans_on_drain(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        with ServiceThread(max_pending=8, trace_out=str(out)) as svc:
            with ServiceClient(port=svc.port) as client:
                client.compress(_field(512), "sz", mode="abs", value=1e-3)
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) > 0
        assert {"name", "start", "end", "duration"} <= set(lines[0])
        assert any(s["name"] == "service.request" for s in lines)


# -- metrics exposition ------------------------------------------------------


def _parse_exposition(text):
    """name -> [(labels_str, value)] for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (.+)$", line)
        assert match, f"unparseable exposition line: {line!r}"
        name, labels, value = match.groups()
        float(value.replace("+Inf", "inf"))  # every value must be numeric
        samples.setdefault(name, []).append((labels or "", value))
    return samples


class TestExposition:
    def test_parse_metric_key(self):
        assert parse_metric_key("service.bytes_in") == ("service_bytes_in", {})
        name, labels = parse_metric_key('service.latency_ms{op="compress"}')
        assert name == "service_latency_ms"
        assert labels == {"op": "compress"}
        name, labels = parse_metric_key('x{a="1",b="2"}')
        assert labels == {"a": "1", "b": "2"}

    def test_render_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.count("service.requests", 3)
        reg.count('service.requests.by_op{op="compress"}', 2)
        reg.set_gauge("service.queue_depth", 5)
        reg.observe("service.latency_ms", 3.0, bounds=(1, 5, 10))
        reg.observe("service.latency_ms", 7.0, bounds=(1, 5, 10))
        reg.observe("service.latency_ms", 99.0, bounds=(1, 5, 10))
        text = render_prometheus(reg)
        samples = _parse_exposition(text)
        assert samples["service_requests_total"] == [("", "3")]
        assert samples["service_queue_depth"] == [("", "5")]
        assert ('{op="compress"}', "2") in samples["service_requests_by_op_total"]
        # Histogram: buckets must be cumulative (monotone), +Inf == count.
        buckets = dict(samples["service_latency_ms_bucket"])
        values = [int(buckets[f'{{le="{b}"}}']) for b in ("1", "5", "10")]
        assert values == sorted(values) == [0, 1, 2]
        assert int(buckets['{le="+Inf"}']) == 3
        assert samples["service_latency_ms_count"] == [("", "3")]
        assert float(samples["service_latency_ms_sum"][0][1]) == pytest.approx(109.0)

    def test_histogram_buckets_monotone_from_live_daemon(self):
        with ServiceThread(max_pending=8) as svc:
            with ServiceClient(port=svc.port) as client:
                for seed in range(3):
                    client.compress(_field(512, seed), "sz",
                                    mode="abs", value=1e-3)
                text = client.metrics_text()
        samples = _parse_exposition(text)
        assert "service_requests_total" in samples
        assert "service_uptime_seconds" in samples
        for name, rows in samples.items():
            if not name.endswith("_bucket"):
                continue
            by_series = {}
            for labels, value in rows:
                key = re.sub(r'le="[^"]*",?', "", labels)
                by_series.setdefault(key, []).append(float(
                    value.replace("+Inf", "inf")))
            for series in by_series.values():
                assert series == sorted(series), f"{name} not cumulative"

    def test_metrics_op_reply_carries_content_type(self):
        with ServiceThread(max_pending=8) as svc:
            with ServiceClient(port=svc.port) as client:
                reply, body = client._call({"op": "metrics"})
        assert reply["content_type"] == PROM_CONTENT_TYPE
        assert b"# TYPE" in body


# -- stats fields, dashboard, logs -------------------------------------------


class TestStatsAndDashboard:
    def test_stats_reports_uptime_inflight_and_window_n(self):
        with ServiceThread(max_pending=8) as svc:
            with ServiceClient(port=svc.port) as client:
                client.compress(_field(512), "sz", mode="abs", value=1e-3)
                stats = client.stats()
        assert stats["uptime_s"] > 0
        assert stats["requests_inflight"] == 0  # nothing besides STATS itself
        assert stats["latency"]["window_n"] >= 1
        assert "window" not in stats["latency"]  # the dropped alias

    def test_inflight_gauge_counts_the_running_request(self, monkeypatch):
        from repro.compressors.sz import SZCompressor

        seen = []
        compress = SZCompressor.compress

        def recording(codec, *args, **kwargs):
            gauge = telemetry.get_telemetry().metrics.snapshot()
            seen.append(gauge["service.requests_inflight"]["value"])
            return compress(codec, *args, **kwargs)

        monkeypatch.setattr(SZCompressor, "compress", recording)
        with telemetry.enabled_telemetry("t") as tm:
            with ServiceThread(max_pending=8) as svc:
                with ServiceClient(port=svc.port) as client:
                    client.compress(_field(512), "sz", mode="abs", value=1e-3)
            # The daemon has drained: every done-callback has run.
            after = tm.metrics.snapshot()["service.requests_inflight"]
        # Set as a frame starts and as it finishes: the running request
        # counts while its codec runs, and the gauge reads 0 once done.
        assert seen == [1.0]
        assert after["value"] == 0.0

    def test_render_frame_from_live_stats(self):
        with ServiceThread(max_pending=8) as svc:
            with ServiceClient(port=svc.port) as client:
                client.compress(_field(512), "sz", mode="abs", value=1e-3)
                first = client.stats()
                client.compress(_field(512, 1), "sz", mode="abs", value=1e-3)
                second = client.stats()
        frame = render_frame(second, first, dt=0.5, endpoint="x:1")
        assert "repro service x:1" in frame
        assert "qps" in frame and "p99" in frame
        assert "service.request" in frame  # top-stages table is populated
        assert re.search(r"dispatches\s+loop\s+\d+\s+pool\s+\d+", frame)
        # Rates come from the snapshot delta: 2 requests in 0.5 s = 4 qps.
        assert re.search(r"qps\s+4\.0", frame)

    def test_render_frame_without_previous_snapshot(self):
        frame = render_frame({"uptime_s": 1.0, "requests_total": 0,
                              "latency": {}, "metrics": {}})
        assert "–" in frame  # rates unknown on the first poll

    def test_json_log_formatter_stamps_trace_and_request_ids(self):
        record = logging.LogRecord(
            "repro.service", logging.INFO, __file__, 1, "served %s", ("x",),
            None,
        )
        ctx = trace_context.TraceContext("ab" * 16, "cd" * 8)
        with trace_context.use(ctx), trace_context.use_request_id("17"):
            line = JsonLogFormatter().format(record)
        out = json.loads(line)
        assert out["message"] == "served x"
        assert out["trace_id"] == "ab" * 16
        assert out["span_id"] == "cd" * 8
        assert out["request_id"] == "17"
        plain = json.loads(JsonLogFormatter().format(record))
        assert "trace_id" not in plain and "request_id" not in plain
