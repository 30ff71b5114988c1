"""Trace-context propagation, W3C serialization, and span ctx identity."""

import threading

import pytest

from repro import telemetry
from repro.telemetry import context as trace_context
from repro.telemetry.context import TraceContext


class TestTraceContext:
    def test_new_ids_are_hex_of_spec_length(self):
        assert len(trace_context.new_trace_id()) == 32
        assert len(trace_context.new_span_id()) == 16
        int(trace_context.new_trace_id(), 16)  # must parse as hex

    def test_traceparent_round_trip(self):
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        back = TraceContext.from_traceparent(ctx.to_traceparent())
        assert back is not None
        assert back.trace_id == ctx.trace_id
        assert back.span_id == ctx.span_id

    @pytest.mark.parametrize("bad", [
        None,
        42,
        "",
        "not-a-traceparent",
        "00-zz" + "0" * 30 + "-" + "1" * 16 + "-01",  # non-hex
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",    # all-zero trace id
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",    # all-zero span id
        "00-" + "1" * 31 + "-" + "1" * 16 + "-01",    # short trace id
    ])
    def test_malformed_traceparent_is_none_not_an_error(self, bad):
        assert TraceContext.from_traceparent(bad) is None

    def test_child_keeps_trace_forks_span(self):
        parent = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        assert child.span_id != parent.span_id

    def test_use_activates_and_restores(self):
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        assert trace_context.current() is None
        with trace_context.use(ctx):
            assert trace_context.current() is ctx
        assert trace_context.current() is None

    def test_use_none_is_a_passthrough(self):
        with trace_context.use(None) as active:
            assert active is None

    def test_start_trace_reuses_active_context(self):
        with trace_context.start_trace() as outer:
            with trace_context.start_trace() as inner:
                assert inner is outer

    def test_inject_no_context_returns_header_uncopied(self):
        header = {"op": "compress"}
        assert trace_context.inject(header) is header

    def test_inject_extract_round_trip(self):
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        with trace_context.use(ctx):
            header = trace_context.inject({"op": "compress"})
        assert trace_context.TRACE_FIELD in header
        back = trace_context.extract(header)
        assert back.trace_id == ctx.trace_id
        assert back.span_id == ctx.span_id

    def test_context_is_thread_local(self):
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        seen = []
        with trace_context.use(ctx):
            t = threading.Thread(target=lambda: seen.append(trace_context.current()))
            t.start()
            t.join()
        assert seen == [None]

    def test_request_id_scoping(self):
        assert trace_context.current_request_id() is None
        with trace_context.use_request_id("17"):
            assert trace_context.current_request_id() == "17"
        assert trace_context.current_request_id() is None


class TestSpanContextIntegration:
    def test_spans_chain_under_active_context(self):
        with telemetry.enabled_telemetry() as tm:
            with trace_context.start_trace() as root:
                with tm.span("outer"):
                    with tm.span("inner"):
                        pass
        outer = next(s for s in tm.tracer.finished_spans() if s.name == "outer")
        inner = next(s for s in tm.tracer.finished_spans() if s.name == "inner")
        assert outer.trace_id == inner.trace_id == root.trace_id
        assert outer.ctx_parent_id == root.span_id
        assert inner.ctx_parent_id == outer.ctx_id

    def test_spans_without_context_have_no_ctx_ids(self):
        with telemetry.enabled_telemetry() as tm:
            with tm.span("plain"):
                pass
        (sp,) = tm.tracer.finished_spans()
        assert sp.trace_id is None
        assert sp.ctx_id is None
        assert "trace_id" not in sp.to_dict()

    def test_ingest_preserves_ctx_identity_verbatim(self):
        with telemetry.enabled_telemetry("worker") as worker_tm:
            ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
            with trace_context.use(ctx):
                with worker_tm.span("remote.work"):
                    pass
            shipped = [s.to_dict() for s in worker_tm.tracer.finished_spans()]
        with telemetry.enabled_telemetry("parent") as parent_tm:
            adopted = parent_tm.tracer.ingest(shipped)
        assert adopted[0].trace_id == "ab" * 16
        assert adopted[0].ctx_parent_id == "cd" * 8

    def test_add_span_with_explicit_ctx_and_root(self):
        with telemetry.enabled_telemetry() as tm:
            identity = TraceContext("ab" * 16, "cd" * 8, parent_id="ef" * 8)
            with tm.span("unrelated"):
                sp = tm.tracer.add_span(
                    "synthetic", start=0.0, end=1.0, ctx=identity, root=True
                )
        assert sp.parent_id is None  # root=True skipped the open span
        assert sp.ctx_id == "cd" * 8
        assert sp.ctx_parent_id == "ef" * 8

    def test_max_finished_caps_retention_but_not_total(self):
        tracer = telemetry.Tracer("capped", max_finished=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished_spans()) == 4
        assert tracer.finished_total() == 10
        assert [s.name for s in tracer.finished_spans()] == [
            "s6", "s7", "s8", "s9",
        ]

    def test_spans_since_walks_the_ring_by_the_running_total(self):
        tracer = telemetry.Tracer("capped", max_finished=4)

        def finish(n):
            for _ in range(n):
                tracer.add_span("s", start=0.0, end=1.0, root=True)

        finish(10)
        new, mark = tracer.spans_since(0)
        assert (len(new), mark) == (4, 10)  # 6 fell out before being asked for
        assert [s.span_id for s in tracer.spans_since(8)[0]] == [9, 10]
        assert tracer.spans_since(mark) == ([], 10)
        finish(2)
        new, mark = tracer.spans_since(mark)
        assert ([s.span_id for s in new], mark) == ([11, 12], 12)
        finish(7)  # 3 of these are gone again: skipped, nothing repeated
        new, mark = tracer.spans_since(mark)
        assert ([s.span_id for s in new], mark) == ([16, 17, 18, 19], 19)

    def test_finishing_a_span_at_the_cap_costs_what_it_costs_below_it(self):
        import time

        def per_span(tracer, n=20_000):
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(n):
                    tracer.add_span("s", start=0.0, end=1.0, root=True)
                best = min(best, time.perf_counter() - t0)
            return best / n

        full = telemetry.Tracer("full", max_finished=1 << 16)
        for _ in range(1 << 16):
            full.add_span("s", start=0.0, end=1.0, root=True)
        # A list trimmed from the front moved 65,536 pointers per span
        # here (4x); the ring drops the oldest in O(1).
        assert per_span(full) < 2 * per_span(telemetry.Tracer("free"))
