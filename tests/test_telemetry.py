"""Telemetry subsystem: spans, metrics, export formats, instrumentation."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.compressors.sz import SZCompressor
from repro.compressors.zfp import ZFPCompressor
from repro.cosmo.nyx import make_nyx_dataset
from repro.foresight.cbench import CBench
from repro.foresight.config import CompressorSweep
from repro.gpu.runtime import simulate_compression
from repro.parallel.compression import compress_distributed, decompress_distributed
from repro.parallel.decomposition import CartesianDecomposition
from repro.telemetry.export import load_trace, spans_to_chrome, write_jsonl
from repro.telemetry.metrics import Histogram
from repro.telemetry.report import render_report, report_file, summarize
from repro.telemetry.spans import Tracer


@pytest.fixture()
def tm():
    """A live telemetry installed for the test, restored afterwards."""
    with telemetry.enabled_telemetry("test") as live:
        yield live


@pytest.fixture(scope="module")
def nyx_field():
    return make_nyx_dataset(grid_size=16, seed=7).fields["temperature"]


class TestSpans:
    def test_nesting_parent_child(self, tm):
        with tm.span("outer") as outer:
            with tm.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            assert tm.tracer.current_span() is outer
        assert tm.tracer.current_span() is None
        names = [s.name for s in tm.tracer.finished_spans()]
        assert names == ["inner", "outer"]  # children finish first

    def test_exception_marks_error_and_restores_parent(self, tm):
        with tm.span("outer"):
            with pytest.raises(ValueError, match="boom"):
                with tm.span("failing"):
                    raise ValueError("boom")
            # parent must be restored after the failing child
            assert tm.tracer.current_span().name == "outer"
        failing = next(s for s in tm.tracer.finished_spans() if s.name == "failing")
        assert failing.status == "error"
        assert "ValueError: boom" in failing.attrs["exception"]
        assert failing.end is not None

    def test_decorator(self, tm):
        @tm.trace("decorated", kind="unit-test")
        def work(x):
            return x + 1

        assert work(1) == 2
        (sp,) = tm.tracer.finished_spans()
        assert sp.name == "decorated"
        assert sp.attrs["kind"] == "unit-test"

    def test_add_span_synthetic(self, tm):
        sp = tm.tracer.add_span("synthetic", 1.0, 1.5, bytes=10)
        assert sp.duration == pytest.approx(0.5)
        assert sp in tm.tracer.finished_spans()

    def test_drain_and_high_water_mark(self, tm):
        with tm.span("first"):
            pass
        mark = tm.tracer.last_span_id()
        with tm.span("second"):
            pass
        assert [s.name for s in tm.tracer.drain(mark)] == ["second"]

    def test_null_telemetry_is_reusable_noop(self):
        null = telemetry.NullTelemetry()
        ctx1 = null.span("a")
        ctx2 = null.span("b", bytes=1)
        assert ctx1 is ctx2  # one shared context manager, no allocation
        with ctx1 as sp:
            sp.attrs["ignored"] = True  # span-ish surface works
        null.count("c", 5)
        null.observe("h", 1.0)
        assert null.metrics.snapshot() == {}


class TestMetrics:
    def test_counter_monotonic(self, tm):
        c = tm.metrics.counter("n")
        c.inc()
        c.inc(2)
        assert c.value == 3
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_histogram_bucket_edges(self):
        h = Histogram("h", bounds=(1.0, 2.0, 5.0))
        # upper edges are inclusive; above the last bound -> overflow
        for v in (0.5, 1.0, 1.5, 2.0, 5.0, 5.1):
            h.observe(v)
        assert h.bucket_counts() == [2, 2, 1, 1]
        assert h.count == 6
        assert h.sum == pytest.approx(15.1)

    def test_histogram_observe_many_matches_observe(self):
        values = [0.0, 1.0, 3.0, 4.0, 7.0, 16.0, 100.0]
        one = Histogram("a", bounds=(1.0, 4.0, 16.0))
        many = Histogram("b", bounds=(1.0, 4.0, 16.0))
        for v in values:
            one.observe(v)
        many.observe_many(np.array(values))
        assert one.bucket_counts() == many.bucket_counts()
        assert one.sum == many.sum

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_bound_instruments_follow_the_live_registry(self):
        # Bound once per key; a different registry, or a cleared one,
        # gets its own instruments, so no update lands in a stale one.
        from repro.telemetry import Bound, MetricsRegistry

        hits = Bound(lambda m, op: m.counter(f"hits.{op}"))
        first, second = MetricsRegistry(), MetricsRegistry()
        hits(first, "get").inc()
        assert hits(first, "get") is first.counter("hits.get")
        hits(second, "get").inc(2)
        assert first.counter("hits.get").value == 1
        assert second.counter("hits.get").value == 2
        first.clear()
        hits(first, "get").inc()
        assert first.snapshot()["hits.get"]["value"] == 1

    def test_registry_type_conflict(self, tm):
        tm.metrics.counter("x")
        with pytest.raises(TypeError):
            tm.metrics.gauge("x")

    def test_snapshot_round_trips_json(self, tm):
        tm.count("c", 2)
        tm.set_gauge("g", 1.5)
        tm.observe("h", 3.0, bounds=(1.0, 4.0))
        snap = json.loads(json.dumps(tm.metrics.snapshot()))
        assert snap["c"] == {"type": "counter", "value": 2}
        assert snap["g"]["value"] == 1.5
        assert snap["h"]["counts"] == [0, 1, 0]


class TestExport:
    def test_jsonl_round_trip(self, tm, tmp_path):
        with tm.span("stage", bytes=128):
            pass
        path = write_jsonl(tmp_path / "t.jsonl", tm.tracer.finished_spans())
        loaded = load_trace(path)
        assert len(loaded) == 1
        assert loaded[0]["name"] == "stage"
        assert loaded[0]["attrs"]["bytes"] == 128

    def test_chrome_trace_round_trips_through_json_loads(self, tm, tmp_path):
        with tm.span("outer"):
            with tm.span("inner", bytes=64):
                pass
        doc = spans_to_chrome(tm.tracer.finished_spans())
        parsed = json.loads(json.dumps(doc))
        events = parsed["traceEvents"]
        assert {e["name"] for e in events} == {"outer", "inner"}
        inner = next(e for e in events if e["name"] == "inner")
        assert inner["ph"] == "X"
        assert inner["args"]["bytes"] == 64
        assert inner["args"]["parent_id"] is not None
        # and the loader normalizes it back to span dicts
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        loaded = load_trace(path)
        assert {s["name"] for s in loaded} == {"outer", "inner"}

    def test_gpu_run_events_merge_into_chrome_trace(self, tm):
        run = simulate_compression(64**3, 4.0)
        doc = spans_to_chrome([], extra_events=run.trace_events())
        names = [e["name"] for e in doc["traceEvents"]]
        assert names == [
            "gpu.cuzfp.compress.init",
            "gpu.cuzfp.compress.kernel",
            "gpu.cuzfp.compress.memcpy",
            "gpu.cuzfp.compress.free",
        ]
        # simulated stages replayed into the live tracer share the schema
        spans = run.record()
        assert [s.name for s in spans] == names

    def test_report_renders_mb_per_s(self, tm, tmp_path):
        tm.tracer.add_span("stage.a", 0.0, 0.5, bytes=1_000_000)
        path = write_jsonl(tmp_path / "t.jsonl", tm.tracer.finished_spans())
        table = report_file(path)
        assert "stage.a" in table
        assert "2.00" in table  # 1 MB in 0.5 s = 2 MB/s

    def test_summarize_aggregates_errors_and_bytes(self):
        spans = [
            {"name": "s", "duration": 0.1, "attrs": {"bytes": 10}, "status": "ok"},
            {"name": "s", "duration": 0.3, "attrs": {"bytes": 30}, "status": "error"},
        ]
        (summary,) = summarize(spans)
        assert summary.count == 2
        assert summary.total_bytes == 40
        assert summary.errors == 1
        assert summary.total_seconds == pytest.approx(0.4)
        assert "errors" in render_report([summary])


class TestInstrumentation:
    def test_sz_pipeline_stage_spans(self, tm, nyx_field):
        """Every tier emits sz.encode / sz.decode around the kernel
        dispatch plus sz.huffman / sz.lossless; the staged tiers nest
        sz.prequant / sz.predict under them, the native tier is one fused
        pass with nothing to nest."""
        from repro import kernels

        sz = SZCompressor()
        with kernels.use("numpy"):
            sz.roundtrip(nyx_field, error_bound=1.0)
        spans = tm.tracer.finished_spans()
        names = {s.name for s in spans}
        assert {"sz.encode", "sz.decode", "sz.prequant", "sz.predict",
                "sz.huffman", "sz.lossless"} <= names
        parents = {s.span_id: s.name for s in spans}
        nested = {(s.name, parents[s.parent_id]) for s in spans
                  if s.name in ("sz.prequant", "sz.predict")}
        assert nested == {("sz.prequant", "sz.encode"),
                          ("sz.predict", "sz.encode"),
                          ("sz.predict", "sz.decode")}
        assert tm.metrics.counter("sz.bytes_in").value == nyx_field.nbytes

        if kernels.resolve_name("sz.encode", "native") != "native":
            pytest.skip("native tier unavailable here")
        tm.tracer.clear()
        with kernels.use("native"):
            sz.roundtrip(nyx_field, error_bound=1.0)
        fused = tm.tracer.finished_spans()
        assert sorted({s.name for s in fused}) == [
            "sz.decode", "sz.encode", "sz.huffman", "sz.lossless"]
        assert {s.attrs["backend"] for s in fused
                if s.name in ("sz.encode", "sz.decode")} == {"native"}

    def test_zfp_pipeline_stage_spans(self, tm, nyx_field):
        """Every tier emits the zfp.encode / zfp.decode dispatch spans; the
        staged tier nests its three stage spans under them, the native
        tier is one fused pass with nothing to nest."""
        from repro import kernels

        stages = {"zfp.transform", "zfp.reorder", "zfp.bitplane"}
        with kernels.use("numpy"):
            ZFPCompressor().roundtrip(nyx_field, rate=4.0)
        spans = tm.tracer.finished_spans()
        names = {s.name for s in spans}
        assert stages | {"zfp.encode", "zfp.decode"} <= names
        parents = {s.span_id: s.name for s in spans}
        assert {parents[s.parent_id] for s in spans if s.name in stages} == {
            "zfp.encode", "zfp.decode"
        }
        assert tm.metrics.histogram("zfp.block_used_bits").count > 0
        assert all("batched" not in s.attrs for s in spans)

        if kernels.resolve_name("zfp.encode", "native") != "native":
            pytest.skip("native tier unavailable here")
        tm.tracer.clear()
        with kernels.use("native"):
            ZFPCompressor().roundtrip(nyx_field, rate=4.0)
        fused = tm.tracer.finished_spans()
        assert sorted(s.name for s in fused) == ["zfp.decode", "zfp.encode"]
        assert {s.attrs["backend"] for s in fused} == {"native"}

    def test_cbench_attaches_span_tree_to_meta(self, tm, nyx_field):
        bench = CBench({"t": nyx_field}, keep_reconstructions=False)
        sweep = CompressorSweep(name="sz", mode="abs", sweep={"error_bound": [1.0]})
        rec = bench.run_one(sweep, "t", 1.0)
        spans = rec.meta["telemetry"]["spans"]
        names = {s["name"] for s in spans}
        assert "cbench.run_one" in names
        assert {"sz.encode", "sz.decode", "sz.huffman", "sz.lossless"} <= names
        # the subtree is rooted at this cell's run_one span
        root = next(s for s in spans if s["name"] == "cbench.run_one")
        children = {s["name"] for s in spans if s["parent_id"] == root["span_id"]}
        assert {"cbench.compress", "cbench.decompress", "cbench.metrics"} <= children

    def test_cbench_record_unchanged_with_null_telemetry(self, nyx_field):
        """NullTelemetry (the default) must leave rows byte-identical."""
        assert not telemetry.get_telemetry().enabled
        bench = CBench({"t": nyx_field}, keep_reconstructions=False)
        sweep = CompressorSweep(name="sz", mode="abs", sweep={"error_bound": [1.0]})
        rec = bench.run_one(sweep, "t", 1.0)
        assert "telemetry" not in rec.meta
        assert set(rec.meta) == {
            "predictor_regression_fraction", "outlier_count",
            "huffman_bits_per_symbol", "kernels",
        }
        # deterministic row payload: two runs serialize byte-identically
        # (timings excluded — they are genuine measurements)
        rec2 = bench.run_one(sweep, "t", 1.0)
        drop = ("compress_seconds", "decompress_seconds")
        row1 = {k: v for k, v in rec.to_row().items() if k not in drop}
        row2 = {k: v for k, v in rec2.to_row().items() if k not in drop}
        assert json.dumps(row1, sort_keys=True).encode() == \
            json.dumps(row2, sort_keys=True).encode()

    def test_concurrent_rank_spans_do_not_interleave(self, tm):
        """Threaded per-rank compression keeps each thread's tree intact."""
        rng = np.random.default_rng(3)
        n = 4096
        positions = rng.uniform(0, 64.0, size=(n, 3))
        values = rng.normal(size=n).astype(np.float32)
        decomp = CartesianDecomposition(64.0, (2, 2, 1))
        sz = SZCompressor()
        result = compress_distributed(
            sz, values, positions, decomp, max_workers=4, error_bound=0.01
        )
        rank_spans = [
            s for s in tm.tracer.finished_spans() if s.name == "parallel.rank_compress"
        ]
        assert len(rank_spans) == len(result.buffers) == 4
        # every rank span is a tree root and its codec children live on the
        # same thread — a cross-thread parent means corrupt interleaving
        by_id = {s.span_id: s for s in tm.tracer.finished_spans()}
        for s in tm.tracer.finished_spans():
            if s.parent_id is not None:
                assert by_id[s.parent_id].thread_id == s.thread_id
        for rs in rank_spans:
            assert rs.parent_id is None
        out = decompress_distributed(sz, result)
        assert np.abs(out - values).max() <= 0.01 + 1e-7

    def test_tracer_thread_safety_raw(self):
        """Hammer one tracer from many threads; all spans land uncorrupted."""
        tracer = Tracer()
        errors: list[Exception] = []

        def worker(i: int) -> None:
            try:
                for j in range(50):
                    with tracer.span(f"w{i}", j=j):
                        with tracer.span(f"w{i}.inner"):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        spans = tracer.finished_spans()
        assert len(spans) == 8 * 50 * 2
        assert len({s.span_id for s in spans}) == len(spans)


class TestReportCLI:
    def test_report_command(self, tm, nyx_field, tmp_path, capsys):
        from repro.telemetry.__main__ import main as telemetry_main

        SZCompressor().compress(nyx_field, error_bound=1.0)
        trace = write_jsonl(tmp_path / "t.jsonl", tm.tracer.finished_spans())
        assert telemetry_main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        for stage in ("sz.encode", "sz.huffman", "sz.lossless"):
            assert stage in out
        assert "MB/s" in out

    def test_convert_command(self, tm, tmp_path, capsys):
        from repro.telemetry.__main__ import main as telemetry_main

        with tm.span("a"):
            pass
        trace = write_jsonl(tmp_path / "t.jsonl", tm.tracer.finished_spans())
        out_path = tmp_path / "t.json"
        assert telemetry_main(["convert", str(trace), "-o", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"][0]["name"] == "a"

    def test_report_missing_file(self, capsys):
        from repro.telemetry.__main__ import main as telemetry_main

        assert telemetry_main(["report", "/nonexistent/trace.jsonl"]) == 2
        assert "error" in capsys.readouterr().err
