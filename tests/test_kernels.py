"""The kernel-backend registry: selection, fallback, and propagation.

Covers the dispatch contract of :mod:`repro.kernels` — environment and
override precedence, capability probing, call-time trip-and-degrade —
plus the three places a backend selection must provably travel:
``process_map`` worker processes, the streaming CBench engine, and a
running service daemon (asserted via STATS / METRICS).
"""

import numpy as np
import pytest

from repro import kernels
from repro.errors import ConfigError, DataError, KernelUnavailableError
from repro.kernels.registry import Backend, KernelRegistry
from repro.parallel.executor import _apply_chunk, process_map


# -- fault-injection fixtures (module-level: importable by impl spec) -------

CALLS = {"boom": 0, "ref": 0}


def _ref_impl(x):
    CALLS["ref"] += 1
    return x * 2


def _boom_impl(x):
    CALLS["boom"] += 1
    raise RuntimeError("native kernel exploded")


def _bad_data_impl(x):
    raise DataError("input rejected")


def _probe_fail():
    raise KernelUnavailableError("no compiler on this host")


def _worker_backend(task):
    """process_map task body: report the backend the worker resolved."""
    return kernels.requested_backend()


def _fresh(native_impl, probe=None):
    reg = KernelRegistry()
    reg.register(Backend(name="scalar", impls={"demo.k": "test_kernels:_ref_impl"}))
    reg.register(Backend(
        name="native", impls={"demo.k": f"test_kernels:{native_impl}"}, probe=probe,
    ))
    return reg


class TestSelection:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
        assert kernels.requested_backend() == "auto"

    @pytest.mark.parametrize("value", ["scalar", "numpy", "native", "auto"])
    def test_env_values(self, monkeypatch, value):
        monkeypatch.setenv(kernels.BACKEND_ENV, value)
        assert kernels.requested_backend() == value

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv(kernels.BACKEND_ENV, "cuda")
        with pytest.raises(ConfigError, match="REPRO_BACKEND"):
            kernels.requested_backend()

    def test_use_restores_override(self, monkeypatch):
        monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
        assert kernels.current_override() is None
        with kernels.use("scalar"):
            assert kernels.requested_backend() == "scalar"
            with kernels.use("numpy"):
                assert kernels.requested_backend() == "numpy"
            assert kernels.requested_backend() == "scalar"
        assert kernels.current_override() is None

    def test_use_none_is_noop(self):
        with kernels.use(None):
            assert kernels.current_override() is None

    def test_set_backend_validates(self):
        with pytest.raises(ConfigError):
            kernels.set_backend("gpu")

    def test_explicit_argument_beats_override(self):
        with kernels.use("native"):
            assert kernels.resolve_name("sz.lorenzo", "scalar") == "scalar"

    def test_active_covers_every_kernel(self):
        active = kernels.active("scalar")
        assert set(active) >= {
            "sz.lorenzo", "sz.lorenzo_inverse", "pack.varlen",
            "huffman.package_merge", "huffman.canonical",
            "huffman.encode", "huffman.decode",
            "zfp.encode", "zfp.decode",
        }
        assert len(active) == 9 and set(active.values()) == {"scalar"}

    def test_numpy_tier_resolves_everywhere(self):
        assert set(kernels.active("numpy").values()) == {"numpy"}


class TestFallback:
    def test_call_time_failure_degrades_and_trips(self):
        reg = _fresh("_boom_impl")
        CALLS["boom"] = CALLS["ref"] = 0
        assert reg.call("demo.k", 21, backend="auto") == 42
        assert CALLS["boom"] == 1 and CALLS["ref"] == 1
        assert reg.last_used()["demo.k"] == "scalar"
        assert ("native", "demo.k") in reg.tripped()
        # The tripped pair is skipped on the next call: no second boom.
        assert reg.call("demo.k", 1, backend="auto") == 2
        assert CALLS["boom"] == 1

    def test_probe_time_failure_skips_tier(self):
        reg = _fresh("_ref_impl", probe=_probe_fail)
        CALLS["ref"] = 0
        name, _ = reg.resolve("demo.k", "auto")
        assert name == "scalar"
        assert "no compiler" in reg.backends()["native"].unavailable_reason()
        assert reg.tripped() == {}  # probe failures are not call trips

    def test_explicit_tier_still_degrades(self):
        # A daemon pinned to `native` on a host without it keeps serving.
        reg = _fresh("_ref_impl", probe=_probe_fail)
        assert reg.call("demo.k", 3, backend="native") == 6
        assert reg.last_used()["demo.k"] == "scalar"

    def test_repro_errors_are_results_not_failures(self):
        reg = _fresh("_bad_data_impl")
        with pytest.raises(DataError, match="input rejected"):
            reg.call("demo.k", 1, backend="auto")
        assert reg.tripped() == {}  # data errors must not degrade the tier
        assert reg.last_used()["demo.k"] == "native"

    def test_scalar_failure_surfaces(self):
        reg = KernelRegistry()
        reg.register(Backend(
            name="scalar", impls={"demo.k": "test_kernels:_boom_impl"}
        ))
        with pytest.raises(RuntimeError, match="exploded"):
            reg.call("demo.k", 1, backend="scalar")

    def test_unknown_kernel(self):
        reg = _fresh("_ref_impl")
        with pytest.raises(KernelUnavailableError, match="no backend provides"):
            reg.resolve("demo.missing")

    def test_real_registry_never_fails_resolution(self):
        # scalar provides every kernel, so auto resolution always lands.
        for kernel in kernels.active():
            name, fn = kernels.REGISTRY.resolve(kernel, "auto")
            assert callable(fn) and name in kernels.TIER_ORDER


class TestNativeTier:
    def test_probe_is_memoized(self):
        from repro.kernels import native

        try:
            native.probe()
        except KernelUnavailableError:
            pytest.skip("native tier unavailable here")
        assert native.flavor() == "cc"
        assert native._resolve() is native._resolve()

    def test_no_compiler_degrades_to_numpy(self, monkeypatch, tmp_path):
        """Without a C compiler the probe fails, every kernel resolves one
        tier down, and streams stay byte-identical."""
        from repro.compressors.zfp.zfpcompressor import ZFPCompressor
        from repro.kernels import native

        data = np.random.default_rng(3).standard_normal((9, 6)).astype(np.float32)
        reference = ZFPCompressor(backend="scalar").compress(data, rate=8.0)
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv(native.CACHE_ENV, str(tmp_path))  # no cached .so
        kernels.reset()
        try:
            with pytest.raises(KernelUnavailableError, match="no C compiler"):
                native.probe()
            assert set(kernels.active("native").values()) == {"numpy"}
            codec = ZFPCompressor(backend="native")
            assert codec.compress(data, rate=8.0).payload == reference.payload
            assert kernels.last_used()["zfp.encode"] == "numpy"
        finally:
            monkeypatch.undo()
            kernels.reset()


class TestTelemetryExport:
    def test_publish_gauges(self):
        from repro.telemetry import Telemetry

        tm = Telemetry("test")
        mapping = kernels.publish_gauges(tm)
        assert set(mapping) == set(kernels.active())
        flat = str(tm.metrics.snapshot())
        assert "kernels.backend" in flat and "sz.lorenzo" in flat
        from repro.telemetry.exposition import render_prometheus

        text = render_prometheus(tm.metrics)
        assert 'kernels_backend{stage="sz.lorenzo"}' in text
        assert 'kernels_backend_info{backend="' in text


class TestPropagation:
    def test_apply_chunk_installs_and_restores(self):
        seen = []

        def probe_task(task):
            seen.append(kernels.requested_backend())
            return task

        assert _apply_chunk(probe_task, [1, 2], None, "scalar") == [1, 2]
        assert seen == ["scalar", "scalar"]
        assert kernels.current_override() is None

    def test_process_map_workers_inherit_override(self, monkeypatch):
        monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
        with kernels.use("scalar"):
            out = process_map(_worker_backend, list(range(8)), workers=2)
        assert out == ["scalar"] * 8
        # Without an override, workers fall back to their environment.
        assert process_map(_worker_backend, [0, 1], workers=2) == ["auto"] * 2

    def test_cbench_backend_reaches_streaming_engine(self):
        from repro.foresight.cbench import CBench
        from repro.foresight.config import CompressorSweep

        rng = np.random.default_rng(2)
        fields = {"x": rng.standard_normal((256,)).astype(np.float32)}
        sweep = CompressorSweep(
            name="sz", mode="abs", sweep={"error_bound": [1e-2]}
        )
        bench = CBench(fields, chunk_budget=256, backend="scalar")
        rec = bench.run_one(sweep, "x", 1e-2)
        assert rec.meta["kernels"]["sz.lorenzo"] == "scalar"
        assert rec.meta["streaming"]["n_chunks"] > 1
        assert kernels.current_override() is None

    def test_cbench_validates_backend(self):
        from repro.foresight.cbench import CBench

        with pytest.raises(ConfigError, match="backend"):
            CBench({"x": np.zeros(4, dtype=np.float32)}, backend="gpu")

    def test_daemon_reports_backend_in_stats_and_metrics(self):
        from repro.service import ServiceClient, ServiceThread

        with ServiceThread(backend="scalar") as st:
            with ServiceClient(port=st.port) as client:
                arr = np.linspace(0, 1, 512, dtype=np.float32)
                buf = client.compress(arr, compressor="sz", mode="abs",
                                      value=1e-3)
                stats = client.stats()
                text = client.metrics_text()
        assert stats["kernels"]["requested"] == "scalar"
        assert set(stats["kernels"]["active"].values()) == {"scalar"}
        assert stats["kernels"]["tripped"] == {}
        assert 'kernels_backend{stage="sz.lorenzo"} 0' in text
        assert 'kernels_backend_info{backend="scalar",stage="sz.lorenzo"} 1' in text
        # The daemon restored the embedding process's selection on drain.
        assert kernels.current_override() is None

    def test_zfp_batched_compat(self, monkeypatch):
        monkeypatch.setenv(kernels.BACKEND_ENV, "scalar")
        from repro.compressors.zfp.zfpcompressor import ZFPCompressor

        assert ZFPCompressor().batched is False
        assert ZFPCompressor().backend == "scalar"
        assert ZFPCompressor(batched=True).batched is True
        assert ZFPCompressor(batched=False).backend == "scalar"
