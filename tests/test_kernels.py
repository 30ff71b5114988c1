"""The kernel-backend registry: selection, fallback, and propagation.

Covers the dispatch contract of :mod:`repro.kernels` — environment and
override precedence, capability probing, call-time trip-and-degrade —
plus the three places a backend selection must provably travel:
``process_map`` worker processes, the streaming CBench engine, and a
running service daemon (asserted via STATS / METRICS).
"""

import threading
import time

import numpy as np
import pytest

from repro import kernels
from repro.errors import (
    ConfigError,
    CorruptStreamError,
    DataError,
    KernelUnavailableError,
)
from repro.kernels.registry import Backend, KernelRegistry
from repro.parallel.executor import _apply_chunk, process_map
from test_fastpath_equivalence import BACKENDS


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
    reg.register(Backend(name="numpy", impls={"demo.k": "test_kernels:_ref_impl"}))
    reg.register(Backend(
        name="native", impls={"demo.k": f"test_kernels:{native_impl}"}, probe=probe,
    ))
    return reg


class TestSelection:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
        assert kernels.requested_backend() == "auto"

    @pytest.mark.parametrize("value", ["numpy", "native", "auto"])
    def test_env_values(self, monkeypatch, value):
        monkeypatch.setenv(kernels.BACKEND_ENV, value)
        assert kernels.requested_backend() == value

    def test_env_validation(self, monkeypatch):
        for value in ("cuda", "scalar"):  # the seed tier is gone, no alias
            monkeypatch.setenv(kernels.BACKEND_ENV, value)
            with pytest.raises(ConfigError, match="REPRO_BACKEND.*'numpy'"):
                kernels.requested_backend()

    def test_use_restores_override(self, monkeypatch):
        monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
        assert kernels.current_override() is None
        with kernels.use("native"):
            assert kernels.requested_backend() == "native"
            with kernels.use("numpy"):
                assert kernels.requested_backend() == "numpy"
            assert kernels.requested_backend() == "native"
        assert kernels.current_override() is None

    def test_use_none_is_noop(self):
        with kernels.use(None):
            assert kernels.current_override() is None

    def test_set_backend_validates(self):
        for value in ("gpu", "scalar"):
            with pytest.raises(ConfigError, match="'numpy'"):
                kernels.set_backend(value)

    def test_explicit_argument_beats_override(self):
        with kernels.use("native"):
            assert kernels.resolve_name("sz.encode", "numpy") == "numpy"

    def test_active_covers_every_kernel(self):
        active = kernels.active("numpy")
        assert set(active) == {
            "sz.encode", "sz.decode", "pack.varlen",
            "huffman.code", "huffman.encode", "huffman.decode",
            "zfp.encode", "zfp.decode",
        }
        assert set(active.values()) == {"numpy"}
        assert kernels.TIER_ORDER == ("native", "numpy")

    def test_numpy_tier_resolves_everywhere(self):
        assert set(kernels.active("numpy").values()) == {"numpy"}


class TestFallback:
    def test_call_time_failure_degrades_and_trips(self):
        reg = _fresh("_boom_impl")
        CALLS["boom"] = CALLS["ref"] = 0
        assert reg.call("demo.k", 21, backend="auto") == 42
        assert CALLS["boom"] == 1 and CALLS["ref"] == 1
        assert reg.last_used()["demo.k"] == "numpy"
        assert ("native", "demo.k") in reg.tripped()
        # The tripped pair is skipped on the next call: no second boom.
        assert reg.call("demo.k", 1, backend="auto") == 2
        assert CALLS["boom"] == 1

    def test_trip_is_logged_once(self, caplog):
        """A tripped kernel says so at WARNING — with no telemetry
        installed the log line is the only trace of the degradation."""
        reg = _fresh("_boom_impl")
        with caplog.at_level("WARNING", logger="repro.kernels"):
            reg.call("demo.k", 1, backend="auto")
            reg.call("demo.k", 1, backend="auto")
        (record,) = [r for r in caplog.records if r.name == "repro.kernels"]
        assert record.levelname == "WARNING"
        message = record.getMessage()
        assert "demo.k" in message and "native" in message
        assert "RuntimeError: native kernel exploded" in message
        assert "served by numpy" in message

    def test_probe_time_failure_skips_tier(self):
        reg = _fresh("_ref_impl", probe=_probe_fail)
        CALLS["ref"] = 0
        name, _ = reg.resolve("demo.k", "auto")
        assert name == "numpy"
        assert "no compiler" in reg.backends()["native"].unavailable_reason()
        assert reg.tripped() == {}  # probe failures are not call trips

    def test_explicit_tier_still_degrades(self):
        # A daemon pinned to `native` on a host without it keeps serving.
        reg = _fresh("_ref_impl", probe=_probe_fail)
        assert reg.call("demo.k", 3, backend="native") == 6
        assert reg.last_used()["demo.k"] == "numpy"

    def test_repro_errors_are_results_not_failures(self):
        reg = _fresh("_bad_data_impl")
        with pytest.raises(DataError, match="input rejected"):
            reg.call("demo.k", 1, backend="auto")
        assert reg.tripped() == {}  # data errors must not degrade the tier
        assert reg.last_used()["demo.k"] == "native"

    def test_scalar_failure_surfaces(self):
        reg = KernelRegistry()
        reg.register(Backend(
            name="numpy", impls={"demo.k": "test_kernels:_boom_impl"}
        ))
        with pytest.raises(RuntimeError, match="exploded"):
            reg.call("demo.k", 1, backend="numpy")

    def test_unknown_kernel(self):
        reg = _fresh("_ref_impl")
        with pytest.raises(KernelUnavailableError, match="no backend provides"):
            reg.resolve("demo.missing")

    def test_real_registry_never_fails_resolution(self):
        # numpy provides every kernel, so auto resolution always lands.
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

    def test_concurrent_first_use_trips_nothing(self, monkeypatch):
        """Threads racing for the first native call all wait for the one
        library load; none sees the half-made state and gets its kernel
        tripped to numpy for the rest of the process."""
        from repro.kernels import native

        try:
            native.probe()
        except KernelUnavailableError:
            pytest.skip("native tier unavailable here")
        monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)  # CI tier pins
        build = native._build_clib

        def slow_build():
            time.sleep(0.05)  # hold the window open
            return build()

        codes = np.array([1, 2, 3], dtype=np.uint64)
        lengths = np.array([1, 2, 2], dtype=np.int64)
        expected = kernels.call("pack.varlen", codes, lengths, backend="numpy")
        kernels.reset()
        monkeypatch.setattr(native, "_build_clib", slow_build)
        barrier = threading.Barrier(4)
        results = []

        def first_call():
            barrier.wait()
            results.append(kernels.call("pack.varlen", codes, lengths))

        try:
            threads = [threading.Thread(target=first_call) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert kernels.REGISTRY.tripped() == {}
            assert kernels.last_used()["pack.varlen"] == "native"
            assert results == [expected] * 4
        finally:
            monkeypatch.undo()
            kernels.reset()

    def test_no_compiler_degrades_to_numpy(self, monkeypatch, tmp_path):
        """Without a C compiler the probe fails, every kernel resolves one
        tier down, and streams stay byte-identical."""
        from repro.compressors.sz import SZCompressor
        from repro.compressors.zfp.zfpcompressor import ZFPCompressor
        from repro.kernels import native

        data = np.random.default_rng(3).standard_normal((9, 6)).astype(np.float32)
        with kernels.use("numpy"):
            reference = ZFPCompressor().compress(data, rate=8.0)
            sz_reference = SZCompressor().compress(data, error_bound=1e-2)
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv(native.CACHE_ENV, str(tmp_path))  # no cached .so
        kernels.reset()
        try:
            with pytest.raises(KernelUnavailableError, match="no C compiler"):
                native.probe()
            assert set(kernels.active("native").values()) == {"numpy"}
            with kernels.use("native"):
                zfp_buf = ZFPCompressor().compress(data, rate=8.0)
                sz_buf = SZCompressor().compress(data, error_bound=1e-2)
            assert zfp_buf.payload == reference.payload
            assert kernels.last_used()["zfp.encode"] == "numpy"
            assert sz_buf.payload == sz_reference.payload
            assert kernels.last_used()["sz.encode"] == "numpy"
        finally:
            monkeypatch.undo()
            kernels.reset()


class TestSZKernels:
    """The ``sz.encode`` / ``sz.decode`` contracts, called directly on
    every tier (``compressors/sz/staged.py`` spells them out)."""

    @staticmethod
    def _field(dtype=np.float32):
        rng = np.random.default_rng(8)
        ramp = np.add.outer(np.linspace(0, 9, 15), np.linspace(0, 5, 11))
        return (ramp + 0.05 * rng.standard_normal(ramp.shape)).astype(dtype)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("radius", [8, None])
    def test_encode_outputs(self, backend, radius):
        data = self._field()
        ref = kernels.call("sz.encode", data, 1e-3, 6, "adaptive", radius,
                           backend="numpy")
        got = kernels.call("sz.encode", data, 1e-3, 6, "adaptive", radius,
                           backend=backend)
        for mine, theirs in zip(got[:5], ref[:5]):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        symbols, freqs, outliers, use_reg, coefs, used_radius = got
        assert used_radius == ref[5] and (radius is None or used_radius == radius)
        nblocks = 3 * 2
        assert symbols.dtype == np.uint16 and symbols.size == nblocks * 36
        assert freqs.dtype == np.int64 and freqs.size == 2 * used_radius
        assert freqs.sum() == symbols.size and freqs[0] == outliers.size
        assert outliers.dtype == np.int64
        assert use_reg.dtype == np.bool_ and use_reg.size == nblocks
        assert 0 < use_reg.sum() < nblocks  # both predictors win somewhere
        assert coefs.dtype == np.float32
        assert coefs.shape == (use_reg.sum(), 3)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_decode_inverts_any_tier(self, backend, dtype):
        data = self._field(dtype)
        symbols, _, outliers, use_reg, coefs, radius = kernels.call(
            "sz.encode", data, 1e-3, 6, "adaptive", 8, backend="numpy")
        args = (symbols, outliers, use_reg, coefs, 1e-3, 6, radius,
                data.shape, np.dtype(dtype))
        out = kernels.call("sz.decode", *args, backend=backend)
        assert out.dtype == dtype and out.shape == data.shape
        assert np.array_equal(out, kernels.call("sz.decode", *args,
                                                backend="numpy"))
        assert np.abs(out.astype(np.float64) - data).max() <= 1e-3 + 1e-6

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_typed_errors(self, backend):
        data = self._field()
        with pytest.raises(DataError, match="int64 overflow"):
            kernels.call("sz.encode", data * 1e30, 1e-30, 6, "adaptive", 8,
                         backend=backend)
        symbols, _, outliers, use_reg, coefs, radius = kernels.call(
            "sz.encode", data, 1e-3, 6, "adaptive", 8, backend=backend)
        tail = (1e-3, 6, radius, data.shape, data.dtype)
        with pytest.raises(
            CorruptStreamError,
            match=f"{outliers.size} escapes vs {outliers.size - 1} stored",
        ):
            kernels.call("sz.decode", symbols, outliers[:-1], use_reg, coefs,
                         *tail, backend=backend)
        for damaged in (
            (symbols[:-1], outliers, use_reg, coefs),
            (symbols, outliers, use_reg[:-1], coefs),
            (symbols, outliers, use_reg, coefs[:-1]),
        ):
            with pytest.raises(CorruptStreamError, match="block grid"):
                kernels.call("sz.decode", *damaged, *tail, backend=backend)


def _huffman_tables(family: str) -> list[tuple[np.ndarray, int]]:
    """``(freqs, max_len)`` cases of one shape, ``max_len`` over 1..24
    (cases whose used symbols cannot fit are part of the contract too)."""
    rng = np.random.default_rng(sum(map(ord, family)))
    fib = [1, 2]
    while len(fib) < 80:  # the sum stays below 2^63
        fib.append(fib[-1] + fib[-2])
    cases = []
    for _ in range(500):
        size = int(rng.integers(2, 600))
        if family == "uniform":
            freqs = rng.integers(0, 1000, size)
        elif family == "pareto":
            freqs = (rng.pareto(rng.uniform(0.3, 3.0), size) * 10).astype(np.int64)
        elif family == "fibonacci":  # the deepest trees for their size
            k = int(rng.integers(3, 80))
            freqs = np.zeros(k + int(rng.integers(0, 40)), dtype=np.int64)
            freqs[rng.choice(freqs.size, k, replace=False)] = fib[:k]
        elif family == "ties":
            freqs = rng.choice([0, 1, 1, 2, 7, 7, 7], size) * int(rng.integers(1, 9))
        elif family == "two_symbols":
            freqs = np.zeros(size, dtype=np.int64)
            freqs[rng.choice(size, 2, replace=False)] = rng.integers(1, 5, 2)
        else:  # "full": exactly 2^max_len used symbols
            max_len = int(rng.integers(1, 11))
            freqs = rng.integers(1, int(rng.choice([2, 50, 10**6])), 1 << max_len)
            cases.append((freqs.astype(np.int64), max_len))
            continue
        cases.append((np.asarray(freqs, dtype=np.int64), int(rng.integers(1, 25))))
    return cases


def _code_or_error(freqs, max_len, backend):
    try:
        return kernels.call("huffman.code", freqs, max_len, backend=backend)
    except DataError as exc:
        return str(exc)


class TestHuffmanCode:
    """``huffman.code``: the native construction (sort, two-queue merge,
    package-merge past ``max_len``, canonical codes) against the numpy
    tier's ``huffman_lengths`` + ``canonical_codes``, table for table."""

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    @pytest.mark.parametrize(
        "family", ["uniform", "pareto", "fibonacci", "ties", "two_symbols", "full"])
    def test_matches_numpy(self, backend, family):
        fitted = 0
        for freqs, max_len in _huffman_tables(family):
            ref = _code_or_error(freqs, max_len, "numpy")
            got = _code_or_error(freqs, max_len, backend)
            if isinstance(ref, str):
                assert got == ref
                continue
            fitted += 1
            for mine, theirs in zip(got, ref):
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        assert fitted >= 250
        assert kernels.last_used()["huffman.code"] == backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_edge_tables(self, backend):
        code = lambda f, n: kernels.call(  # noqa: E731
            "huffman.code", np.array(f, dtype=np.int64), n, backend=backend)
        lengths, codes = code([0, 0, 0], 16)
        assert lengths.dtype == np.uint8 and codes.dtype == np.uint64
        assert not lengths.any() and not codes.any()
        lengths, codes = code([0, 9, 0], 1)
        assert lengths.tolist() == [0, 1, 0] and codes.tolist() == [0, 0, 0]
        lengths, _ = code([1] * 8, 3)
        assert lengths.tolist() == [3] * 8
        with pytest.raises(DataError, match="alphabet of 9 symbols cannot fit"):
            code([1] * 9, 3)
        for bad in (0, 25):
            with pytest.raises(DataError, match="max_len"):
                code([1, 1], bad)


def _complete_lengths(rng, longest: int) -> list[int]:
    """A random complete prefix code whose longest codeword has exactly
    ``longest`` bits: a path down to that depth, then random leaf splits."""
    depths = list(range(1, longest)) + [longest, longest]
    for _ in range(int(rng.integers(0, 80))):
        shallow = [i for i, d in enumerate(depths) if d < longest]
        if not shallow:
            break
        d = depths.pop(shallow[int(rng.integers(len(shallow)))])
        depths += [d + 1, d + 1]
    return depths


def _decode_tables(family: str, l1_bits: int):
    """``(lengths, max_len)`` tables of one kind for ``huffman.decode``."""
    rng = np.random.default_rng(sum(map(ord, family)))
    cases = []
    if family == "longest":  # the longest code at every width 1..24
        plan = [(L, L) for L in range(1, 25)]
    elif family == "level_edge":  # at and one bit past the first level
        plan = [(L, m) for L in (l1_bits, l1_bits + 1)
                for m in (L, L + 1, 16, 20) if m >= L] * 4
    else:
        plan = [(int(L), int(min(24, L + rng.integers(0, 4))))
                for L in rng.integers(1, 17, 40)]
    for longest, max_len in plan:
        depths = _complete_lengths(rng, longest)
        alphabet = len(depths) + int(rng.integers(0, 30))
        lengths = np.zeros(alphabet, dtype=np.uint8)
        lengths[rng.choice(alphabet, len(depths), replace=False)] = depths
        used = np.flatnonzero(lengths)
        if family == "holes":
            if rng.random() < 0.25:  # what a single-symbol stream carries
                lengths[:] = 0
                lengths[int(rng.integers(alphabet))] = int(rng.integers(1, longest + 1))
            else:
                lengths[rng.choice(used, int(rng.integers(1, used.size)), replace=False)] = 0
        elif family == "kraft":  # one codeword a bit shorter: sum > 1
            long_ones = used[lengths[used] > 1]
            if long_ones.size:
                lengths[long_ones[int(rng.integers(long_ones.size))]] -= 1
            else:  # [1, 1]: a third one-bit code
                lengths = np.append(lengths, np.uint8(1))
        cases.append((lengths, max_len))
    return cases


def _decode_or_error(backend, *args):
    try:
        return kernels.call("huffman.decode", *args, backend=backend)
    except CorruptStreamError as exc:
        return str(exc)


class TestHuffmanDecodeTable:
    """``huffman.decode`` builds its table from the code lengths: dense on
    the numpy tier (``HuffmanCodec._build_decode_table``, the
    specification), two levels in C.  Both must agree on every table —
    complete, with holes, over-full — and every body: a valid one, random
    bytes, and a valid one cut short (bits past a body read as zero)."""

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    @pytest.mark.parametrize(
        "family", ["complete", "holes", "kraft", "longest", "level_edge"])
    def test_matches_numpy(self, backend, family):
        from repro.kernels import native
        from repro.lossless.huffman import canonical_codes

        l1_bits = native.huffman_l1_bits()
        rng = np.random.default_rng(sum(map(ord, family)) + 1)
        seen = {"decoded": 0, "errors": set(), "past_level_one": 0}
        for lengths, max_len in _decode_tables(family, l1_bits):
            used = np.flatnonzero(lengths)
            n = int(rng.integers(1, 400))
            chunk = int(rng.integers(1, 80))
            bodies = []
            try:
                codes = canonical_codes(lengths)
            except DataError:  # no prefix code: any bits will do
                body = rng.bytes(int(rng.integers(1, 200)))
                offsets = np.sort(rng.integers(0, 8 * len(body) + 1,
                                               max(1, -(-n // chunk))))
                bodies.append((body, offsets, 8 * len(body)))
            else:
                symbols = rng.choice(used, n)
                body, nbits, offsets = kernels.call(
                    "huffman.encode", symbols, codes, lengths, chunk, backend="numpy")
                bodies += [(body, offsets, nbits),
                           (body[: len(body) // 2], offsets, nbits),
                           (rng.bytes(len(body) + 1), offsets, nbits)]
            for body, offsets, total_bits in bodies:
                args = (body, lengths, offsets.astype(np.int64), n, chunk,
                        max_len, total_bits)
                ref = _decode_or_error("numpy", *args)
                got = _decode_or_error(backend, *args)
                if isinstance(ref, str):
                    assert got == ref
                    seen["errors"].add(ref)
                    continue
                assert got.dtype == ref.dtype == np.uint16
                assert np.array_equal(got, ref)
                seen["decoded"] += 1
                seen["past_level_one"] += int((lengths[ref] > l1_bits).sum())
        assert kernels.last_used()["huffman.decode"] == backend
        if family == "kraft":
            assert seen["errors"] == {"bad Huffman length table: invalid code "
                                      "lengths (Kraft sum > 1)"}
        else:
            assert seen["decoded"] >= 10
        if family in ("longest", "level_edge"):
            assert seen["past_level_one"] >= 100
        if family == "holes":
            assert "invalid codeword in Huffman stream" in seen["errors"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_edge_contract(self, backend):
        """Lengths past max_len, the dtype rule, and an overrun."""
        call = lambda *a: kernels.call("huffman.decode", *a, backend=backend)  # noqa: E731
        lengths = np.array([1, 2, 2], dtype=np.uint8)  # codes 0, 10, 11
        with pytest.raises(CorruptStreamError, match="exceeds declared max_len"):
            call(b"\x00", lengths, np.zeros(1, np.int64), 1, 1, 1, 8)
        out = call(b"\x9b", lengths, np.zeros(1, np.int64), 5, 5, 2, 8)
        assert out.dtype == np.uint16 and out.tolist() == [1, 0, 2, 0, 2]
        wide = np.zeros(1 << 16 | 1, dtype=np.uint8)
        wide[[0, 1 << 16]] = 1
        out = call(b"\x40", wide, np.zeros(1, np.int64), 2, 2, 1, 2)
        assert out.dtype == np.int64 and out.tolist() == [0, 1 << 16]
        with pytest.raises(CorruptStreamError, match="overran"):
            call(b"\xff", lengths, np.zeros(1, np.int64), 9, 9, 2, 8)


class TestTelemetryExport:
    def test_publish_gauges(self):
        from repro.telemetry import Telemetry

        tm = Telemetry("test")
        mapping = kernels.publish_gauges(tm)
        assert set(mapping) == set(kernels.active())
        flat = str(tm.metrics.snapshot())
        assert "kernels.backend" in flat and "sz.encode" in flat
        from repro.telemetry.exposition import render_prometheus

        text = render_prometheus(tm.metrics)
        assert 'kernels_backend{stage="sz.encode"}' in text
        assert 'kernels_backend_info{backend="' in text


class TestPropagation:
    def test_apply_chunk_installs_and_restores(self):
        seen = []

        def probe_task(task):
            seen.append(kernels.requested_backend())
            return task

        assert _apply_chunk(probe_task, [1, 2], None, "numpy") == [1, 2]
        assert seen == ["numpy", "numpy"]
        assert kernels.current_override() is None

    def test_process_map_workers_inherit_override(self, monkeypatch):
        monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
        with kernels.use("numpy"):
            out = process_map(_worker_backend, list(range(8)), workers=2)
        assert out == ["numpy"] * 8
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
        bench = CBench(fields, chunk_budget=256, backend="numpy")
        rec = bench.run_one(sweep, "x", 1e-2)
        assert rec.meta["kernels"]["sz.encode"] == "numpy"
        assert rec.meta["streaming"]["n_chunks"] > 1
        assert kernels.current_override() is None

    def test_cbench_validates_backend(self):
        from repro.foresight.cbench import CBench

        for value in ("gpu", "scalar"):
            with pytest.raises(ConfigError, match="backend.*'numpy'"):
                CBench({"x": np.zeros(4, dtype=np.float32)}, backend=value)

    def test_daemon_reports_backend_in_stats_and_metrics(self):
        from repro.service import ServiceClient, ServiceThread

        with ServiceThread(backend="numpy") as st:
            with ServiceClient(port=st.port) as client:
                arr = np.linspace(0, 1, 512, dtype=np.float32)
                buf = client.compress(arr, compressor="sz", mode="abs",
                                      value=1e-3)
                stats = client.stats()
                text = client.metrics_text()
        assert stats["kernels"]["requested"] == "numpy"
        assert set(stats["kernels"]["active"].values()) == {"numpy"}
        assert stats["kernels"]["tripped"] == {}
        assert 'kernels_backend{stage="sz.encode"} 1' in text
        assert 'kernels_backend_info{backend="numpy",stage="sz.encode"} 1' in text
        # The daemon restored the embedding process's selection on drain.
        assert kernels.current_override() is None
