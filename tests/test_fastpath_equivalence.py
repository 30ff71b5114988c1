"""Byte-identity of the kernel tiers.

The kernel registry (:mod:`repro.kernels`) runs each codec hot spot as
batched numpy kernels or compiled native code, but the *stream format
is the contract*: for any input, any configuration and either tier the
encoder must produce bit-identical payloads, and every decoder must
accept (and identically decode) streams from any encoder.
``REPRO_BACKEND=numpy`` pins the bottom tier, the reference the native
tier is compared against here (its own bytes are pinned by the golden
streams of ``test_golden_streams.py``); the ``TestBackendParityMatrix``
class drives the same contract through the registry for the full
backend x kernel matrix.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro import kernels
from repro.compressors.sz.szcompressor import SZCompressor
from repro.compressors.zfp.zfpcompressor import ZFPCompressor
from repro.foresight.cbench import CBench
from repro.foresight.config import CompressorSweep
from repro.lossless.huffman import HuffmanCodec
from repro.util.bits import pack_varlen_codes


def backend_params():
    """Both tiers; ``native`` marked skip when it cannot run here.

    The skip is *visible* (reported by pytest), never silent — CI's
    native job fails collection of a silently-green matrix.
    """
    params = [pytest.param("numpy")]
    from repro.kernels import native

    try:
        native.probe()
    except Exception as exc:
        params.append(pytest.param(
            "native",
            marks=pytest.mark.skip(reason=f"native tier unavailable: {exc}"),
        ))
    else:
        params.append(pytest.param("native"))
    return params


BACKENDS = backend_params()

#: The bottom tier: always available, the reference of every comparison.
REFERENCE = kernels.TIER_ORDER[-1]


def _zfp_compress(backend, data, **kwargs):
    with kernels.use(backend):
        return ZFPCompressor().compress(data, **kwargs)


def _zfp_decompress(backend, buf):
    with kernels.use(backend):
        return ZFPCompressor().decompress(buf)


@pytest.fixture()
def numpy_mode(monkeypatch):
    """Switch the wrapped code between the pinned ``numpy`` tier and
    ``auto`` (also when the whole suite runs under an ambient tier pin,
    as the CI backend matrix does)."""

    def enable():
        monkeypatch.setenv(kernels.BACKEND_ENV, REFERENCE)

    def disable():
        monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)

    disable()
    return enable, disable


def _field(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(-6.0, 6.0, shape))
    return (rng.standard_normal(shape) * scale).astype(dtype)


class TestZFPEquivalence:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "mode,kwargs",
        [
            ("fixed_rate", {"rate": 7.0}),
            ("fixed_precision", {"precision": 14}),
            ("fixed_accuracy", {"tolerance": 1e-3}),
        ],
    )
    def test_streams_byte_identical(self, numpy_mode, ndim, dtype, mode, kwargs):
        enable, disable = numpy_mode
        shape = {1: (131,), 2: (21, 18), 3: (9, 10, 11)}[ndim]
        data = _field(shape, dtype, seed=ndim)

        disable()
        fast_buf = ZFPCompressor().compress(data, mode=mode, **kwargs)
        fast_rec = ZFPCompressor().decompress(fast_buf)

        enable()
        seed_buf = ZFPCompressor().compress(data, mode=mode, **kwargs)
        seed_rec = ZFPCompressor().decompress(seed_buf)

        assert fast_buf.payload == seed_buf.payload
        assert np.array_equal(fast_rec, seed_rec)

        # Cross-decode: the auto decoder accepts the pinned tier's stream
        # (it is the same stream, but exercise both decoders).
        disable()
        assert np.array_equal(ZFPCompressor().decompress(seed_buf), fast_rec)


class TestSZEquivalence:
    @pytest.mark.parametrize("rel", [1e-2, 1e-3, 7e-4])
    def test_streams_byte_identical(self, numpy_mode, rel):
        enable, disable = numpy_mode
        data = _field((17, 23, 19), np.float32, seed=3)
        eb = float(np.std(data)) * rel

        disable()
        fast_buf = SZCompressor().compress(data, mode="abs", error_bound=eb)
        fast_rec = SZCompressor().decompress(fast_buf)

        enable()
        seed_buf = SZCompressor().compress(data, mode="abs", error_bound=eb)
        seed_rec = SZCompressor().decompress(seed_buf)

        assert fast_buf.payload == seed_buf.payload
        assert np.array_equal(fast_rec, seed_rec)
        assert np.abs(fast_rec - data).max() <= eb * (1 + 1e-6)


class TestHuffmanEquivalence:
    @pytest.mark.parametrize(
        "n,alphabet",
        [(1, 1), (255, 3), (4096, 7), (4097, 300), (50000, 2000)],
    )
    def test_payload_and_decode_identical(self, numpy_mode, n, alphabet):
        enable, disable = numpy_mode
        rng = np.random.default_rng(n)
        # Zipf-ish skew so codeword lengths actually vary.
        symbols = np.minimum(
            rng.geometric(0.05, size=n) - 1, alphabet - 1
        ).astype(np.int64)

        disable()
        fast_enc = HuffmanCodec().encode(symbols, alphabet)
        fast_out = HuffmanCodec().decode(fast_enc)

        enable()
        seed_enc = HuffmanCodec().encode(symbols, alphabet)
        seed_out = HuffmanCodec().decode(seed_enc)

        assert fast_enc.payload == seed_enc.payload
        assert np.array_equal(fast_out, symbols)
        assert np.array_equal(seed_out, symbols)

        # Pinned-tier decoder on the fast stream (same bytes).
        assert np.array_equal(HuffmanCodec().decode(fast_enc), symbols)


class TestSweepEquivalence:
    """Engine knobs must not change sweep results — only their speed.

    The full matrix of transports (shm vs ``REPRO_NO_SHM=1`` pickling)
    and codec implementations (``auto`` vs the ``REPRO_BACKEND=numpy``
    pin) produces identical records for the same sweep.
    """

    def _rows(self, fields, monkeypatch, *, workers=None, no_shm=False,
              pinned=False, budget=None):
        if no_shm:
            monkeypatch.setenv("REPRO_NO_SHM", "1")
        else:
            monkeypatch.delenv("REPRO_NO_SHM", raising=False)
        if pinned:
            monkeypatch.setenv(kernels.BACKEND_ENV, REFERENCE)
        else:
            monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
        sweep = CompressorSweep(
            name="sz", mode="abs", sweep={"error_bound": [0.05, 0.01]}
        )
        bench = CBench(fields, keep_reconstructions=False, chunk_budget=budget)
        return [
            (r.compressor, r.field, r.parameter, r.compression_ratio,
             r.bitrate, tuple(sorted(r.metrics.items())))
            for r in bench.run_all([sweep], workers=workers)
        ]

    def test_transport_and_codec_matrix_identical(self, hacc_small, monkeypatch):
        fields = {"x": hacc_small.fields["x"]}
        reference = self._rows(fields, monkeypatch)
        for kwargs in (
            dict(workers=2),
            dict(workers=2, no_shm=True),
            dict(pinned=True),
            dict(workers=2, no_shm=True, pinned=True),
        ):
            assert self._rows(fields, monkeypatch, **kwargs) == reference

    def test_streaming_engine_matrix_identical(self, hacc_small, monkeypatch):
        fields = {"x": hacc_small.fields["x"]}
        reference = self._rows(fields, monkeypatch, budget="64K")
        for kwargs in (
            dict(workers=2, budget="64K"),
            dict(workers=2, no_shm=True, budget="64K"),
            dict(pinned=True, budget="64K"),
        ):
            assert self._rows(fields, monkeypatch, **kwargs) == reference


def _sz_fields(dtype, ndim):
    """Field kinds of the SZ parity matrix, each with its ABS bound."""
    ragged = {1: (13,), 2: (7, 10), 3: (13, 7, 10)}[ndim]
    extreme = _field(ragged, dtype, seed=9)
    extreme.reshape(-1)[::3] *= dtype(np.finfo(dtype).tiny * 4)  # denormals
    extreme.reshape(-1)[1::3] *= dtype(1e30)
    ramp = np.linspace(0.0, 4.0, 12)
    aligned = ramp
    for _ in range(ndim - 1):
        aligned = np.add.outer(aligned, np.sin(ramp))
    aligned = aligned + 1e-3 * _field((12,) * ndim, np.float64, seed=ndim)
    return {
        # smooth trend + noise: adaptive picks each predictor somewhere
        "aligned": (aligned.astype(dtype), 1e-3),
        "ragged": (_field(ragged, dtype, seed=ndim + 3), 1e-2),
        "all-constant": (np.full(ragged, 3.25, dtype), 1e-3),
        "single block": (_field((3,) * ndim, dtype, seed=ndim + 6), 1e-3),
        # far more lattice steps per value than any radius covers
        "outlier-heavy": (_field(ragged, dtype, seed=ndim + 9), 1e-7),
        "extreme": (extreme, 1e24),
        # lattice indices beyond 2^62: the overflow guard's DataError
        "overflow": (extreme, 1e-30),
    }


def _sz_outcome(backend, data, mode, value, predictor, radius):
    """(payload, meta, reconstruction), or (error type, message)."""
    codec = SZCompressor(predictor=predictor, radius=radius)
    knob = "pwrel" if mode == "pw_rel" else "error_bound"
    with kernels.use(backend):
        try:
            buf = codec.compress(data, mode=mode, **{knob: value})
            return buf.payload, buf.meta, codec.decompress(buf.payload)
        except Exception as exc:  # compared across tiers, never swallowed
            return type(exc), str(exc)


@functools.lru_cache(maxsize=None)
def _sz_matrix(dtype, ndim, backend):
    """Every cell of the SZ parity matrix with ``backend``'s outcome."""
    cells = []
    for label, (data, eb) in _sz_fields(dtype, ndim).items():
        for mode, value in (("abs", eb), ("pw_rel", 0.05)):
            if mode == "pw_rel" and label == "overflow":
                continue
            for predictor in ("adaptive", "lorenzo", "regression"):
                for radius in (256, "auto"):
                    case = (label, predictor, radius)
                    cells.append((case, data, mode, value, _sz_outcome(
                        backend, data, mode, value, predictor, radius)))
    return cells


class TestBackendParityMatrix:
    """Backend x kernel bit-exactness, driven through the registry.

    Every kernel is called directly on every available tier and compared
    against the ``numpy`` reference output; the codec-level tests then
    prove whole streams stay byte-identical per tier.
    """

    # -- primitive kernels --------------------------------------------------

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("eb", [1e-1, 1e-4])
    def test_sz_lorenzo_roundtrip(self, backend, ndim, dtype, eb):
        """The field-granularity ``sz.encode`` / ``sz.decode`` contracts on
        the Lorenzo predictor, called directly: all six outputs match the
        reference tier's and are what the stage helpers give, and either
        tier's decoder inverts either tier's output within the bound."""
        from repro.compressors.sz.predictor import lorenzo_residual
        from repro.compressors.sz.quantizer import prequantize, symbols_to_residuals
        from repro.util.blocks import block_partition

        rng = np.random.default_rng(ndim * 7 + 1)
        shape = {1: (53,), 2: (9, 14), 3: (7, 6, 11)}[ndim]
        data = (rng.standard_normal(shape) * 40.0).astype(dtype)
        ref = kernels.call("sz.encode", data, eb, 6, "lorenzo", 64,
                           backend=REFERENCE)
        got = kernels.call("sz.encode", data, eb, 6, "lorenzo", 64,
                           backend=backend)
        for mine, theirs in zip(got[:5], ref[:5]):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        symbols, freqs, outliers, use_reg, coefs, radius = got
        assert radius == ref[5] == 64 and symbols.dtype == np.uint16
        assert not use_reg.any() and coefs.shape == (0, ndim + 1)
        assert np.array_equal(freqs, np.bincount(symbols, minlength=128))
        assert outliers.size == freqs[0] > 0  # eb=1e-4 escapes nearly all
        blocks, _, _ = block_partition(data, (6,) * ndim, mode="edge")
        assert np.array_equal(
            symbols_to_residuals(symbols, outliers, radius),
            lorenzo_residual(prequantize(blocks, eb)).ravel(),
        )

        args = (symbols, outliers, use_reg, coefs, eb, 6, radius, shape,
                np.dtype(dtype))
        dec_ref = kernels.call("sz.decode", *args, backend=REFERENCE)
        dec = kernels.call("sz.decode", *args, backend=backend)
        assert dec.dtype == dtype and dec.shape == shape
        assert np.array_equal(dec, dec_ref)
        from conftest import ulp_tolerance

        assert np.abs(dec.astype(np.float64) - data).max() <= eb + ulp_tolerance(data)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_pack_varlen(self, backend, seed):
        rng = np.random.default_rng(seed)
        n = 3001
        lengths = rng.integers(0, 58, size=n).astype(np.int64)
        shift = np.minimum(lengths, 57).astype(np.uint64)
        codes = rng.integers(0, 1 << 57, size=n, dtype=np.uint64) & (
            (np.uint64(1) << shift) - np.uint64(1)
        )
        ref = kernels.call("pack.varlen", codes, lengths, backend=REFERENCE)
        assert kernels.call("pack.varlen", codes, lengths, backend=backend) == ref

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n,alphabet", [(1, 1), (4096, 300), (30000, 1500)])
    def test_huffman_codec(self, backend, n, alphabet):
        rng = np.random.default_rng(n)
        symbols = np.minimum(
            rng.geometric(0.03, size=n) - 1, alphabet - 1
        ).astype(np.int64)
        with kernels.use(REFERENCE):
            ref_enc = HuffmanCodec().encode(symbols, alphabet)
        with kernels.use(backend):
            enc = HuffmanCodec().encode(symbols, alphabet)
            out = HuffmanCodec().decode(enc)
        assert enc.payload == ref_enc.payload
        assert np.array_equal(out, symbols)

    @pytest.mark.parametrize("backend", ["numpy"])
    @pytest.mark.parametrize("planes,size", [(32, 16), (52, 64), (52, 4)])
    def test_zfp_transpose_roundtrip(self, backend, planes, size):
        """The bit-plane transposes are plain helpers of the staged tier
        (the native kernel transposes on the fly inside its block loop,
        hence the single ``backend`` cell); the per-block
        ``words_to_coeffs`` is their independent inverse."""
        from repro.compressors.zfp import blockcodec as BC

        rng = np.random.default_rng(planes + size)
        u = rng.integers(0, 1 << 62, size=(13, size), dtype=np.uint64) & (
            (np.uint64(1) << np.uint64(planes)) - np.uint64(1)
        )
        words = BC.plane_words(u, planes)
        for block, row in zip(u, words.tolist()):
            assert np.array_equal(BC.words_to_coeffs(row, size), block)
        assert np.array_equal(BC.words_matrix_to_coeffs(words, size), u)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("maxbits", [0, 210])
    @pytest.mark.parametrize("size,planes", [(4, 32), (16, 32), (64, 52)])
    def test_zfp_coder(self, backend, maxbits, size, planes):
        """The field-granularity ``zfp.encode`` / ``zfp.decode`` contracts,
        called directly: all five outputs match the reference tier's, and
        either tier's decoder inverts either tier's stream."""
        ndim = {4: 1, 16: 2, 64: 3}[size]
        dtype = {32: np.float32, 52: np.float64}[planes]
        shape = {1: (41,), 2: (9, 14), 3: (5, 6, 9)}[ndim]
        data = _field(shape, dtype, seed=size * planes + maxbits)
        data[(slice(4, 8),) * ndim] = 0  # a zero block in the middle
        # Variable-rate calls exercise the per-exponent cutoff rule.
        rule = (0, False) if maxbits else (planes - 30, True)
        ref = kernels.call("zfp.encode", data, planes, maxbits, rule,
                           backend=REFERENCE)
        got = kernels.call("zfp.encode", data, planes, maxbits, rule,
                           backend=backend)
        body, nbits, offsets, used_bits, nonzero = ref
        assert bytes(got[0]) == bytes(body) and got[1] == nbits
        for mine, theirs in zip(got[2:], ref[2:]):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        assert not nonzero.all() and nonzero.any()
        assert offsets[-1] == nbits and (used_bits[~nonzero] == 0).all()
        if maxbits:
            assert nbits == nonzero.size * maxbits

        layout = maxbits if maxbits else offsets.astype(np.int64)
        dec_ref = kernels.call("zfp.decode", body, layout, shape,
                               np.dtype(dtype), planes, rule, backend=REFERENCE)
        dec = kernels.call("zfp.decode", body, layout, shape,
                           np.dtype(dtype), planes, rule, backend=backend)
        assert dec.dtype == dtype and dec.shape == shape
        assert np.array_equal(dec, dec_ref)

    # -- whole codecs -------------------------------------------------------

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sz_streams_identical(self, backend, dtype):
        data = _field((17, 23, 19), dtype, seed=11)
        with kernels.use(REFERENCE):
            ref = SZCompressor().compress(data, mode="abs", error_bound=1e-3)
        with kernels.use(backend):
            buf = SZCompressor().compress(data, mode="abs", error_bound=1e-3)
            rec = SZCompressor().decompress(ref)
        assert buf.payload == ref.payload
        from conftest import ulp_tolerance

        assert np.abs(rec - data).max() <= 1e-3 + ulp_tolerance(data)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sz_parity_matrix(self, backend, ndim, dtype):
        """ABS + PW_REL x three predictors x fixed/auto radius x field
        kind through one tier: payload bytes, ``meta`` and reconstruction
        (or the error raised) equal the reference tier's, and the pointwise
        bound holds wherever a stream comes out."""
        for case, data, mode, value, outcome in _sz_matrix(dtype, ndim, REFERENCE):
            got = _sz_outcome(backend, data, mode, value, *case[1:])
            assert got[:2] == outcome[:2], case
            if isinstance(outcome[0], bytes):
                assert np.array_equal(got[2], outcome[2]), case
                assert got[2].dtype == dtype and got[2].shape == data.shape
                exact = data.astype(np.float64)
                slack = np.spacing(np.abs(data).astype(np.float32)).astype(np.float64)
                bound = value * np.abs(exact) if mode == "pw_rel" else value
                assert (np.abs(got[2] - exact) <= bound + slack.max()).all(), case

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "mode,kwargs",
        [
            ("fixed_rate", {"rate": 7.0}),
            ("fixed_precision", {"precision": 14}),
            ("fixed_accuracy", {"tolerance": 1e-3}),
        ],
    )
    def test_zfp_streams_identical(self, backend, mode, kwargs):
        data = _field((9, 10, 11), np.float64, seed=5)
        ref = _zfp_compress(REFERENCE, data, mode=mode, **kwargs)
        buf = _zfp_compress(backend, data, mode=mode, **kwargs)
        assert buf.payload == ref.payload
        assert np.array_equal(
            _zfp_decompress(backend, ref), _zfp_decompress(REFERENCE, ref)
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zfp_parity_matrix(self, backend, ndim, dtype):
        """Every mode x field kind through one tier: payload bytes equal
        the reference tier's and reconstructions are bit-equal."""
        tiny = np.finfo(dtype).tiny
        big = np.finfo(dtype).max
        ragged = {1: (13,), 2: (7, 10), 3: (13, 7, 10)}[ndim]
        extreme = _field(ragged, dtype, seed=9)
        extreme.reshape(-1)[::3] *= dtype(tiny * 4)      # denormal results
        extreme.reshape(-1)[1::3] = dtype(big / 16)      # lossy error stays finite
        extreme.reshape(-1)[2] = -dtype(big / 8)
        fields = {
            "aligned": _field((8,) * ndim, dtype, seed=ndim),
            "ragged": _field(ragged, dtype, seed=ndim + 3),
            "all-zero": np.zeros(ragged, dtype),
            "single block": _field((3,) * ndim, dtype, seed=ndim + 6),
            "extreme": extreme,
        }
        modes = [("fixed_rate", {"rate": r}) for r in (3.3, 4.0, 8.0, 16.0)] + [
            ("fixed_precision", {"precision": 11}),
            ("fixed_accuracy", {"tolerance": 2.0 ** -7}),
        ]
        for label, data in fields.items():
            for mode, kwargs in modes:
                if mode == "fixed_rate" and round(kwargs["rate"] * 4**ndim) < 14:
                    continue  # below the 13-bit block header: DataError on any tier
                ref = _zfp_compress(REFERENCE, data, mode=mode, **kwargs)
                buf = _zfp_compress(backend, data, mode=mode, **kwargs)
                assert buf.payload == ref.payload, (label, mode, kwargs)
                assert buf.meta == ref.meta, (label, mode, kwargs)
                rec = _zfp_decompress(backend, ref)
                assert rec.dtype == dtype and rec.shape == data.shape
                assert np.array_equal(
                    rec, _zfp_decompress(REFERENCE, ref)), (label, mode)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_adversarial_zfp_block(self, backend):
        """A pinned worst-case field: one 4^3 block whose values span the
        full float64 exponent range with mixed signs — maximal negabinary
        carry activity, group tests on every plane, and the 64-coefficient
        shift-guard path.  The seed coder's stream for this input is
        pinned by digest so *every* tier (today's and future ones) must
        match the frozen seed bytes, not merely each other."""
        block = np.zeros((4, 4, 4), dtype=np.float64)
        flat = block.reshape(-1)
        flat[:] = [
            (-1.0) ** i * 2.0 ** ((i * 5) % 120 - 60) for i in range(64)
        ]
        flat[7] = 0.0
        flat[21] = -0.0
        flat[63] = 2.0**60
        for mode, kwargs, digest in [
            ("fixed_rate", {"rate": 9.0}, None),
            ("fixed_precision", {"precision": 24}, None),
            ("fixed_accuracy", {"tolerance": 1e-6}, None),
        ]:
            ref = _zfp_compress(REFERENCE, block, mode=mode, **kwargs)
            buf = _zfp_compress(backend, block, mode=mode, **kwargs)
            assert buf.payload == ref.payload, mode
            assert np.array_equal(
                _zfp_decompress(backend, buf), _zfp_decompress(REFERENCE, ref)
            ), mode
        pinned = _zfp_compress(backend, block, precision=24)
        assert hashlib.sha256(pinned.payload).hexdigest() == (
            "844e1789d8e773854d6ec5d2c1e08058352bc35234688f7d1df546c3d5b50b1a"
        )


def _budget_edge_field(shape, dtype):
    """Mixed magnitudes between and inside blocks, all-zero blocks, zeros
    inside blocks, denormal blocks and a ragged tail."""
    rng = np.random.default_rng(26)
    size = int(np.prod(shape))
    per_block = np.exp2(rng.integers(-30, 31, size // 4 + 1)).repeat(4)[:size]
    data = rng.standard_normal(size) * per_block * np.exp2(rng.integers(-16, 1, size))
    data[400:480] = 0.0
    data[1001:1003] = 0.0
    data[2000:2040] = rng.standard_normal(40) * np.finfo(dtype).smallest_subnormal * 64
    return data.astype(dtype).reshape(shape)


def _budget_edge_cells(kind, dtype):
    """``(shape, maxbits, kmin_rule)`` of each call in one sweep.  Fixed
    rate runs every maxbits from the 13-bit header + 1 up to 16 bits per
    value (1-D: rate 3.5-16 in 0.25 steps), 5 (2-D) or 4 (3-D, then every
    7th up to 16).  3-D fixed precision runs every precision, so the coder
    crosses each boundary between groups of 8 planes."""
    from repro.compressors.base import CompressorMode
    from repro.compressors.zfp.zfpcompressor import _kmin_rule

    planes = {np.float32: 32, np.float64: 52}[dtype]
    if kind == "rate_2d":
        return [((45, 46), maxbits, (0, False)) for maxbits in range(14, 81)]
    if kind == "rate_3d":
        return [((13, 14, 15), maxbits, (0, False))
                for maxbits in [*range(14, 257), *range(257, 1025, 7)]]
    if kind == "precision_3d":
        return [((13, 14, 15), 0, (planes - p, False)) for p in range(1, planes + 1)]
    shape = (8002,)  # 2,001 blocks, the last one half full
    if kind == "rate":
        return [(shape, maxbits, (0, False)) for maxbits in range(14, 65)]
    if kind == "precision":
        precisions = (range(1, 33) if dtype == np.float32
                      else (1, 2, 5, 13, 24, 31, 40, 51, 52))
        return [(shape, 0, (planes - p, False)) for p in precisions]
    return [(shape, 0, _kmin_rule(CompressorMode.FIXED_ACCURACY, tol, planes, 1))
            for tol in (1e-6, 1e-3, 0.5, 1e3)]


class TestZFPBudgetEdges:
    """Where a plane meets the end of the bit budget.

    The native coder codes a 4-value plane's group tests from a table,
    steps over the empty top planes of a block at once and takes the
    16- and 64-value plane words from byte planes, 8 planes at a time.
    The first two can only part from the seed coder where a block's
    budget runs out inside a plane, the third at a group of planes, so
    these fields have thousands of blocks (or, in 3-D, every precision)
    and every budget is swept: the native payload must equal numpy's,
    and each tier's decoder must turn either tier's stream into the same
    bits."""

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    @pytest.mark.parametrize("kind,dtype", [
        (kind, dtype) for kind in ("rate", "precision", "accuracy")
        for dtype in (np.float32, np.float64)] + [
        ("rate_2d", np.float32), ("rate_3d", np.float32), ("rate_3d", np.float64),
        ("precision_3d", np.float64)])
    def test_native_matches_numpy_at_every_budget(self, backend, kind, dtype):
        planes = {np.float32: 32, np.float64: 52}[dtype]
        for shape, maxbits, rule in _budget_edge_cells(kind, dtype):
            data = _budget_edge_field(shape, dtype)
            ref = kernels.call("zfp.encode", data, planes, maxbits, rule,
                               backend=REFERENCE)
            got = kernels.call("zfp.encode", data, planes, maxbits, rule,
                               backend=backend)
            case = (shape, maxbits, rule)
            assert bytes(got[0]) == bytes(ref[0]) and got[1] == ref[1], case
            for mine, theirs in zip(got[2:], ref[2:]):
                assert np.array_equal(mine, theirs), case
            layout = maxbits if maxbits else ref[2].astype(np.int64)
            decoded = [
                kernels.call("zfp.decode", body, layout, shape, np.dtype(dtype),
                             planes, rule, backend=tier).tobytes()
                for tier, body in ((REFERENCE, ref[0]), (backend, ref[0]),
                                   (backend, got[0]))
            ]
            assert decoded[1] == decoded[0] and decoded[2] == decoded[0], case
        assert kernels.last_used()["zfp.decode"] == backend

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_plane4_tables_are_the_seed_group_tests(self, backend):
        """Every entry of the native 4-value plane tables against the seed
        coder (``blockcodec``), for every n, plane word or 8-bit window and
        budget of 1-8 bits: an entry that fits the budget is what the seed
        loop does, an encode entry that does not is cut exactly as the seed
        loop cuts it, and a decode entry that does not marks a plane where
        the seed loop spends the whole budget (the native decoder runs that
        loop there).  A first plane brings the block to n significant
        coefficients; the second carries n zero value bits, then the group
        tests under test."""
        import ctypes

        from repro.compressors.zfp import blockcodec as BC
        from repro.kernels import native

        lib = native._resolve()
        encode = (ctypes.c_uint16 * 16 * 5).in_dll(lib, "repro_zfp_plane4_encode")
        decode = (ctypes.c_uint16 * 256 * 5).in_dll(lib, "repro_zfp_plane4_decode")

        for n in range(5):
            first_plane = "11" * n + "0" if n < 4 else "1" * 7
            head = len(first_plane) + n
            for budget in range(1, 9):
                for x in range(16 >> n):
                    emit = BC._Emitter()
                    BC.encode_block_planes(emit, [x << n, (1 << n) - 1], 4,
                                           head + budget, pad=False)
                    body, nbits = emit.pack()
                    bits = "".join(f"{b:08b}" for b in body)[:nbits]
                    assert bits[:head] == first_plane + "0" * n
                    entry = encode[n][x]
                    count = entry >> 8 & 15
                    tests = format(entry & 0xFF, f"0{count}b") if count else ""
                    assert bits[head:] == tests[:budget], (n, x, budget)
                    if count <= budget:
                        assert entry >> 12 == (n + x.bit_length() if x else n)
                for window in range(256):
                    stream = first_plane + "0" * n + f"{window:08b}"
                    reader = BC._BlockReader(int(stream, 2), len(stream))
                    words = BC.decode_block_planes(reader, 2, 4, head + budget)
                    found = words[0]
                    spent = reader.pos - head
                    entry = decode[n][window]
                    if (entry & 15) <= budget:
                        assert (entry & 15, entry >> 8) == (spent, found)
                        assert entry >> 4 & 15 == max(n, found.bit_length())
                    else:
                        assert spent == budget, (n, window, budget)
            assert all(decode[n][w] & 15 <= 7 for w in range(256))


#: The 2eb = 1 lattice: integer values prequantize exactly.
_CHOICE_EB = 0.5


def _choice_costs(blocks):
    """Per block ``(cost_l, cost_r + 32 (ndim + 1))`` as the numpy
    specification computes them (``compressors/sz/staged.py``)."""
    from repro.compressors.sz import predictor as P
    from repro.compressors.sz import quantizer as Q
    from repro.compressors.sz.staged import LATTICE_LIMIT

    ndim = blocks.ndim - 1
    cost_l = P.estimate_code_bits(
        P.lorenzo_residual(Q.prequantize(blocks, _CHOICE_EB)))
    pred = P.regression_predict(P.regression_fit(blocks), blocks.shape[1:])
    res = np.rint((blocks.astype(np.float64) - pred) / (2.0 * _CHOICE_EB))
    res = np.fmax(np.fmin(res, LATTICE_LIMIT), -LATTICE_LIMIT).astype(np.int64)
    return cost_l, P.estimate_code_bits(res) + 32.0 * (ndim + 1)


def _tie_block(ndim):
    """A slope-7 ramp on every axis with one interior spike of 1.  Every
    Lorenzo and regression residual magnitude is 2^k - 1 (cost term 2k + 1),
    so both costs are exact integers; the corner value is picked so that
    ``cost_r + 32 (ndim + 1) == cost_l`` with ``cost_r > size``: the tie is
    decided after the last block row, not by the skip."""
    idx = np.indices((6,) * ndim).sum(axis=0)
    block = 7.0 * idx
    block[(2,) * ndim] += 1.0
    cost_l, cost_r = _choice_costs(block[None])
    # An offset moves only the corner's Lorenzo residual (0, term 1) and
    # the fitted intercept.
    corner_term = cost_r[0] - (cost_l[0] - 1.0)
    return block + 2.0 ** ((corner_term - 1.0) / 2.0) - 1.0


@functools.lru_cache(maxsize=None)
def _choice_blocks(ndim, dtype):
    """``(blocks, cost_l, cost_r)``: the blocks of a pool of noisy ramps
    closest to the predictor decision on either side, an exact tie
    (2-D, 3-D), constant blocks (the skip path) and clean ramps."""
    rng = np.random.default_rng(ndim)
    pool = {1: 20000, 2: 10000, 3: 10000}[ndim]
    shape = (pool,) + (6,) * ndim
    axes = np.indices((6,) * ndim, dtype=np.float64)
    per_block = (pool,) + (1,) * ndim
    slopes = rng.uniform(-40.0, 40.0, (pool, ndim) + (1,) * ndim)
    ramps = (slopes * axes).sum(axis=1) + rng.uniform(-1e3, 1e3, per_block)
    # curvature favours Lorenzo, noise regression
    bowl = np.exp(rng.uniform(-5.0, 2.0, per_block)) * (axes**2).sum(axis=0)
    sigma = np.exp(rng.uniform(-3.0, 3.0, per_block))
    noisy = (ramps + bowl + sigma * rng.standard_normal(shape)).astype(dtype)
    cost_l, cost_r = _choice_costs(noisy)
    margin = cost_l - cost_r  # > 0: regression wins
    wins, loses = np.flatnonzero(margin > 0), np.flatnonzero(margin <= 0)
    near = np.concatenate([wins[np.argsort(margin[wins])[:40]],
                           loses[np.argsort(-margin[loses])[:40]]])
    extra = [np.full((6,) * ndim, v, dtype) for v in (0.0, 3.0, -250.5)]
    extra += [ramps[i].astype(dtype) for i in range(8)]
    if ndim > 1:
        extra.append(_tie_block(ndim).astype(dtype))
    blocks = np.concatenate([noisy[near], np.stack(extra)])
    return (blocks, *_choice_costs(blocks))


class TestSZChoiceBoundary:
    """The native ``sz.encode`` scores Lorenzo first, skips the regression
    fit when even a zero-residual fit would lose, and stops adding
    regression residual costs at the first block row whose partial sum
    loses.  Its choice must still be the full-sum one of the numpy
    specification on every block, at the decision boundary included."""

    @staticmethod
    def _field(ndim, dtype):
        """The boundary blocks side by side along axis 0, then a ragged
        edge on every axis (new edge-padded blocks; the others unchanged)."""
        blocks, cost_l, cost_r = _choice_blocks(ndim, dtype)
        field = np.concatenate(list(blocks), axis=0)
        ragged = np.pad(field, [(0, 1)] + [(0, 3)] * (ndim - 1), mode="reflect")
        return ragged, blocks.shape[0], cost_r < cost_l

    def test_pools_reach_the_boundary(self):
        for ndim in (1, 2, 3):
            blocks, cost_l, cost_r = _choice_blocks(ndim, np.float32)
            margin = cost_l - cost_r
            # within half a bit of the decision on either side
            assert 0 < margin[margin > 0].min() < 0.5, ndim
            assert -0.5 < margin[margin < 0].max(), ndim
            floor = 6**ndim + 32.0 * (ndim + 1)  # a zero-residual fit
            assert (cost_l <= floor).sum() >= 3  # the skip path
            assert (cost_r < cost_l)[-9 + (ndim == 1):].any()  # a ramp wins
            if ndim > 1:  # the tie, decided after the regression rows
                assert cost_l[-1] == cost_r[-1] > floor

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("radius", [1024, None])
    def test_native_matches_numpy(self, backend, ndim, dtype, radius):
        data, nblocks, reg_wins = self._field(ndim, dtype)
        ref = kernels.call("sz.encode", data, _CHOICE_EB, 6, "adaptive", radius,
                           backend=REFERENCE)
        got = kernels.call("sz.encode", data, _CHOICE_EB, 6, "adaptive", radius,
                           backend=backend)
        assert kernels.last_used()["sz.encode"] == backend
        for mine, theirs in zip(got[:5], ref[:5]):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        assert got[5] == ref[5]
        # block b of the unpadded grid is the b-th pool block
        grid = tuple(-(-s // 6) for s in data.shape)
        use_reg = ref[3].reshape(grid)[(slice(None),) + (0,) * (ndim - 1)]
        assert np.array_equal(use_reg[:nblocks], reg_wins)
        payloads = []
        for tier in (REFERENCE, backend):
            codec = SZCompressor(radius="auto" if radius is None else radius)
            with kernels.use(tier):
                payloads.append(codec.compress(data, error_bound=_CHOICE_EB).payload)
        assert payloads[0] == payloads[1]


def _sz_1d_fields(n, dtype):
    """1-D fields of length ``n`` on the 2eb = 1 lattice: noise over many
    magnitudes, a noisy ramp (regression wins), rint ties and their
    neighbours one ulp away, lattice indices past 2^51 (the quotient is
    rounded by rint, not by the 1.5 * 2^52 addition) and past 2^62 (the
    overflow guard's DataError)."""
    rng = np.random.default_rng(n)
    ties = (np.arange(n) - n // 2 + 0.5).astype(dtype)
    away = np.where(np.arange(n) % 2, np.inf, -np.inf).astype(dtype)
    return {
        "noise": rng.standard_normal(n) * np.exp(rng.uniform(-4.0, 8.0, n)),
        "ramp": 7.0 * np.arange(n) + 0.3 * rng.standard_normal(n),
        "ties": ties,
        "near ties": np.nextafter(ties, away),
        "huge": rng.uniform(-1.0, 1.0, n) * 2.0 ** rng.uniform(48.0, 61.0, n),
        "overflow": np.full(n, -(2.0**63)),
    }


class TestSZOneDimensional:
    """The native ``sz.encode`` has a body of its own for 1-D fields (a
    clamped contiguous gather, the Lorenzo residual one running difference
    taken with the prequantization).  Every length up to two blocks plus
    one (each remainder mod 6, fields shorter than a block), every
    predictor, a radius with escapes and the auto radius: the kernel's
    outputs and the codec's payload equal the numpy tier's, or both tiers
    raise the same error."""

    @staticmethod
    def _outcome(backend, data, predictor, radius):
        with kernels.use(backend):
            try:
                return kernels.call("sz.encode", data, _CHOICE_EB, 6, predictor,
                                    None if radius == "auto" else radius)
            except Exception as exc:  # compared across tiers, never swallowed
                return type(exc), str(exc)

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    @pytest.mark.parametrize("predictor", ["adaptive", "lorenzo", "regression"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_native_matches_numpy(self, backend, predictor, dtype):
        for n in range(1, 14):
            for label, values in _sz_1d_fields(n, dtype).items():
                data = values.astype(dtype)
                for radius in (1024, 2, "auto"):
                    case = (n, label, radius)
                    ref = self._outcome(REFERENCE, data, predictor, radius)
                    got = self._outcome(backend, data, predictor, radius)
                    assert len(got) == len(ref), case
                    if isinstance(ref[0], type):
                        assert got == ref, case
                        continue
                    for mine, theirs in zip(got[:5], ref[:5]):
                        assert mine.dtype == theirs.dtype, case
                        assert np.array_equal(mine, theirs), case
                    assert got[5] == ref[5], case
                    payloads = [_sz_outcome(tier, data, "abs", _CHOICE_EB,
                                            predictor, radius)[0]
                                for tier in (REFERENCE, backend)]
                    assert payloads[1] == payloads[0], case
        assert kernels.last_used()["sz.encode"] == backend


class TestPackEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grouped_pack_matches_ragged(self, numpy_mode, seed):
        enable, disable = numpy_mode
        rng = np.random.default_rng(seed)
        n = 4096
        lengths = rng.integers(0, 17, size=n).astype(np.int64)
        codes = rng.integers(0, 1 << 16, size=n, dtype=np.uint64) & (
            (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1)
        )

        disable()
        fast = pack_varlen_codes(codes, lengths)
        enable()
        ragged = pack_varlen_codes(codes, lengths)
        assert fast == ragged

    def test_long_and_zero_length_codes(self, numpy_mode):
        _, disable = numpy_mode
        disable()
        codes = np.array([(1 << 57) - 1, 5, 0], dtype=np.uint64)
        lengths = np.array([57, 3, 0], dtype=np.int64)
        payload, nbits = pack_varlen_codes(codes, lengths)
        assert nbits == 60
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[:60]
        assert bits[:57].all()          # 57 one-bits
        assert list(bits[57:]) == [1, 0, 1]
