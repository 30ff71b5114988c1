"""Integration-level tests for the SZ compressor."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import ulp_tolerance
from repro import kernels
from repro.compressors import GPUSZ, CompressorMode, SZCompressor
from repro.errors import CorruptStreamError, DataError, UnsupportedModeError
from test_fastpath_equivalence import BACKENDS

GOLDEN = Path(__file__).resolve().parent / "golden" / "sz"
GOLDEN_SZ = json.loads((GOLDEN / "manifest.json").read_text())


@pytest.fixture(scope="module")
def sz():
    return SZCompressor()


class TestABSMode:
    @pytest.mark.parametrize("eb", [1e-1, 1e-2, 1e-3])
    def test_error_bound_honored_3d(self, sz, smooth_field3d, eb):
        buf = sz.compress(smooth_field3d, error_bound=eb)
        recon = sz.decompress(buf)
        err = np.abs(recon.astype(np.float64) - smooth_field3d.astype(np.float64)).max()
        assert err <= eb + ulp_tolerance(smooth_field3d)

    def test_error_bound_honored_1d(self, sz):
        rng = np.random.default_rng(0)
        data = (rng.standard_normal(5000) * 100).astype(np.float32)
        buf = sz.compress(data, error_bound=0.5)
        recon = sz.decompress(buf)
        assert np.abs(recon - data).max() <= 0.5 + ulp_tolerance(data)

    def test_error_bound_honored_2d(self, sz, smooth_field3d):
        data = smooth_field3d[0]
        buf = sz.compress(data, error_bound=1e-2)
        recon = sz.decompress(buf)
        assert np.abs(recon - data).max() <= 1e-2 + ulp_tolerance(data)

    def test_float64_input(self, sz, smooth_field3d):
        data = smooth_field3d.astype(np.float64)
        buf = sz.compress(data, error_bound=1e-6)
        recon = sz.decompress(buf)
        assert recon.dtype == np.float64
        assert np.abs(recon - data).max() <= 1e-6 * (1 + 1e-9)

    def test_smooth_compresses_better_than_noise(self, sz, smooth_field3d, rough_field3d):
        b1 = sz.compress(smooth_field3d, error_bound=1e-2)
        b2 = sz.compress(rough_field3d, error_bound=1e-2)
        assert b1.compression_ratio > b2.compression_ratio

    def test_looser_bound_higher_ratio(self, sz, smooth_field3d):
        ratios = [
            sz.compress(smooth_field3d, error_bound=eb).compression_ratio
            for eb in (1e-3, 1e-2, 1e-1)
        ]
        assert ratios == sorted(ratios)

    def test_constant_field_compresses_hugely(self, sz):
        data = np.full((24, 24, 24), 3.25, dtype=np.float32)
        buf = sz.compress(data, error_bound=1e-4)
        # ~1-2 bits/value from Huffman alone (the per-block DC corners are
        # escape-coded outliers); the LZSS stage pushes far beyond.
        assert buf.compression_ratio > 15
        assert np.abs(sz.decompress(buf) - data).max() <= 1e-4 + ulp_tolerance(data)
        with_dict = SZCompressor(lossless=["lzss"]).compress(data, error_bound=1e-4)
        assert with_dict.compression_ratio > 100

    def test_shape_not_multiple_of_block(self, sz):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((13, 17, 11)).astype(np.float32)
        buf = sz.compress(data, error_bound=1e-2)
        recon = sz.decompress(buf)
        assert recon.shape == data.shape
        assert np.abs(recon - data).max() <= 1e-2 + ulp_tolerance(data)

    def test_extreme_magnitudes(self, sz):
        data = (np.linspace(-1e8, 1e8, 4096).reshape(16, 16, 16)).astype(np.float32)
        buf = sz.compress(data, error_bound=10.0)
        assert np.abs(sz.decompress(buf).astype(np.float64) - data).max() <= 10.0 + ulp_tolerance(data)

    def test_buffer_metadata(self, sz, smooth_field3d):
        buf = sz.compress(smooth_field3d, error_bound=1e-2)
        assert buf.original_shape == smooth_field3d.shape
        assert buf.original_dtype == np.float32
        assert buf.mode is CompressorMode.ABS
        assert buf.parameter == 1e-2
        assert 0.0 <= buf.meta["predictor_regression_fraction"] <= 1.0
        assert buf.bitrate == pytest.approx(
            8 * buf.compressed_nbytes / smooth_field3d.size
        )


class TestPWRELMode:
    def test_pointwise_relative_bound(self, sz):
        rng = np.random.default_rng(0)
        data = (rng.standard_normal(20000) * 3000).astype(np.float32)
        buf = sz.compress(data, pwrel=0.01, mode="pw_rel")
        recon = sz.decompress(buf)
        nz = data != 0
        rel = np.abs((recon[nz].astype(np.float64) - data[nz]) / data[nz])
        assert rel.max() <= 0.01 * (1 + 1e-5)

    def test_zeros_preserved_exactly(self, sz):
        data = np.array([0.0, 1.0, -2.0, 0.0, 5.0] * 100, dtype=np.float32)
        buf = sz.compress(data, pwrel=0.1, mode="pw_rel")
        recon = sz.decompress(buf)
        assert np.all(recon[data == 0] == 0)

    def test_signs_preserved(self, sz):
        rng = np.random.default_rng(1)
        data = (rng.standard_normal(5000) * 100).astype(np.float32)
        recon = sz.decompress(sz.compress(data, pwrel=0.05, mode="pw_rel"))
        assert np.array_equal(np.sign(recon), np.sign(data))

    def test_missing_pwrel_raises(self, sz, smooth_field3d):
        with pytest.raises(DataError):
            sz.compress(smooth_field3d, mode="pw_rel")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("pwrel", [0.1, 0.25, 0.9])
    def test_finite_and_bounded_near_float_max(self, sz, backend, dtype, pwrel):
        # exp of a log-magnitude within the bound can overshoot the
        # largest finite value (the quantization lattice of ln|x| has a
        # point above ln(max) at 0.1 and 0.9 for float64, at 0.25 for
        # float32); the reconstruction must stay finite
        rng = np.random.default_rng(4096)
        top = float(np.finfo(dtype).max)
        data = (rng.uniform(0.5, 1.0, 4096) * top).astype(dtype)
        data[1::3] *= -1
        with kernels.use(backend), warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow from exp or the cast
            recon = sz.decompress(sz.compress(data, pwrel=pwrel, mode="pw_rel"))
        assert np.isfinite(recon).all()
        assert np.array_equal(np.sign(recon), np.sign(data))
        x = data.astype(np.float64)
        err = np.abs(recon.astype(np.float64) - x)
        assert (err <= pwrel * np.abs(x) * (1 + 1e-5)).all()


class TestValidation:
    def test_nan_rejected(self, sz):
        data = np.array([1.0, np.nan, 2.0], dtype=np.float32)
        with pytest.raises(DataError):
            sz.compress(data, error_bound=0.1)

    def test_inf_rejected(self, sz):
        data = np.array([1.0, np.inf], dtype=np.float32)
        with pytest.raises(DataError):
            sz.compress(data, error_bound=0.1)

    def test_integer_dtype_rejected(self, sz):
        with pytest.raises(DataError):
            sz.compress(np.arange(100), error_bound=0.1)

    def test_missing_bound_raises(self, sz, smooth_field3d):
        with pytest.raises(DataError):
            sz.compress(smooth_field3d)

    @pytest.mark.parametrize("predictor", ["adaptive", "lorenzo", "regression"])
    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("inf"), float("nan")])
    def test_bad_error_bound_rejected_for_every_predictor(
        self, smooth_field3d, predictor, bad
    ):
        # The regression-only path never reached prequantize's check and
        # used to emit streams its own decoder refused.
        with pytest.raises(DataError, match="positive finite"):
            SZCompressor(predictor=predictor).compress(
                smooth_field3d, error_bound=bad
            )

    def test_unknown_mode_raises(self, sz, smooth_field3d):
        with pytest.raises(DataError):
            sz.compress(smooth_field3d, error_bound=1.0, mode="nonsense")

    def test_fixed_rate_unsupported(self, sz, smooth_field3d):
        with pytest.raises(UnsupportedModeError):
            sz.compress(smooth_field3d, error_bound=1.0, mode="fixed_rate")

    def test_bad_magic_raises(self, sz):
        with pytest.raises(CorruptStreamError):
            sz.decompress(b"JUNKJUNKJUNK" * 10)

    def test_constructor_validation(self):
        with pytest.raises(DataError):
            SZCompressor(block_side=1)
        with pytest.raises(DataError):
            SZCompressor(radius=1)
        with pytest.raises(DataError):
            SZCompressor(radius=10**6)

    def test_oversized_blocks_rejected_before_the_design_matrix(self):
        """More than 65536 cells per block is a DataError before any
        block-sized array exists: side 128 on a 2x2x2 field used to write
        a 278,692-byte stream at a 410 MiB peak (its design matrix and
        pseudo-inverse).  Decoding is not limited."""
        from repro.compressors.sz import GPUSZ
        from repro.compressors.sz.predictor import _design_matrix

        tiny = np.ones((2, 2, 2), np.float32)
        cached = _design_matrix.cache_info().currsize
        for side in (41, 128, 255):
            for kwargs in ({"error_bound": 0.1},
                           {"mode": "pw_rel", "pwrel": 0.1}):
                with pytest.raises(DataError, match="at most 65536"):
                    SZCompressor(block_side=side).compress(tiny, **kwargs)
            with pytest.raises(DataError, match="at most 65536"):
                GPUSZ(block_side=side).compress_pwrel_via_log(tiny, 0.1)
        assert _design_matrix.cache_info().currsize == cached
        # the largest blocks allowed: 40^3 = 64000 and 255^2 = 65025 cells
        for side, field in ((40, tiny), (255, np.ones((3, 2), np.float64)),
                            (255, np.ones(7, np.float32))):
            codec = SZCompressor(block_side=side)
            buf = codec.compress(field, error_bound=0.1)
            assert np.abs(codec.decompress(buf) - field).max() <= 0.1


class TestOptions:
    def test_lossless_pipeline_round_trip(self, smooth_field3d):
        sz = SZCompressor(lossless=["lzss"])
        buf = sz.compress(smooth_field3d, error_bound=1e-2)
        recon = sz.decompress(buf)
        assert np.abs(recon - smooth_field3d).max() <= 1e-2 + ulp_tolerance(smooth_field3d)

    def test_plain_decoder_reads_pipelined_stream(self, smooth_field3d):
        # Stream self-description: decoder configuration doesn't matter.
        buf = SZCompressor(lossless=["lzss"]).compress(smooth_field3d, error_bound=1e-2)
        recon = SZCompressor().decompress(buf)
        assert np.abs(recon - smooth_field3d).max() <= 1e-2 + ulp_tolerance(smooth_field3d)

    def test_lzss_stage_is_capped_before_it_expands(self):
        """A 42-byte LZSS stage that declares 4 MiB is refused before it
        allocates: its cap is the largest Huffman section the encoder
        writes for the stream's 216 symbols."""
        import struct
        import tracemalloc

        from repro.compressors.sz.szcompressor import _HDR_ABS
        from test_lossless_lzss import ZERO_BOMB

        codec = SZCompressor(lossless=["lzss"], predictor="lorenzo")
        stream = codec.compress(np.ones((2, 2, 2), np.float32), error_bound=0.1).payload
        header = list(struct.unpack_from(_HDR_ABS, stream))
        # shape (3 u64) and one predictor-flag byte; no regression blocks
        start = struct.calcsize(_HDR_ABS) + 8 * 3 + 1
        bomb = b"PIPE\x04\x00lzss" + ZERO_BOMB
        end, header[10] = start + header[10], len(bomb)
        crafted = (struct.pack(_HDR_ABS, *header)
                   + stream[struct.calcsize(_HDR_ABS):start] + bomb + stream[end:])
        tracemalloc.start()
        try:
            with pytest.raises(CorruptStreamError, match="LZSS stage declares 4194304"):
                SZCompressor().decompress(crafted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_custom_block_side(self, smooth_field3d):
        sz = SZCompressor(block_side=8)
        buf = sz.compress(smooth_field3d, error_bound=1e-2)
        assert np.abs(sz.decompress(buf) - smooth_field3d).max() <= 1e-2 + ulp_tolerance(smooth_field3d)

    def test_small_radius_forces_outliers(self, smooth_field3d):
        sz = SZCompressor(radius=4)
        buf = sz.compress(smooth_field3d, error_bound=1e-4)
        assert buf.meta["outlier_count"] > 0
        recon = sz.decompress(buf)
        assert np.abs(recon - smooth_field3d).max() <= 1e-4 + ulp_tolerance(smooth_field3d)

    def test_roundtrip_helper(self, sz, smooth_field3d):
        recon, buf = sz.roundtrip(smooth_field3d, error_bound=1e-2)
        assert recon.shape == smooth_field3d.shape
        assert buf.compression_ratio > 1


class TestRoundtrip:
    """``roundtrip`` decodes the encoder's own sections instead of the
    stream it just wrote; the result must be the stream's decode."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("row", GOLDEN_SZ, ids=lambda row: row["name"])
    def test_equals_decompress_of_compress_on_every_golden_input(self, row, backend):
        data = np.load(GOLDEN / f"{row['name']}.npz")["data"]
        codec = SZCompressor(**row["options"])
        knob = "pwrel" if row["mode"] == "pw_rel" else "error_bound"
        with kernels.use(backend):
            recon, buf = codec.roundtrip(data, mode=row["mode"], **{knob: row["value"]})
            again = codec.compress(data, mode=row["mode"], **{knob: row["value"]})
            decoded = codec.decompress(again)
        assert buf.payload == again.payload
        assert recon.dtype == decoded.dtype and recon.shape == decoded.shape
        assert recon.tobytes() == decoded.tobytes()

    def test_leaves_no_arrays_on_the_instance(self, smooth_field3d):
        codec = SZCompressor(lossless=["lzss"])
        before = {k: type(v) for k, v in vars(codec).items()}
        for kwargs in ({"error_bound": 1e-2}, {"mode": "pw_rel", "pwrel": 1e-2}):
            codec.roundtrip(smooth_field3d, **kwargs)
        assert {k: type(v) for k, v in vars(codec).items()} == before
        for part in (codec, codec.huffman, codec.pipeline):
            assert not any(isinstance(v, np.ndarray) for v in vars(part).values())

    def test_gpusz_roundtrip_keeps_its_restrictions(self):
        with pytest.raises(DataError, match="3-D"):
            GPUSZ().roundtrip(np.ones(64, dtype=np.float32), error_bound=0.1)
