"""Tests for the ZFP fixed-precision / fixed-accuracy extension modes."""

import numpy as np
import pytest

from repro.compressors import CompressorMode, CuZFP, ZFPCompressor
from repro.errors import DataError, UnsupportedModeError


@pytest.fixture(scope="module")
def zfp():
    return ZFPCompressor()


class TestFixedPrecision:
    def test_round_trip(self, zfp, smooth_field3d):
        buf = zfp.compress(smooth_field3d, precision=16)
        recon = zfp.decompress(buf)
        assert recon.shape == smooth_field3d.shape
        assert buf.mode is CompressorMode.FIXED_PRECISION

    def test_more_precision_less_error(self, zfp, smooth_field3d):
        errs = []
        for p in (6, 12, 20, 28):
            recon = zfp.decompress(zfp.compress(smooth_field3d, precision=p))
            errs.append(np.abs(recon.astype(np.float64) - smooth_field3d).max())
        assert errs == sorted(errs, reverse=True)

    def test_variable_rate_adapts_to_content(self, zfp):
        # A smooth field needs fewer bits than noise at equal precision.
        rng = np.random.default_rng(0)
        smooth = np.linspace(0, 1, 4096).reshape(16, 16, 16).astype(np.float32)
        noise = rng.standard_normal((16, 16, 16)).astype(np.float32)
        b_smooth = zfp.compress(smooth, precision=16)
        b_noise = zfp.compress(noise, precision=16)
        assert b_smooth.compressed_nbytes < b_noise.compressed_nbytes

    def test_precision_bounds_validated(self, zfp, smooth_field3d):
        with pytest.raises(DataError):
            zfp.compress(smooth_field3d, precision=0)
        with pytest.raises(DataError):
            zfp.compress(smooth_field3d, precision=99)


class TestFixedAccuracy:
    @pytest.mark.parametrize("tol", [1e-1, 1e-2, 1e-3])
    def test_tolerance_honored(self, zfp, smooth_field3d, tol):
        recon = zfp.decompress(zfp.compress(smooth_field3d, tolerance=tol))
        err = np.abs(recon.astype(np.float64) - smooth_field3d.astype(np.float64)).max()
        assert err <= tol

    def test_tolerance_honored_on_wild_dynamic_range(self, zfp):
        data = np.zeros((8, 4, 4), dtype=np.float32)
        data[:4] = 1e-3
        data[4:] = 1e5
        recon = zfp.decompress(zfp.compress(data, tolerance=1.0))
        assert np.abs(recon - data).max() <= 1.0

    def test_looser_tolerance_higher_ratio(self, zfp, smooth_field3d):
        ratios = [
            zfp.compress(smooth_field3d, tolerance=t).compression_ratio
            for t in (1e-4, 1e-2, 1e-1)
        ]
        assert ratios == sorted(ratios)

    def test_invalid_tolerance_rejected(self, zfp, smooth_field3d):
        with pytest.raises(DataError):
            zfp.compress(smooth_field3d, tolerance=0.0)
        with pytest.raises(DataError):
            zfp.compress(smooth_field3d, tolerance=float("nan"))

    def test_2d_and_1d_accuracy(self, zfp, smooth_field3d):
        for data in (smooth_field3d[0], np.ascontiguousarray(smooth_field3d[0, 0])):
            recon = zfp.decompress(zfp.compress(data, tolerance=1e-2))
            assert np.abs(recon.astype(np.float64) - data).max() <= 1e-2


class TestKnobValidation:
    """A knob no block can code is the caller's ``DataError``, raised
    before any kernel runs — never a ``ValueError``/``OverflowError`` from
    the rounding, and never a ``MemoryError`` inside ``zfp.encode`` that
    the kernel registry takes for a broken tier and trips to numpy for
    the rest of the process."""

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf"),
                                      1e5, 1e308, -1e308, "fast"])
    def test_bad_rate_rejected(self, zfp, rate):
        from repro import kernels

        before = kernels.REGISTRY.tripped()
        with pytest.raises(DataError, match="rate"):
            zfp.compress(np.zeros(64, dtype=np.float32), rate=rate)
        assert kernels.REGISTRY.tripped() == before

    @pytest.mark.parametrize("shape,dtype,most", [
        ((9,), np.float32, 13 + 32 * 9),
        ((5, 6), np.float64, 13 + 52 * 33),
        ((4, 4, 5), np.float32, 13 + 32 * 129),
    ])
    def test_rate_ends_where_a_block_cannot_code_more(self, zfp, shape, dtype, most):
        """The top rate is the most bits a block can ever code: the header
        and, per plane, every value bit, every group test and the closing
        test.  One bit per block more is rejected."""
        data = np.random.default_rng(2).standard_normal(shape).astype(dtype)
        size = 4 ** len(shape)
        buf = zfp.compress(data, rate=most / size)
        assert buf.meta["maxbits_per_block"] == most
        assert np.abs(zfp.decompress(buf) - data).max() < 1e-6
        with pytest.raises(DataError, match="out of range"):
            zfp.compress(data, rate=(most + 1) / size)

    def test_precision_must_be_integral(self, zfp, smooth_field3d):
        for precision in (1.5, float("nan"), "twelve"):
            with pytest.raises(DataError, match="precision"):
                zfp.compress(smooth_field3d, precision=precision)
        # an integral float, as a wire request carries it, is fine
        assert (zfp.compress(smooth_field3d, precision=12.0).payload
                == zfp.compress(smooth_field3d, precision=12).payload)


class TestModeResolution:
    def test_knob_implies_mode(self, zfp, smooth_field3d):
        assert zfp.compress(smooth_field3d, rate=4).mode is CompressorMode.FIXED_RATE
        assert (
            zfp.compress(smooth_field3d, precision=12).mode
            is CompressorMode.FIXED_PRECISION
        )
        assert (
            zfp.compress(smooth_field3d, tolerance=0.1).mode
            is CompressorMode.FIXED_ACCURACY
        )

    def test_multiple_knobs_rejected(self, zfp, smooth_field3d):
        with pytest.raises(DataError):
            zfp.compress(smooth_field3d, rate=4, precision=12)

    def test_explicit_mode_requires_its_knob(self, zfp, smooth_field3d):
        with pytest.raises(DataError):
            zfp.compress(smooth_field3d, rate=4, mode="fixed_accuracy")

    def test_cuzfp_remains_fixed_rate_only(self, smooth_field3d):
        cu = CuZFP()
        with pytest.raises(UnsupportedModeError):
            cu.compress(smooth_field3d, tolerance=0.1)
        with pytest.raises(UnsupportedModeError):
            cu.compress(smooth_field3d, precision=12)
        assert cu.compress(smooth_field3d, rate=4).compression_ratio > 1


class TestSZPredictorOption:
    def test_forced_predictors_honor_bound(self, smooth_field3d):
        from repro.compressors import SZCompressor

        tol = float(np.spacing(np.abs(smooth_field3d).max()))
        for predictor in ("lorenzo", "regression", "adaptive"):
            sz = SZCompressor(predictor=predictor)
            recon = sz.decompress(sz.compress(smooth_field3d, error_bound=1e-2))
            err = np.abs(recon.astype(np.float64) - smooth_field3d).max()
            assert err <= 1e-2 + tol, predictor

    def test_forced_fractions(self, smooth_field3d):
        from repro.compressors import SZCompressor

        lor = SZCompressor(predictor="lorenzo").compress(smooth_field3d, error_bound=1e-2)
        reg = SZCompressor(predictor="regression").compress(smooth_field3d, error_bound=1e-2)
        assert lor.meta["predictor_regression_fraction"] == 0.0
        assert reg.meta["predictor_regression_fraction"] == 1.0

    def test_unknown_predictor_rejected(self):
        from repro.compressors import SZCompressor
        from repro.errors import DataError

        with pytest.raises(DataError):
            SZCompressor(predictor="spline")
