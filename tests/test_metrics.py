"""Tests for the general metrics (Section III, Metrics 1-2)."""

import numpy as np
import pytest

from repro.errors import DataError
from repro.metrics import (
    evaluate_distortion,
    max_abs_error,
    max_pointwise_relative_error,
    mean_relative_error,
    mse,
    nrmse,
    psnr,
    ssim3d,
)


class TestErrorMetrics:
    def test_identical_arrays(self):
        a = np.linspace(0, 1, 100)
        assert mse(a, a) == 0.0
        assert psnr(a, a) == float("inf")
        assert max_abs_error(a, a) == 0.0
        assert nrmse(a, a) == 0.0

    def test_known_mse(self):
        a = np.zeros(4)
        b = np.array([1.0, -1.0, 1.0, -1.0])
        assert mse(a, b) == 1.0

    def test_psnr_formula(self):
        a = np.array([0.0, 10.0])  # range 10
        b = a + 0.1
        expected = 10 * np.log10(10**2 / 0.01)
        assert psnr(a, b) == pytest.approx(expected)

    def test_psnr_6db_per_bit_scaling(self):
        # Halving the error adds ~6.02 dB.
        a = np.linspace(0, 1, 1000)
        rng = np.random.default_rng(0)
        noise = rng.uniform(-1, 1, 1000)
        p1 = psnr(a, a + 0.01 * noise)
        p2 = psnr(a, a + 0.005 * noise)
        assert p2 - p1 == pytest.approx(6.02, abs=0.1)

    def test_max_pw_rel_ignores_zeros(self):
        a = np.array([0.0, 2.0])
        b = np.array([5.0, 2.2])
        assert max_pointwise_relative_error(a, b) == pytest.approx(0.1)

    def test_mre_normalized_by_range(self):
        a = np.array([0.0, 100.0])
        b = a + 1.0
        assert mean_relative_error(a, b) == pytest.approx(0.01)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DataError):
            mse(np.zeros(3), np.zeros(4))

    def test_empty_raises(self):
        with pytest.raises(DataError):
            psnr(np.zeros(0), np.zeros(0))

    def test_evaluate_distortion_keys(self):
        a = np.linspace(0, 1, 50)
        d = evaluate_distortion(a, a + 1e-3)
        assert set(d) == {"mse", "psnr", "mre", "nrmse", "max_abs_error", "max_pw_rel_error"}
        assert all(np.isfinite(v) for v in d.values())


class TestSSIM:
    def test_identical_is_one(self, smooth_field3d):
        assert ssim3d(smooth_field3d, smooth_field3d) == pytest.approx(1.0)

    def test_noise_reduces_ssim(self, smooth_field3d):
        rng = np.random.default_rng(0)
        noisy = smooth_field3d + rng.standard_normal(smooth_field3d.shape).astype(np.float32)
        s = ssim3d(smooth_field3d, noisy)
        assert 0.0 < s < 0.9

    def test_monotone_in_noise(self, smooth_field3d):
        rng = np.random.default_rng(1)
        noise = rng.standard_normal(smooth_field3d.shape).astype(np.float32)
        s1 = ssim3d(smooth_field3d, smooth_field3d + 0.01 * noise)
        s2 = ssim3d(smooth_field3d, smooth_field3d + 0.1 * noise)
        assert s1 > s2

    def test_validation(self, smooth_field3d):
        with pytest.raises(DataError):
            ssim3d(smooth_field3d, smooth_field3d[:16])
        with pytest.raises(DataError):
            ssim3d(smooth_field3d[0], smooth_field3d[0])
        with pytest.raises(DataError):
            ssim3d(smooth_field3d, smooth_field3d, window=4)

    def test_constant_fields(self):
        a = np.full((8, 8, 8), 5.0)
        assert ssim3d(a, a) == 1.0
