"""Tests for the analysis layer: RD curves, pk/halo sweeps, optimizer,
throughput studies."""

import numpy as np
import pytest

from repro.analysis import (
    breakdown_study,
    cpu_gpu_comparison,
    gpu_comparison_study,
    halo_ratio_sweep,
    pk_ratio_sweep,
    rate_distortion_curve,
    select_best_fit,
    throughput_vs_rate_study,
)
from repro.analysis.optimizer import ConfigCandidate
from repro.compressors import SZCompressor, ZFPCompressor
from repro.errors import AnalysisError, DataError


class TestRateDistortion:
    def test_curve_sorted_by_bitrate(self, smooth_field3d):
        pts = rate_distortion_curve(
            ZFPCompressor(), smooth_field3d, "rate", [8, 2, 4], "fixed_rate"
        )
        assert [p.bitrate for p in pts] == sorted(p.bitrate for p in pts)

    def test_psnr_increases_with_bitrate(self, smooth_field3d):
        pts = rate_distortion_curve(
            ZFPCompressor(), smooth_field3d, "rate", [1, 4, 16], "fixed_rate"
        )
        psnrs = [p.psnr for p in pts]
        assert psnrs == sorted(psnrs)

    def test_sz_curve(self, smooth_field3d):
        pts = rate_distortion_curve(
            SZCompressor(), smooth_field3d, "error_bound", [1e-1, 1e-3], "abs"
        )
        assert pts[0].psnr < pts[1].psnr

    def test_empty_values_raise(self, smooth_field3d):
        with pytest.raises(DataError):
            rate_distortion_curve(ZFPCompressor(), smooth_field3d, "rate", [], "fixed_rate")


class TestPkRatioSweep:
    def test_tight_bound_acceptable(self, nyx_small):
        f = nyx_small.fields["dark_matter_density"]
        eb = float(np.std(f)) * 1e-4
        pts = pk_ratio_sweep(
            SZCompressor(), f, nyx_small.box_size, "error_bound", [eb], "abs"
        )
        assert pts[0].acceptable

    def test_loose_bound_unacceptable(self, nyx_small):
        f = nyx_small.fields["dark_matter_density"]
        eb = float(np.std(f)) * 2.0
        pts = pk_ratio_sweep(
            SZCompressor(), f, nyx_small.box_size, "error_bound", [eb], "abs"
        )
        assert not pts[0].acceptable

    def test_derive_hook(self, nyx_small):
        f = nyx_small.fields["velocity_z"]
        pts = pk_ratio_sweep(
            ZFPCompressor(), f, nyx_small.box_size, "rate", [16], "fixed_rate",
            derive=lambda a: np.abs(np.asarray(a, dtype=np.float64)),
        )
        assert np.all(np.isfinite(pts[0].ratio))


class TestHaloRatioSweep:
    def test_tight_bound_preserves_halos(self, hacc_small):
        pts = halo_ratio_sweep(
            SZCompressor(), hacc_small, "error_bound", [0.005], "abs", nbins=6
        )
        assert pts[0].max_ratio_deviation < 0.15

    def test_loose_bound_degrades(self, hacc_small):
        tight, loose = halo_ratio_sweep(
            SZCompressor(), hacc_small, "error_bound", [0.005, 2.0], "abs", nbins=6
        )
        assert loose.max_ratio_deviation > tight.max_ratio_deviation

    def test_bitrate_and_ratio_reported(self, hacc_small):
        pt = halo_ratio_sweep(
            SZCompressor(), hacc_small, "error_bound", [0.01], "abs", nbins=6
        )[0]
        assert pt.bitrate > 0 and pt.compression_ratio > 1


class TestOptimizer:
    def test_paper_guideline_picks_highest_acceptable_ratio(self):
        cands = [
            ConfigCandidate("f", "sz", "abs", 0.1, 20.0, False),  # too lossy
            ConfigCandidate("f", "sz", "abs", 0.01, 10.0, True),
            ConfigCandidate("f", "sz", "abs", 0.001, 5.0, True),
        ]
        best = select_best_fit(cands)
        assert best.per_field["f"].parameter == 0.01
        assert best.overall_compression_ratio == 10.0

    def test_overall_ratio_harmonic(self):
        cands = [
            ConfigCandidate("a", "sz", "abs", 1, 10.0, True),
            ConfigCandidate("b", "sz", "abs", 1, 5.0, True),
        ]
        best = select_best_fit(cands)
        # 2 fields of equal size: total = 2 / (1/10 + 1/5)
        assert best.overall_compression_ratio == pytest.approx(2 / 0.3)

    def test_no_acceptable_raises(self):
        with pytest.raises(AnalysisError):
            select_best_fit([ConfigCandidate("f", "sz", "abs", 1, 2.0, False)])

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            select_best_fit([])

    def test_parameters_view(self):
        cands = [
            ConfigCandidate("x", "zfp", "fixed_rate", 4.0, 8.0, True),
            ConfigCandidate("y", "zfp", "fixed_rate", 2.0, 16.0, True),
        ]
        assert select_best_fit(cands).parameters() == {"x": 4.0, "y": 2.0}


class TestThroughputStudies:
    N = 64**3

    def test_breakdown_rows_complete(self):
        rows = breakdown_study(self.N, [1, 4])
        assert len(rows) == 4  # 2 directions x 2 rates
        for r in rows:
            assert {"init_ms", "kernel_ms", "memcpy_ms", "free_ms"} <= set(r)
            assert r["total_ms"] == pytest.approx(
                r["init_ms"] + r["kernel_ms"] + r["memcpy_ms"] + r["free_ms"]
            )

    def test_gpu_comparison_covers_catalog(self):
        rows = gpu_comparison_study(self.N, 4)
        assert len(rows) == 7
        by_name = {r["gpu"]: r for r in rows}
        assert (
            by_name["Nvidia Tesla V100"]["compress_kernel_gbps"]
            > by_name["Nvidia Tesla K80"]["compress_kernel_gbps"]
        )

    def test_throughput_vs_rate_monotone(self):
        rows = throughput_vs_rate_study(self.N, [1, 2, 4, 8])
        kernel = [r["compress_kernel_gbps"] for r in rows]
        overall = [r["compress_overall_gbps"] for r in rows]
        assert kernel == sorted(kernel, reverse=True)
        assert overall == sorted(overall, reverse=True)

    def test_cpu_gpu_comparison_na_cell(self):
        rows = cpu_gpu_comparison(self.N, 3.0)
        zfp20 = next(r for r in rows if r["platform"] == "ZFP CPU 20-core")
        assert zfp20["decompress_gbps"] is None
        gpu = next(r for r in rows if "kernel" in r["platform"])
        cpu = next(r for r in rows if r["platform"] == "SZ CPU 20-core")
        assert gpu["compress_gbps"] > 10 * cpu["compress_gbps"]
