"""Tests for RD-line modeling and the experiments CLI."""

import pytest

from repro.analysis.rate_distortion import RDPoint, rate_distortion_curve
from repro.analysis.rd_model import (
    DB_PER_BIT_THEORY,
    departure_bitrate,
    fit_rd_line,
)
from repro.compressors import ZFPCompressor
from repro.errors import AnalysisError
from repro.experiments.__main__ import main as experiments_main


class TestRDModel:
    def test_zfp_slope_matches_theory(self, nyx_small):
        pts = rate_distortion_curve(
            ZFPCompressor(), nyx_small.fields["velocity_x"],
            "rate", [4, 6, 8, 12, 16], "fixed_rate",
        )
        fit = fit_rd_line(pts)
        assert fit.slope_db_per_bit == pytest.approx(DB_PER_BIT_THEORY, abs=0.5)
        assert fit.r_squared > 0.99

    def test_departure_detection_on_synthetic_curve(self):
        # Linear above 2 bits, collapsed below (the Fig. 4a shape).
        pts = [
            RDPoint(parameter=0, bitrate=b,
                    compression_ratio=32 / b,
                    psnr=6.02 * b + 30 if b >= 2 else 6.02 * b + 10)
            for b in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        fit = fit_rd_line(pts, min_bitrate=2.0)
        dep = departure_bitrate(pts, fit, tolerance_db=6.0)
        assert dep == 1.0

    def test_no_departure_on_clean_line(self):
        pts = [
            RDPoint(parameter=0, bitrate=b, compression_ratio=32 / b,
                    psnr=6.0 * b + 30)
            for b in (1.0, 2.0, 4.0)
        ]
        fit = fit_rd_line(pts)
        assert departure_bitrate(pts, fit) is None

    def test_too_few_points_raises(self):
        with pytest.raises(AnalysisError):
            fit_rd_line([RDPoint(0, 1.0, 32.0, 40.0)])


class TestExperimentsCLI:
    def test_runs_selected(self, capsys):
        assert experiments_main(["--profile", "small", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Tesla V100" in out

    def test_bad_choice_exits(self):
        with pytest.raises(SystemExit):
            experiments_main(["fig99"])
