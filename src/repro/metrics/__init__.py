"""Evaluation metrics (Section III of the paper).

Metric 1 (compression ratio / bitrate) is a property of every
:class:`~repro.compressors.base.CompressedBuffer`.
Metric 2 (distortion: PSNR and friends): :mod:`repro.metrics.error`.
Metric 3 (cosmology-specific) lives in :mod:`repro.cosmo` and
:mod:`repro.analysis`.  Metric 4 (throughput) lives in :mod:`repro.gpu`.
"""

from repro.metrics.error import (
    max_abs_error,
    max_pointwise_relative_error,
    mean_relative_error,
    mse,
    nrmse,
    psnr,
    evaluate_distortion,
)
from repro.metrics.distribution import ErrorDistribution, error_distribution
from repro.metrics.ssim import ssim3d
from repro.metrics.streaming import StreamingDistortion, StreamingHistogram

__all__ = [
    "StreamingDistortion",
    "StreamingHistogram",
    "max_abs_error",
    "max_pointwise_relative_error",
    "mean_relative_error",
    "mse",
    "nrmse",
    "psnr",
    "evaluate_distortion",
    "ssim3d",
    "ErrorDistribution",
    "error_distribution",
]
