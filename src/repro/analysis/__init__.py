"""Evaluation-level analyses composing compressors, cosmology metrics and
the GPU model into the paper's experiments."""

from repro.analysis.autotune import (
    search_error_bound_for_ratio,
    search_max_acceptable_bound,
)
from repro.analysis.decimation_study import decimation_vs_compression
from repro.analysis.drift import drift_curve, halo_mass_proxy, snapshot_drift
from repro.analysis.halo_ratio import HaloRatioPoint, halo_ratio_sweep
from repro.analysis.rd_model import (
    DB_PER_BIT_THEORY,
    RDLineFit,
    departure_bitrate,
    fit_rd_line,
)
from repro.analysis.optimizer import (
    BestFitResult,
    ConfigCandidate,
    select_best_fit,
)
from repro.analysis.pk_ratio import PkRatioPoint, pk_ratio_sweep
from repro.analysis.rate_distortion import RDPoint, rate_distortion_curve
from repro.analysis.throughput import (
    breakdown_study,
    cpu_gpu_comparison,
    gpu_comparison_study,
    throughput_vs_rate_study,
)

__all__ = [
    "search_error_bound_for_ratio",
    "search_max_acceptable_bound",
    "decimation_vs_compression",
    "drift_curve",
    "halo_mass_proxy",
    "snapshot_drift",
    "DB_PER_BIT_THEORY",
    "RDLineFit",
    "fit_rd_line",
    "departure_bitrate",
    "RDPoint",
    "rate_distortion_curve",
    "PkRatioPoint",
    "pk_ratio_sweep",
    "HaloRatioPoint",
    "halo_ratio_sweep",
    "ConfigCandidate",
    "BestFitResult",
    "select_best_fit",
    "breakdown_study",
    "cpu_gpu_comparison",
    "gpu_comparison_study",
    "throughput_vs_rate_study",
]
