"""Matter power spectrum estimation (the paper's Metric 3b).

``power_spectrum`` measures P(k) of a 3-D grid field by spherically
averaging ``V |delta_hat|^2 / N^6`` in logarithmic k bins;
``particle_power_spectrum`` first deposits particles with CIC (with the
standard CIC window deconvolution) and measures the density contrast.

``power_spectrum_ratio`` is the quantity plotted in Fig. 5: the ratio of
the reconstructed data's spectrum to the original's in matched bins —
the paper's acceptance band is ``1 +/- 1%``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cosmo.cic import cic_deposit, density_contrast
from repro.errors import AnalysisError, DataError
from repro.util.validation import check_positive, check_shape_nd


@dataclass(frozen=True)
class PowerSpectrumResult:
    """Binned spectrum: bin-center wavenumbers, P(k), and mode counts."""

    k: np.ndarray
    pk: np.ndarray
    counts: np.ndarray


def _k_grid(n: int, box_size: float) -> np.ndarray:
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=box_size / n)
    kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
    return np.sqrt(kx**2 + ky**2 + kz**2)


def power_spectrum(
    field: np.ndarray,
    box_size: float,
    nbins: int = 20,
    subtract_mean: bool = True,
    window_correction: np.ndarray | None = None,
) -> PowerSpectrumResult:
    """Spherically averaged P(k) of a cubic grid field."""
    field = np.asarray(field, dtype=np.float64)
    check_shape_nd(field, 3, "field")
    n = field.shape[0]
    if field.shape != (n, n, n):
        raise DataError("field must be cubic")
    check_positive(box_size, "box_size")
    volume = box_size**3

    data = field - field.mean() if subtract_mean else field
    fhat = np.fft.fftn(data)
    power = (np.abs(fhat) ** 2) * volume / n**6
    if window_correction is not None:
        power = power * window_correction

    kmag = _k_grid(n, box_size)
    k_min = 2.0 * np.pi / box_size
    k_max = np.pi * n / box_size  # Nyquist
    edges = np.geomspace(k_min * 0.999, k_max, nbins + 1)
    which = np.digitize(kmag.ravel(), edges) - 1
    valid = (which >= 0) & (which < nbins) & (kmag.ravel() > 0)
    counts = np.bincount(which[valid], minlength=nbins)
    psum = np.bincount(which[valid], weights=power.ravel()[valid], minlength=nbins)
    ksum = np.bincount(which[valid], weights=kmag.ravel()[valid], minlength=nbins)
    nonempty = counts > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        pk = np.where(nonempty, psum / np.maximum(counts, 1), np.nan)
        kc = np.where(nonempty, ksum / np.maximum(counts, 1), np.nan)
    return PowerSpectrumResult(k=kc[nonempty], pk=pk[nonempty], counts=counts[nonempty])


def _cic_window_correction(n: int) -> np.ndarray:
    """Inverse squared CIC assignment window, ``prod sinc^-4(k_i/2k_Ny)``."""
    w1 = np.sinc(np.fft.fftfreq(n))  # = sin(pi k / n) / (pi k / n)
    wx, wy, wz = np.meshgrid(w1, w1, w1, indexing="ij")
    w = (wx * wy * wz) ** 2
    return 1.0 / np.maximum(w**2, 1e-12)


def particle_power_spectrum(
    positions: np.ndarray,
    box_size: float,
    grid_size: int = 128,
    nbins: int = 20,
    deconvolve_window: bool = True,
) -> PowerSpectrumResult:
    """P(k) of a particle set via CIC deposition.

    Shot noise is *not* subtracted — the paper's pk-ratio metric divides
    two spectra of the same particle count, so shot noise cancels to first
    order.
    """
    grid = cic_deposit(positions, grid_size, box_size)
    delta = density_contrast(grid)
    corr = _cic_window_correction(grid_size) if deconvolve_window else None
    return power_spectrum(delta, box_size, nbins=nbins, window_correction=corr)


def power_spectrum_ratio(
    reference: PowerSpectrumResult, other: PowerSpectrumResult
) -> np.ndarray:
    """``other.pk / reference.pk`` in matched bins (Fig. 5's y axis)."""
    if reference.k.shape != other.k.shape or not np.allclose(
        reference.k, other.k, rtol=1e-6, equal_nan=True
    ):
        raise AnalysisError("power spectra were binned differently")
    with np.errstate(invalid="ignore", divide="ignore"):
        return other.pk / reference.pk


def ratio_within_band(ratio: np.ndarray, tolerance: float = 0.01) -> bool:
    """True when every binned ratio lies within ``1 +/- tolerance`` —
    the paper's acceptability criterion for a compression configuration."""
    finite = np.isfinite(ratio)
    if not finite.any():
        raise AnalysisError("no finite power-spectrum ratio bins")
    return bool(np.all(np.abs(ratio[finite] - 1.0) <= tolerance))
