"""Power-spectrum-ratio sweeps on grid fields (Fig. 5).

For each compression configuration, compare P(k) of the reconstructed
field to the original's; a configuration is *acceptable* when every bin
falls within the paper's ``1 +/- 1%`` band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.compressors.base import Compressor
from repro.cosmo.power_spectrum import (
    PowerSpectrumResult,
    power_spectrum,
    power_spectrum_ratio,
    ratio_within_band,
)
from repro.errors import DataError


@dataclass(frozen=True)
class PkRatioPoint:
    """Spectrum ratio of one configuration on one (derived) field."""

    parameter: float
    bitrate: float
    compression_ratio: float
    k: np.ndarray
    ratio: np.ndarray
    acceptable: bool


def pk_ratio_sweep(
    compressor: Compressor,
    data: np.ndarray,
    box_size: float,
    knob: str,
    values: Sequence[float],
    mode: str,
    nbins: int = 16,
    tolerance: float = 0.01,
    derive: Callable[[np.ndarray], np.ndarray] | None = None,
    **extra,
) -> list[PkRatioPoint]:
    """Sweep configurations and measure pk ratios.

    ``derive`` maps the raw field to the quantity whose spectrum is
    analyzed — identity for plain fields, or a composite (overall
    density, velocity magnitude) computed from the reconstruction.
    """
    if not values:
        raise DataError("need at least one knob value")
    fn = derive or (lambda a: np.asarray(a, dtype=np.float64))
    reference: PowerSpectrumResult = power_spectrum(fn(data), box_size, nbins=nbins)
    out = []
    for v in values:
        buf = compressor.compress(data, **{"mode": mode, knob: float(v), **extra})
        recon = compressor.decompress(buf)
        spec = power_spectrum(fn(recon), box_size, nbins=nbins)
        ratio = power_spectrum_ratio(reference, spec)
        out.append(
            PkRatioPoint(
                parameter=float(v),
                bitrate=buf.bitrate,
                compression_ratio=buf.compression_ratio,
                k=reference.k,
                ratio=ratio,
                acceptable=ratio_within_band(ratio, tolerance),
            )
        )
    return out
