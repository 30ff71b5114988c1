"""3-D structural similarity (SSIM).

The paper cites SSIM as the domain metric climate studies use ([20]); it
is included as the extension hook for applying this framework to other
sciences.  Implemented as the standard Wang et al. formula with a uniform
cubic window, computed via ``scipy.ndimage.uniform_filter`` so it scales
to full snapshots.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError


def ssim3d(
    original: np.ndarray,
    reconstructed: np.ndarray,
    window: int = 7,
    k1: float = 0.01,
    k2: float = 0.03,
) -> float:
    """Mean SSIM between two 3-D fields."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError("shape mismatch")
    if a.ndim != 3:
        raise DataError("ssim3d expects 3-D fields")
    if window < 3 or window % 2 == 0:
        raise DataError("window must be odd and >= 3")
    drange = float(a.max() - a.min())
    if drange == 0:
        return 1.0 if np.array_equal(a, b) else 0.0
    c1 = (k1 * drange) ** 2
    c2 = (k2 * drange) ** 2

    # Deferred: only SSIM callers pay for loading scipy.
    from scipy.ndimage import uniform_filter

    mu_a = uniform_filter(a, window)
    mu_b = uniform_filter(b, window)
    mu_a2 = mu_a * mu_a
    mu_b2 = mu_b * mu_b
    mu_ab = mu_a * mu_b
    sigma_a2 = uniform_filter(a * a, window) - mu_a2
    sigma_b2 = uniform_filter(b * b, window) - mu_b2
    sigma_ab = uniform_filter(a * b, window) - mu_ab

    num = (2 * mu_ab + c1) * (2 * sigma_ab + c2)
    den = (mu_a2 + mu_b2 + c1) * (sigma_a2 + sigma_b2 + c2)
    return float(np.mean(num / den))
