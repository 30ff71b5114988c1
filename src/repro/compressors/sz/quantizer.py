"""Linear-scaling quantization and escape-coded symbol mapping.

SZ quantizes prediction residuals into ``2R`` uniform bins of width
``2 * error_bound`` centered on the prediction.  Residuals outside the bin
range are "unpredictable": they get the reserved escape symbol 0 and their
exact integer value is stored in a raw outlier section (zigzag + fixed
width), matching SZ's unpredictable-data handling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CorruptStreamError, DataError
from repro.util.bits import pack_fixed_width, unpack_fixed_width

ESCAPE = 0  # reserved symbol for out-of-range residuals


def prequantize(data: np.ndarray, error_bound: float) -> np.ndarray:
    """Quantize values onto the lattice ``2*eb*Z`` (dual quantization step 1).

    ``rint`` guarantees ``|data - 2*eb*q| <= eb`` elementwise.
    """
    if error_bound <= 0 or not np.isfinite(error_bound):
        raise DataError(f"error bound must be a positive finite float, got {error_bound}")
    q = np.rint(data.astype(np.float64) / (2.0 * error_bound))
    if np.any(np.abs(q) > 2**62):
        raise DataError("error bound too small relative to data magnitude (int64 overflow)")
    return q.astype(np.int64)


def dequantize(q: np.ndarray, error_bound: float, dtype: np.dtype) -> np.ndarray:
    """Map lattice indices back to values (dual quantization inverse)."""
    return (q.astype(np.float64) * (2.0 * error_bound)).astype(dtype)


def residuals_to_symbols(residual: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Map integer residuals to Huffman symbols with escape coding.

    Returns ``(symbols, outliers)``: symbols are in ``[0, 2*radius)`` with
    0 = escape; ``outliers`` lists the escaped residuals in scan order.
    In range means ``-radius < r < radius`` (two comparisons, not
    ``abs``: ``abs`` of the most negative int64 wraps back to itself).
    """
    if radius < 2:
        raise DataError("quantization radius must be >= 2")
    flat = residual.ravel()
    inrange = (flat > -radius) & (flat < radius)
    symbols = np.where(inrange, flat + radius, ESCAPE).astype(np.int64)
    outliers = flat[~inrange]
    return symbols, outliers


def auto_radius(residual: np.ndarray) -> int:
    """Pick the quantization radius from the residual distribution.

    SZ's "optimized quantization intervals": the radius covers the
    99.9th percentile of |residual| (so almost nothing escape-codes)
    rounded up to a power of two, clamped to the 16-bit-table limit.
    """
    mags = np.abs(residual)
    if mags.size == 0:
        return 2
    p999 = float(np.percentile(mags, 99.9))
    radius = 1 << max(1, int(np.ceil(np.log2(p999 + 2))))
    return int(min(max(radius, 2), 32768))


def symbols_to_residuals(symbols: np.ndarray, outliers: np.ndarray, radius: int) -> np.ndarray:
    """Inverse of :func:`residuals_to_symbols`."""
    symbols = np.asarray(symbols, dtype=np.int64)
    residual = symbols - radius
    escaped = np.flatnonzero(symbols == ESCAPE)
    if escaped.size != outliers.size:
        raise CorruptStreamError(
            f"outlier count mismatch: {escaped.size} escapes vs {outliers.size} stored"
        )
    residual[escaped] = outliers
    return residual


@dataclass(frozen=True)
class OutlierSection:
    """Serialized raw outliers: zigzag-mapped, fixed-width bit-packed."""

    payload: bytes
    count: int
    width: int

    @classmethod
    def encode(cls, outliers: np.ndarray) -> "OutlierSection":
        outliers = np.asarray(outliers, dtype=np.int64)
        if outliers.size == 0:
            return cls(payload=b"", count=0, width=0)
        zz = _zigzag(outliers)
        width = max(1, int(zz.max()).bit_length())
        if width > 57:
            raise DataError("outlier magnitude exceeds 57-bit packing limit")
        return cls(payload=pack_fixed_width(zz, width), count=outliers.size, width=width)

    def decode(self) -> np.ndarray:
        if self.count == 0:
            return np.zeros(0, dtype=np.int64)
        zz = unpack_fixed_width(self.payload, self.width, self.count)
        return _unzigzag(zz)


def _zigzag(v: np.ndarray) -> np.ndarray:
    """Map signed ints to unsigned: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    v = v.astype(np.int64)
    return (np.abs(v) * 2 - (v < 0)).astype(np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    u = u.astype(np.uint64)
    mag = ((u + np.uint64(1)) // np.uint64(2)).astype(np.int64)
    sign = np.where((u % np.uint64(2)) == 1, -1, 1)
    return mag * sign
