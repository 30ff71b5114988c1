"""Point-wise-relative error bounds via logarithmic transform.

GPU-SZ only supports absolute error bounds (ABS), but the paper needs
point-wise relative bounds (PW_REL) for the HACC velocity fields.  Following
Liang et al. (CLUSTER 2018), a PW_REL bound ``r`` on ``x`` is equivalent to
an ABS bound on ``log|x|``:

    |x' - x| <= r * |x|   <=>   |ln x' - ln x| <= ln(1 + r)   (x > 0)

Signs are carried separately, and exact zeros are preserved losslessly via a
mask, so the transform is a bijection on the non-zero values.  Compressing
``ln|x|`` with ABS bound ``ln(1 + r)`` then exponentiating back yields a
reconstruction within the requested point-wise relative bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataError
from repro.util.validation import check_positive


def pwrel_to_abs_bound(pwrel: float) -> float:
    """Absolute bound on ``ln|x|`` equivalent to a PW_REL bound ``pwrel``.

    With ``|ln x' - ln x| <= b`` the multiplicative error is within
    ``[e^-b, e^b]``; the binding side is the upper one, so ``b = ln(1+r)``
    guarantees both ``x' - x <= r x`` and ``x - x' <= x (1 - 1/(1+r)) <= r x``.
    """
    check_positive(pwrel, "pwrel")
    if pwrel >= 1.0:
        raise DataError("PW_REL bound must be < 1 for the log transform")
    return float(np.log1p(pwrel))


@dataclass
class LogTransform:
    """Forward/backward log transform with sign and zero bookkeeping.

    The state is what an SZ PW_REL stream stores beside the compressed
    log-magnitudes.  ``np.log`` and ``np.exp`` are numpy's on purpose:
    libm's differ from them in the last bit for some arguments, and the
    pinned streams and reconstructions were made with numpy's.

    Attributes
    ----------
    neg_bits:
        ``x < 0`` of every input value in C order, bit-packed MSB first
        (``np.packbits(..., bitorder="big")``).
    zeros:
        Flat (C-order) indices of the exact zeros, int64.
    shape:
        Shape of the transformed array.
    """

    neg_bits: np.ndarray
    zeros: np.ndarray
    shape: tuple[int, ...]

    @classmethod
    def forward(cls, data: np.ndarray) -> tuple[np.ndarray, "LogTransform"]:
        """Return ``ln|data|`` (zeros mapped to 0.0) and the transform state."""
        data = np.asarray(data)
        flat = data.ravel()
        neg_bits = np.packbits(flat < 0, bitorder="big")
        zeros = np.flatnonzero(flat == 0)
        mag = np.abs(data, dtype=np.float64, order="C")
        mag.ravel()[zeros] = 1.0  # ln 1 = 0
        np.log(mag, out=mag)
        return mag, cls(neg_bits=neg_bits, zeros=zeros, shape=data.shape)

    def backward(self, logmag: np.ndarray, dtype=np.float64) -> np.ndarray:
        """Invert into ``dtype``: exponentiate, clamp to the largest finite
        ``dtype`` value, cast, reapply signs, restore zeros exactly.

        The clamp keeps the bound where exp overshoots the type's range:
        with ``|x| <= max < recon``, ``|max - x| < |recon - x|``.  The
        sign goes in after the cast (rounding is symmetric), as one XOR
        of the sign bit over the narrower words.
        """
        if logmag.shape != tuple(self.shape):
            raise DataError("log-magnitude shape does not match stored signs")
        with np.errstate(over="ignore"):
            mag = np.exp(np.ascontiguousarray(logmag, dtype=np.float64))
        np.minimum(mag, np.finfo(dtype).max, out=mag)
        out = mag.astype(dtype, copy=False)
        flat = out.reshape(-1)
        words = flat.view(f"u{out.itemsize}")
        neg = np.unpackbits(self.neg_bits, count=flat.size, bitorder="big")
        words ^= neg.astype(words.dtype) << words.dtype.type(8 * out.itemsize - 1)
        flat[self.zeros] = 0.0
        return out
