"""Block predictors for the SZ compressor.

Both predictors operate on a dense batch of equal-size blocks with shape
``(nblocks, B, ..., B)`` and are fully vectorized across blocks.

Lorenzo (on the prequantized lattice)
    The d-dimensional Lorenzo residual of the quantized integers is the
    iterated first difference along every axis (with an implicit zero
    boundary), and its inverse is the iterated cumulative sum.  On the
    integer lattice this is exact, so prediction is lossless — the defining
    property of dual quantization.

Regression
    An affine model ``a0 + a1*i + a2*j + a3*k`` is fit per block by least
    squares (a product against a precomputed pseudo-inverse), coefficients
    are truncated to float32 (that is what gets stored), and residuals are
    computed against the *stored* coefficients so compressor and
    decompressor agree bit-for-bit.

These functions are the specification of the fused native kernel
(``repro_sz_encode`` / ``repro_sz_decode``), so every floating-point
expression here is written in an order C can repeat: explicit
left-to-right accumulation, never a BLAS product or ``np.sum``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.errors import DataError


def lorenzo_residual(q: np.ndarray) -> np.ndarray:
    """Iterated first difference of quantized blocks along all block axes."""
    res = q
    for axis in range(1, q.ndim):
        res = np.diff(res, axis=axis, prepend=0)
    return res


def lorenzo_reconstruct(residual: np.ndarray) -> np.ndarray:
    """Inverse of :func:`lorenzo_residual` (iterated cumulative sum)."""
    q = residual
    for axis in range(1, residual.ndim):
        q = np.cumsum(q, axis=axis)
    return q


@lru_cache(maxsize=16)
def _design_matrix(block_shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix ``X`` (centered coordinates + intercept), shape
    ``(block size, ndim + 1)``, and its pseudo-inverse, both C-contiguous
    and read-only (they are shared by every caller, including the native
    kernel, which is handed these very arrays rather than rebuilding them:
    ``pinv`` comes out of LAPACK and is not defined bit for bit)."""
    grids = np.meshgrid(
        *[np.arange(b, dtype=np.float64) - (b - 1) / 2.0 for b in block_shape],
        indexing="ij",
    )
    cols = [np.ones(int(np.prod(block_shape)))] + [g.ravel() for g in grids]
    x = np.ascontiguousarray(np.stack(cols, axis=1))
    pinv = np.ascontiguousarray(np.linalg.pinv(x))
    x.setflags(write=False)
    pinv.setflags(write=False)
    return x, pinv


def regression_fit(blocks: np.ndarray) -> np.ndarray:
    """Least-squares affine coefficients per block, stored as float32.

    Returns an array of shape ``(nblocks, ndim + 1)``.  Coefficient ``c``
    is ``sum_i value_i * pinv[c, i]`` accumulated left to right over the
    block's C-order elements from ``0.0``, every product and every sum
    rounded to float64 — an order the native kernel repeats exactly,
    which a BLAS matmul would not let it do.
    """
    if blocks.ndim < 2:
        raise DataError("blocks must have shape (nblocks, B, ...)")
    _, pinv = _design_matrix(blocks.shape[1:])
    flat = blocks.reshape(blocks.shape[0], -1).astype(np.float64)
    acc = np.zeros((flat.shape[0], pinv.shape[0]))
    for i in range(flat.shape[1]):
        acc += flat[:, i, None] * pinv[:, i]
    return acc.astype(np.float32)


def regression_predict(coefs: np.ndarray, block_shape: tuple[int, ...]) -> np.ndarray:
    """Evaluate stored (float32) coefficients on the block lattice:
    ``((c0*x0 + c1*x1) + c2*x2) + c3*x3`` per element, in that order."""
    x, _ = _design_matrix(tuple(block_shape))
    c = coefs.astype(np.float64)
    pred = c[:, 0, None] * x[:, 0]
    for k in range(1, x.shape[1]):
        pred += c[:, k, None] * x[:, k]
    return pred.reshape(coefs.shape[0], *block_shape)


#: Magnitudes below this take their cost term from :func:`cost_table`;
#: it covers every in-range residual of the largest radius (32768).
COST_TABLE_SIZE = 1 << 15


@lru_cache(maxsize=1)
def cost_table() -> np.ndarray:
    """``2*log2(1+m) + 1`` for ``m`` in ``[0, COST_TABLE_SIZE)``, read-only.

    Built once with numpy and handed to every tier (the native kernel
    included): ``np.log2`` and libm's ``log2`` disagree in the last bit
    for a few arguments, so no tier may recompute these terms itself.
    """
    table = 2.0 * np.log2(1.0 + np.arange(COST_TABLE_SIZE, dtype=np.float64)) + 1.0
    table.setflags(write=False)
    return table


def estimate_code_bits(residual: np.ndarray) -> np.ndarray:
    """Cheap per-block bit-cost proxy: ``sum(2*log2(1+|r|) + 1)``.

    This approximates the length of an Elias-gamma-like code for each
    residual and is what the adaptive predictor uses to pick the cheaper
    of Lorenzo and regression per block (SZ 2.x samples instead; an exact
    sum is affordable here).  ``residual`` is ``(nblocks, B, ...)``.

    The sum is defined bit for bit: terms come from :func:`cost_table`
    (libm ``log2`` for the rare magnitude beyond it) and are added left
    to right over the block's C-order elements, starting from ``0.0``.
    """
    mag = np.abs(residual.reshape(residual.shape[0], -1).astype(np.float64))
    inside = mag < COST_TABLE_SIZE
    terms = cost_table()[np.where(inside, mag, 0.0).astype(np.intp)]
    for at in zip(*np.nonzero(~inside)):
        terms[at] = 2.0 * math.log2(1.0 + float(mag[at])) + 1.0
    return np.add.accumulate(terms, axis=1)[:, -1]
