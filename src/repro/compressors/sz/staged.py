"""The staged SZ path: ``sz.encode`` / ``sz.decode`` for the numpy kernel
tier.

Both kernels work at field granularity (one call per array):

``encode(data, error_bound, block_side, predictor, radius)``
    ``-> (symbols, freqs, outliers, use_reg, coefs, radius)``.  ``data``
    is the unpartitioned float32/float64 field; ``predictor`` is
    ``"adaptive"``, ``"lorenzo"`` or ``"regression"``; ``radius`` an int,
    or ``None`` to derive it from the residual distribution.  ``symbols``
    are the escape-coded quantization codes (uint16, block after block in
    C order, each block in C order, edge-padded cells included),
    ``freqs`` their histogram over the whole ``2 * radius`` alphabet
    (int64), ``outliers`` the escaped residuals in scan order (int64),
    ``use_reg`` the per-block predictor flags (bool), ``coefs`` the
    float32 ``(use_reg.sum(), ndim + 1)`` coefficients of the regression
    blocks in block order, and ``radius`` the radius used.
``decode(symbols, outliers, use_reg, coefs, error_bound, block_side,
radius, shape, dtype)``
    ``-> array`` of ``shape`` and ``dtype``; the sections as ``encode``
    returns them (uint16 ``symbols``).

This tier runs the stages one after another over whole-field arrays —
block partition, prequantization, Lorenzo residual, regression fit and
residual, cost estimate, selection, symbol split — and is the
specification of the native tier, which fuses all of them into one pass
per block (:mod:`repro.kernels._csource`); both tiers produce identical
outputs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compressors.sz import predictor as P
from repro.compressors.sz import quantizer as Q
from repro.errors import CorruptStreamError, DataError
from repro.telemetry import get_telemetry
from repro.util.blocks import block_partition, block_reassemble

#: |lattice index| beyond this is refused (Lorenzo) or clamped
#: (regression) before the cast to int64.
LATTICE_LIMIT = 2.0**62


def split_symbols(
    residual: np.ndarray, radius: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(symbols, freqs, outliers)`` of selected residuals at ``radius``."""
    symbols, outliers = Q.residuals_to_symbols(residual, radius)
    freqs = np.bincount(symbols, minlength=2 * radius)
    return symbols.astype(np.uint16), freqs, outliers


def encode(
    data: np.ndarray,
    error_bound: float,
    block_side: int,
    predictor: str,
    radius: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    tm = get_telemetry()
    block = (block_side,) * data.ndim
    blocks, _, _ = block_partition(data, block, mode="edge")
    nblocks = blocks.shape[0]
    two_eb = 2.0 * error_bound

    # Lorenzo on the prequantized lattice (dual quantization).
    with tm.span("sz.prequant", bytes=data.nbytes, nblocks=nblocks):
        res_lorenzo = None
        if predictor != "regression":
            res_lorenzo = P.lorenzo_residual(Q.prequantize(blocks, error_bound))

    with tm.span("sz.predict", bytes=data.nbytes, predictor=predictor):
        # Regression with stored-coefficient feedback.
        coefs = res_reg = None
        if predictor != "lorenzo":
            coefs = P.regression_fit(blocks)
            pred = P.regression_predict(coefs, block)
            res_reg = np.rint((blocks.astype(np.float64) - pred) / two_eb)
            # fmin/fmax, not clip: a NaN (inf coefficient times a zero
            # coordinate) becomes the limit instead of an undefined cast.
            res_reg = np.fmax(
                np.fmin(res_reg, LATTICE_LIMIT), -LATTICE_LIMIT
            ).astype(np.int64)

        if predictor == "lorenzo":
            use_reg = np.zeros(nblocks, dtype=bool)
            residual = res_lorenzo
        elif predictor == "regression":
            use_reg = np.ones(nblocks, dtype=bool)
            residual = res_reg
        else:
            cost_l = P.estimate_code_bits(res_lorenzo)
            cost_r = P.estimate_code_bits(res_reg) + 32.0 * (data.ndim + 1)
            use_reg = cost_r < cost_l
            sel_shape = (nblocks,) + (1,) * data.ndim
            residual = np.where(use_reg.reshape(sel_shape), res_reg, res_lorenzo)
        kept = (
            coefs[use_reg] if coefs is not None
            else np.zeros((0, data.ndim + 1), dtype=np.float32)
        )

    if radius is None:
        radius = Q.auto_radius(residual)
    return (*split_symbols(residual, radius), use_reg, kept, radius)


def check_sections(
    symbols: np.ndarray,
    use_reg: np.ndarray,
    coefs: np.ndarray,
    block_side: int,
    shape: tuple[int, ...],
) -> None:
    """Refuse decode inputs that do not tile ``shape``'s block grid, and
    symbols that are not what ``encode`` emits (uint16)."""
    if symbols.dtype != np.uint16:
        raise DataError(f"sz.decode takes uint16 symbols, not {symbols.dtype}")
    nblocks = math.prod(-(-s // block_side) for s in shape)
    if (use_reg.size != nblocks
            or symbols.size != nblocks * block_side ** len(shape)
            or coefs.shape != (int(use_reg.sum()), len(shape) + 1)):
        raise CorruptStreamError("SZ sections do not match the block grid")


def decode(
    symbols: np.ndarray,
    outliers: np.ndarray,
    use_reg: np.ndarray,
    coefs: np.ndarray,
    error_bound: float,
    block_side: int,
    radius: int,
    shape: tuple[int, ...],
    dtype: np.dtype,
) -> np.ndarray:
    ndim = len(shape)
    block = (block_side,) * ndim
    grid = tuple(-(-s // block_side) for s in shape)
    check_sections(symbols, use_reg, coefs, block_side, shape)
    two_eb = 2.0 * error_bound
    with get_telemetry().span("sz.predict", bytes=8 * symbols.size,
                              direction="decompress"):
        residual = Q.symbols_to_residuals(symbols, outliers, radius)
        residual = residual.reshape((use_reg.size,) + block)
        recon = np.empty(residual.shape, dtype=np.float64)
        lor = ~use_reg
        if lor.any():
            q = P.lorenzo_reconstruct(residual[lor])
            recon[lor] = q.astype(np.float64) * two_eb
        if use_reg.any():
            pred = P.regression_predict(coefs, block)
            recon[use_reg] = pred + residual[use_reg].astype(np.float64) * two_eb
        arr = block_reassemble(recon, grid, shape)
    return arr.astype(dtype)
