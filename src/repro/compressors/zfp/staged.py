"""The staged ZFP path: ``zfp.encode`` / ``zfp.decode`` for the numpy
kernel tier.

Both kernels work at field granularity (one call per array):

``encode(data, planes, maxbits, kmin_rule)``
    ``-> (body, nbits, offsets, used_bits, nonzero)``.  ``maxbits``
    nonzero selects fixed-rate framing (every block padded to exactly
    ``maxbits`` bits); ``body`` is the packed bit blob, ``offsets`` the
    ``(nblocks + 1)`` uint64 bit-offset table, ``used_bits`` the bits
    each block coded (header included, padding excluded; 0 for all-zero
    blocks) and ``nonzero`` the per-block flags.
``decode(body, offsets, shape, dtype, planes, kmin_rule)``
    ``-> array``.  ``offsets`` is the int64 bit-offset table, or the
    int ``maxbits`` of a fixed-rate stream.

``kmin_rule = (base, per_exponent)`` gives each block's lowest coded
plane, ``clip(base - e, 0, planes)`` when ``per_exponent`` (``e`` the
block's common exponent: fixed-accuracy) else ``base`` (0 in fixed-rate,
``planes - precision`` in fixed-precision mode).

This tier runs the stages one after another over whole-field arrays —
block partition, block-float cast, lifting transform, sequency reorder,
negabinary, bit-plane transpose, embedded coder.  The native tier fuses
every stage into one pass per block (:mod:`repro.kernels._csource`);
both produce byte-identical streams.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compressors.zfp import batch as B
from repro.compressors.zfp import blockcodec as BC
from repro.compressors.zfp import transform as T
from repro.errors import CorruptStreamError
from repro.telemetry import get_telemetry
from repro.util.blocks import block_partition, block_reassemble

#: Effectively-unbounded per-block budget for the variable-rate modes.
_UNBOUNDED = 1 << 20


def _kmins(kmin_rule: tuple[int, bool], e: np.ndarray, planes: int) -> np.ndarray:
    base, per_exponent = kmin_rule
    if per_exponent:
        return np.clip(base - e, 0, planes).astype(np.int64)
    return np.full(e.shape, base, dtype=np.int64)


def encode(
    data: np.ndarray,
    planes: int,
    maxbits: int,
    kmin_rule: tuple[int, bool],
) -> tuple[bytes, int, np.ndarray, np.ndarray, np.ndarray]:
    tm = get_telemetry()
    size = 4**data.ndim
    with tm.span("zfp.transform", bytes=data.nbytes):
        blocks, _, _ = block_partition(data, (4,) * data.ndim, mode="edge")
        nblocks = blocks.shape[0]
        flat = blocks.reshape(nblocks, size).astype(np.float64)

        amax = np.abs(flat).max(axis=1)
        nonzero = amax > 0
        e = np.zeros(nblocks, dtype=np.int64)
        _, e_nz = np.frexp(amax[nonzero])
        e[nonzero] = e_nz  # amax < 2**e
        scale_exp = (planes - 2) - e
        ints = np.rint(np.ldexp(flat, scale_exp[:, None])).astype(np.int64)

        coeffs = T.forward_transform(ints.reshape(blocks.shape))
    with tm.span("zfp.reorder", bytes=data.nbytes):
        perm = T.sequency_order(data.ndim)
        ordered = coeffs.reshape(nblocks, size)[:, perm]
        u = BC.int_to_negabinary(ordered)
    with tm.span("zfp.bitplane", bytes=data.nbytes):
        budget = maxbits - BC.HEADER_BITS if maxbits else _UNBOUNDED
        body, nbits, offsets, used_bits = B.encode_blocks(
            BC.plane_words(u, planes), nonzero, e, size, planes,
            np.full(nblocks, budget, dtype=np.int64),
            _kmins(kmin_rule, e, planes), maxbits,
        )
    return body, nbits, offsets, used_bits, nonzero


def decode(
    body: bytes,
    offsets: np.ndarray | int,
    shape: tuple[int, ...],
    dtype: np.dtype,
    planes: int,
    kmin_rule: tuple[int, bool],
) -> np.ndarray:
    tm = get_telemetry()
    ndim = len(shape)
    size = 4**ndim
    grid = tuple(-(-s // 4) for s in shape)
    nblocks = math.prod(grid)
    if isinstance(offsets, int):
        offsets = np.arange(nblocks + 1, dtype=np.int64) * offsets
    body_arr = np.frombuffer(body, dtype=np.uint8)
    total_bits = int(offsets[-1])
    if offsets.size != nblocks + 1 or body_arr.size * 8 < total_bits:
        raise CorruptStreamError("ZFP stream truncated (body)")
    with tm.span("zfp.bitplane", bytes=len(body), direction="decompress"):
        bits = np.unpackbits(body_arr, count=total_bits, bitorder="big")
        nonzero, e = B.read_block_headers(bits, offsets)
        # Trailing zero padding so decode window gathers stay in range;
        # per-block budgets guarantee it is never decoded.
        padded = np.concatenate([bits, np.zeros(128, dtype=np.uint8)])
        words = B.decode_blocks(
            padded, offsets, nonzero, planes, size,
            np.diff(offsets) - BC.HEADER_BITS, _kmins(kmin_rule, e, planes),
        )
        u = BC.words_matrix_to_coeffs(words, size)
    with tm.span("zfp.reorder", direction="decompress"):
        ordered = BC.negabinary_to_int(u)
        inv_perm = T.inverse_sequency_order(ndim)
        coeffs = ordered[:, inv_perm].reshape((nblocks,) + (4,) * ndim)
    with tm.span("zfp.transform", direction="decompress"):
        ints = T.inverse_transform(coeffs)
        scale_exp = e - (planes - 2)
        flat = np.ldexp(
            ints.reshape(nblocks, size).astype(np.float64), scale_exp[:, None]
        )
        flat[~nonzero] = 0.0
        arr = block_reassemble(
            flat.reshape((nblocks,) + (4,) * ndim), grid, shape
        )
    return arr.astype(dtype)

