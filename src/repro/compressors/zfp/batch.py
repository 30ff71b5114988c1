"""Batched ZFP block coding: all blocks at once, numpy ops per bit plane.

The per-block coder in :mod:`repro.compressors.zfp.blockcodec` transcribes
zfp's ``encode_ints``/``decode_ints`` control flow one block at a time —
a Python loop per block, per plane, per *bit* — and is kept as the
specification.  This module is the coder that runs: it re-expresses
the identical algorithm over a ``(nblocks, planes)`` plane-word matrix so
the per-bit work becomes array operations across every block
simultaneously — the same blocks-through-vector-lanes transformation
cuSZ and FZ-GPU apply to this compressor class on GPUs.

The two are **bit-identical** (enforced block by block in
``tests/test_zfp_blockcodec.py``): same body bits, same ``used_bits``
accounting, for every budget and plane cutoff.  The trick is
that zfp's group-testing inner loops have a closed form per "group":
given a plane word ``x`` (already shifted past the known-significant
prefix) with lowest set bit ``j``, the per-block inner scan emits exactly

    ``c = min(j + 1, size - 1 - n, bits)``

bits — ``min(j, c)`` zeros followed by a one iff ``c == j + 1`` — after
which ``x`` shifts by ``c (+1 when no one was emitted)`` and ``n``
advances the same amount.  Each outer "group" iteration therefore needs
only a handful of vectorized ops (trailing-zero count, minima, masked
scatter) across all still-active blocks, instead of a Python iteration
per emitted bit.

Emission uses a zero-initialized per-block bit matrix, so only 1-bits
are ever scattered; zero runs and fixed-rate padding are free.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptStreamError
from repro.compressors.zfp.blockcodec import EBIAS, EBITS

_U64_ONE = np.uint64(1)
_U64_FULL = ~np.uint64(0)


def _ctz64(x: np.ndarray) -> np.ndarray:
    """Count trailing zeros of nonzero uint64 values."""
    lowbit = x & (~x + _U64_ONE)
    # A single set bit is a power of two <= 2^63: exactly representable
    # in float64, so frexp gives its position without loss.
    _, exponent = np.frexp(lowbit.astype(np.float64))
    return exponent.astype(np.int64) - 1


def _shift_right(x: np.ndarray, amount: np.ndarray) -> np.ndarray:
    """``x >> amount`` with ``amount`` possibly 64+ (result 0)."""
    clipped = np.minimum(amount, 63).astype(np.uint64)
    return np.where(amount >= 64, np.uint64(0), x >> clipped)


def _low_mask(nbits: np.ndarray) -> np.ndarray:
    """uint64 mask of the low ``nbits`` bits, ``nbits`` in [0, 64]."""
    shift = (np.uint64(64) - np.maximum(nbits, 1).astype(np.uint64))
    return np.where(nbits <= 0, np.uint64(0), _U64_FULL >> shift)


class _BitMatrix:
    """Zero-initialized per-block bit rows; only 1-bits are written."""

    def __init__(self, nblocks: int, capacity: int) -> None:
        self.capacity = capacity
        self.flat = np.zeros(nblocks * capacity, dtype=np.uint8)
        self.pos = np.zeros(nblocks, dtype=np.int64)

    def set_bits(self, blocks: np.ndarray, offsets: np.ndarray) -> None:
        """Set the bit at (block, pos[block] + offset) for each entry."""
        self.flat[blocks * self.capacity + self.pos[blocks] + offsets] = 1

    def emit_lsb(self, blocks: np.ndarray, values: np.ndarray,
                 nbits: np.ndarray) -> None:
        """Emit the low ``nbits`` of each value LSB-first, then advance.

        ``nbits`` is bounded by the block size (<= 64), so a rectangular
        ``(len(blocks), max(nbits))`` window beats the ragged
        repeat/cumsum formulation by a wide margin.
        """
        mx = int(nbits.max()) if nbits.size else 0
        if mx:
            cols = np.arange(mx, dtype=np.int64)
            bit = (values[:, None] >> cols[None, :].astype(np.uint64)) & _U64_ONE
            sel = (cols[None, :] < nbits[:, None]) & (bit != 0)
            base = blocks * self.capacity + self.pos[blocks]
            self.flat[(base[:, None] + cols[None, :])[sel]] = 1
        self.pos[blocks] += nbits

    def concatenate(self) -> tuple[np.ndarray, int]:
        """Per-block rows, trimmed to their used lengths, end to end."""
        total = int(self.pos.sum())
        if total == 0:
            return np.zeros(0, dtype=np.uint8), 0
        if total == self.flat.size:
            # Every row fully used (fixed-rate framing): already laid out.
            return self.flat, total
        owner = np.repeat(np.arange(self.pos.size), self.pos)
        starts = np.concatenate(([0], np.cumsum(self.pos)[:-1]))
        offset = np.arange(total, dtype=np.int64) - starts[owner]
        return self.flat[owner * self.capacity + offset], total


def encode_blocks(
    words: np.ndarray,
    nonzero: np.ndarray,
    e: np.ndarray,
    size: int,
    planes: int,
    budgets: np.ndarray,
    kmins: np.ndarray,
    maxbits: int = 0,
) -> tuple[bytes, int, np.ndarray, np.ndarray]:
    """Embedded-code every block of a stream in one vectorized pass.

    ``words`` is the ``(nblocks, planes)`` plane-word matrix, ``budgets``
    / ``kmins`` the per-block plane-coding budget and cutoff, and
    ``maxbits`` nonzero selects fixed-rate framing (header counted in the
    per-block bit slot, zero-padded to exactly ``maxbits``).

    Returns ``(body, nbits, offsets, used_bits)``: ``body``/``nbits`` as
    from the per-block coder's ``_Emitter.pack()``, ``offsets`` the
    ``(nblocks + 1)`` uint64 bit-offset table, and ``used_bits`` the
    per-block coded bits (header included, padding excluded; 0 for zero
    blocks).
    """
    nblocks = words.shape[0]
    header_bits = 1 + EBITS
    fixed_rate = maxbits > 0
    if fixed_rate:
        capacity = maxbits
    else:
        capacity = header_bits + planes * (2 * size + 1) + 2 * size + 8
    out = _BitMatrix(nblocks, capacity)

    nz = np.flatnonzero(nonzero)
    # Block headers: nonzero flag, then the biased common exponent
    # MSB-first (EBITS iterations, vectorized across blocks).
    out.set_bits(nz, np.zeros(nz.size, dtype=np.int64))
    biased = (e[nz] + EBIAS).astype(np.uint64)
    for i in range(EBITS):
        bit_on = (biased >> np.uint64(EBITS - 1 - i)) & _U64_ONE != 0
        out.set_bits(nz[bit_on], np.full(int(bit_on.sum()), 1 + i, dtype=np.int64))
    out.pos[nz] = header_bits
    if fixed_rate:
        # Zero blocks: '0' flag plus maxbits-1 zero bits (already zero).
        out.pos[~nonzero] = maxbits
    else:
        out.pos[~nonzero] = 1

    n = np.zeros(nblocks, dtype=np.int64)
    bits = budgets.astype(np.int64).copy()
    bits[~nonzero] = 0

    lowest_kmin = int(kmins[nonzero].min()) if nz.size else planes
    for k in range(planes - 1, lowest_kmin - 1, -1):
        act = np.flatnonzero(nonzero & (kmins <= k) & (bits > 0))
        if act.size == 0:
            continue
        x = words[act, k].astype(np.uint64, copy=True)
        n_act = n[act]
        bits_act = bits[act]
        # Step 2: value bits for the already-significant group, LSB-first.
        m = np.minimum(n_act, bits_act)
        out.emit_lsb(act, x & _low_mask(m), m)
        bits_act -= m
        x = _shift_right(x, m)
        # Step 3: unary run-length / group testing, one vectorized
        # iteration per group across all still-live blocks.
        live = np.ones(act.size, dtype=bool)
        while True:
            g = np.flatnonzero(live & (n_act < size) & (bits_act > 0))
            if g.size == 0:
                break
            test = x[g] != 0
            bits_act[g] -= 1
            out.set_bits(act[g[test]], np.zeros(int(test.sum()), dtype=np.int64))
            out.pos[act[g]] += 1
            live[g[~test]] = False
            h = g[test]
            if h.size == 0:
                continue
            j = _ctz64(x[h])
            emitted = np.minimum(j + 1, np.minimum(size - 1 - n_act[h],
                                                   bits_act[h]))
            found_one = emitted == j + 1
            one_blocks = act[h[found_one]]
            out.set_bits(one_blocks, emitted[found_one] - 1)
            out.pos[act[h]] += emitted
            bits_act[h] -= emitted
            # State: zeros shift x once each; the terminating one (when
            # emitted) does not; the outer loop then shifts once more.
            advance = np.where(found_one, emitted, emitted + 1)
            x[h] = _shift_right(x[h], advance)
            n_act[h] += advance
        n[act] = n_act
        bits[act] = bits_act

    used_bits = np.zeros(nblocks, dtype=np.int64)
    used_bits[nz] = header_bits + (budgets[nz] - bits[nz])
    if fixed_rate:
        out.pos[nz] = maxbits  # zero padding up to the block budget

    lengths = out.pos.copy()
    offsets = np.zeros(nblocks + 1, dtype=np.uint64)
    np.cumsum(lengths, out=offsets[1:])
    flat_bits, nbits = out.concatenate()
    body = np.packbits(flat_bits, bitorder="big").tobytes()
    return body, nbits, offsets, used_bits


def read_block_headers(
    bits: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-block header parse: (nonzero flags, exponents).

    ``bits`` is the unpacked body bit array, ``offsets`` the int64
    ``(nblocks + 1)`` bit-offset table.  Raises
    :class:`~repro.errors.CorruptStreamError` for non-increasing offsets
    or blocks too short for their declared header — the same failures
    the per-block ``_BlockReader`` reports.
    """
    spans = np.diff(offsets)
    if spans.size and int(spans.min()) <= 0:
        raise CorruptStreamError("non-increasing ZFP block offsets")
    lo = offsets[:-1]
    nonzero = bits[lo] != 0
    if np.any(nonzero & (spans < 1 + EBITS)):
        raise CorruptStreamError("ZFP block bit budget overrun")
    nblocks = spans.size
    e = np.zeros(nblocks, dtype=np.int64)
    nz = np.flatnonzero(nonzero)
    if nz.size:
        window = lo[nz, None] + 1 + np.arange(EBITS, dtype=np.int64)[None, :]
        weights = (1 << np.arange(EBITS - 1, -1, -1)).astype(np.int64)
        e[nz] = bits[window].astype(np.int64) @ weights - EBIAS
    return nonzero, e


def decode_blocks(
    bits: np.ndarray,
    offsets: np.ndarray,
    nonzero: np.ndarray,
    planes: int,
    size: int,
    budgets: np.ndarray,
    kmins: np.ndarray,
) -> np.ndarray:
    """Mirror of :func:`encode_blocks`: recover the plane-word matrix.

    ``bits`` must be padded with at least ``size`` trailing zero bits so
    window gathers never index out of range (budget bookkeeping
    guarantees the padding is never *decoded*).
    """
    nblocks = offsets.size - 1
    words = np.zeros((nblocks, planes), dtype=np.uint64)
    cursor = (offsets[:-1] + 1 + EBITS).astype(np.int64)
    n = np.zeros(nblocks, dtype=np.int64)
    bits_left = budgets.astype(np.int64).copy()
    bits_left[~nonzero] = 0
    window_cols = np.arange(size, dtype=np.int64)

    nz_any = np.flatnonzero(nonzero)
    lowest_kmin = int(kmins[nz_any].min()) if nz_any.size else planes
    for k in range(planes - 1, lowest_kmin - 1, -1):
        act = np.flatnonzero(nonzero & (kmins <= k) & (bits_left > 0))
        if act.size == 0:
            continue
        n_act = n[act]
        bits_act = bits_left[act]
        cur = cursor[act]
        m = np.minimum(n_act, bits_act)
        x = np.zeros(act.size, dtype=np.uint64)
        mx = int(m.max()) if m.size else 0
        if mx:
            # Rectangular (act, m.max()) gather: m <= block size <= 64,
            # and the stream carries >= size trailing pad bits, so the
            # window never reads out of range; masked columns drop the
            # over-read.
            cols = np.arange(mx, dtype=np.int64)
            window = bits[cur[:, None] + cols[None, :]].astype(np.uint64)
            window &= cols[None, :] < m[:, None]
            x = (window << cols[None, :].astype(np.uint64)).sum(
                axis=1, dtype=np.uint64
            )
        cur += m
        bits_act -= m
        live = np.ones(act.size, dtype=bool)
        while True:
            g = np.flatnonzero(live & (n_act < size) & (bits_act > 0))
            if g.size == 0:
                break
            test = bits[cur[g]] != 0
            cur[g] += 1
            bits_act[g] -= 1
            live[g[~test]] = False
            h = g[test]
            if h.size == 0:
                continue
            reads_max = np.minimum(size - 1 - n_act[h], bits_act[h])
            window = bits[cur[h, None] + window_cols[None, :]]
            window = window & (window_cols[None, :] < reads_max[:, None])
            has_one = window.any(axis=1)
            first_one = np.argmax(window, axis=1)
            zeros = np.where(has_one, first_one, reads_max)
            consumed = np.where(has_one, first_one + 1, reads_max)
            n_act[h] += zeros
            x[h] |= _U64_ONE << n_act[h].astype(np.uint64)
            n_act[h] += 1
            cur[h] += consumed
            bits_act[h] -= consumed
        words[act, k] = x
        n[act] = n_act
        bits_left[act] = bits_act
        cursor[act] = cur
    return words
