"""ZFP per-block embedded coding: exponent alignment, negabinary, group
testing — exact transcription of the reference ``encode_ints`` /
``decode_ints`` control flow, truncated to a fixed per-block bit budget.

Stream order convention: bits are concatenated MSB-first at the byte level
(``np.packbits(bitorder="big")``); *within* a multi-bit value-bit write the
bits appear LSB-first, exactly like zfp's ``stream_write_bits``.  Each
block occupies exactly ``maxbits`` bits so block ``b`` starts at bit
``b * maxbits`` — the property that makes fixed-rate streams seekable and
GPU-decodable in parallel.

:func:`encode_block_planes` / :func:`decode_block_planes` (with
``_Emitter`` / ``_BlockReader``) code one block at a time and are the
executable specification of the format; what runs is the all-blocks-at-
once coder of :mod:`repro.compressors.zfp.batch`, held to this one
block by block in ``tests/test_zfp_blockcodec.py``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptStreamError, DataError
from repro.util.bits import pack_varlen_codes

#: Negabinary conversion mask (alternating bits), as in zfp's NBMASK.
NBMASK = np.uint64(0xAAAAAAAAAAAAAAAA)

#: Bits used for the per-block common exponent (covers float64's range).
EBITS = 12
EBIAS = 2048

#: Bits every nonzero block spends before its planes: flag + exponent.
HEADER_BITS = 1 + EBITS


def int_to_negabinary(i: np.ndarray) -> np.ndarray:
    """Two's complement int64 -> negabinary uint64 (zfp's int2uint)."""
    u = i.astype(np.int64).view(np.uint64)
    return (u + NBMASK) ^ NBMASK


def negabinary_to_int(u: np.ndarray) -> np.ndarray:
    """Inverse of :func:`int_to_negabinary` (zfp's uint2int)."""
    u = u.astype(np.uint64)
    return ((u ^ NBMASK) - NBMASK).view(np.int64)


def plane_words(u: np.ndarray, nplanes: int) -> np.ndarray:
    """Bit-plane words: ``words[b, k]`` has bit ``i`` = bit ``k`` of
    coefficient ``i`` of block ``b``.

    A (size x nplanes) bit transpose via one ``unpackbits``/``packbits``
    round trip per batch — constant cost in ``nplanes`` instead of one
    pass per plane.  Little-endian byte order makes bit ``k`` of a uint64
    land at flat position ``k`` after ``unpackbits(bitorder="little")``,
    so the transpose is a plain axis swap between the coefficient and
    plane axes."""
    nblocks, size = u.shape
    if size > 64:
        raise DataError("plane words require block size <= 64 coefficients")
    u = np.ascontiguousarray(u)
    bits = np.unpackbits(
        u.view(np.uint8).reshape(nblocks, size, 8), axis=2, bitorder="little"
    )[:, :, :nplanes]
    t = np.ascontiguousarray(bits.transpose(0, 2, 1))
    if size < 64:
        t = np.concatenate(
            [t, np.zeros((nblocks, nplanes, 64 - size), dtype=np.uint8)], axis=2
        )
    packed = np.packbits(t, axis=2, bitorder="little")
    return packed.reshape(nblocks, nplanes * 8).view(np.uint64).copy()


def _rev_bits(x: int, n: int) -> int:
    """Reverse the low ``n`` bits of ``x``."""
    if n <= 1:
        return x & 1 if n else 0
    return int(format(x & ((1 << n) - 1), f"0{n}b")[::-1], 2)


class _Emitter:
    """Accumulates (code, length) pairs; value bits are LSB-first like
    zfp's ``stream_write_bits``.  One vectorized pack at the end."""

    __slots__ = ("codes", "lengths", "nbits")

    def __init__(self) -> None:
        self.codes: list[int] = []
        self.lengths: list[int] = []
        self.nbits = 0

    def emit_msb(self, value: int, nbits: int) -> None:
        """Emit ``nbits`` of ``value`` MSB-first (headers, single bits)."""
        while nbits > 57:
            self.codes.append((value >> (nbits - 57)) & ((1 << 57) - 1))
            self.lengths.append(57)
            nbits -= 57
            self.nbits += 57
        if nbits:
            self.codes.append(value & ((1 << nbits) - 1))
            self.lengths.append(nbits)
            self.nbits += nbits

    def emit_lsb(self, value: int, nbits: int) -> None:
        """Emit the low ``nbits`` of ``value`` starting from the LSB."""
        while nbits > 0:
            chunk = min(nbits, 32)
            self.emit_msb(_rev_bits(value & ((1 << chunk) - 1), chunk), chunk)
            value >>= chunk
            nbits -= chunk

    def pack(self) -> tuple[bytes, int]:
        codes = np.array(self.codes, dtype=np.uint64)
        lengths = np.array(self.lengths, dtype=np.int64)
        return pack_varlen_codes(codes, lengths)


class _BlockReader:
    """Cursor over one block's bits held in a single Python int.

    Bit 0 of the stream is the *most significant* bit of ``value`` so that
    sequential reads walk the int from the top down.
    """

    __slots__ = ("value", "total", "pos")

    def __init__(self, value: int, total: int) -> None:
        self.value = value
        self.total = total
        self.pos = 0

    def read_bit(self) -> int:
        if self.pos >= self.total:
            raise CorruptStreamError("ZFP block bit budget overrun")
        b = (self.value >> (self.total - 1 - self.pos)) & 1
        self.pos += 1
        return b

    def read_msb(self, nbits: int) -> int:
        if nbits == 0:
            return 0
        if self.pos + nbits > self.total:
            raise CorruptStreamError("ZFP block bit budget overrun")
        v = (self.value >> (self.total - self.pos - nbits)) & ((1 << nbits) - 1)
        self.pos += nbits
        return v

    def read_lsb(self, nbits: int) -> int:
        return _rev_bits(self.read_msb(nbits), nbits)


def encode_block_planes(
    emit: _Emitter, words: list[int], size: int, budget: int, kmin: int = 0,
    pad: bool = True,
) -> int:
    """Embedded-code one block's bit planes, MSB plane first.

    ``words`` is indexed by plane (0 = LSB); emission stops when ``budget``
    bits have been spent or plane ``kmin`` has been coded (fixed-precision
    / fixed-accuracy truncation).  Transcribes zfp's ``encode_ints`` loop
    including the implicit final-coefficient bit.  Returns the number of
    bits emitted (before padding); pads to ``budget`` when ``pad``.
    """
    bits = budget
    n = 0
    for k in range(len(words) - 1, kmin - 1, -1):
        if bits == 0:
            break
        x = words[k]
        # step 2: value bits for the already-significant group
        m = min(n, bits)
        bits -= m
        emit.emit_lsb(x & ((1 << m) - 1), m)
        x >>= m
        # step 3: unary run-length / group testing
        while True:
            if not (n < size and bits):
                break
            bits -= 1
            test = 1 if x else 0
            emit.emit_msb(test, 1)
            if not test:
                break
            while True:
                if not (n < size - 1 and bits):
                    break
                bits -= 1
                b = x & 1
                emit.emit_msb(b, 1)
                if b:
                    break
                x >>= 1
                n += 1
            x >>= 1
            n += 1
    if bits and pad:
        emit.emit_msb(0, bits)  # fixed-rate zero padding
    return budget - bits


def decode_block_planes(
    reader: _BlockReader, nplanes: int, size: int, budget: int, kmin: int = 0
) -> list[int]:
    """Mirror of :func:`encode_block_planes`; returns plane words."""
    words = [0] * nplanes
    bits = budget
    n = 0
    for k in range(nplanes - 1, kmin - 1, -1):
        if bits == 0:
            break
        m = min(n, bits)
        bits -= m
        x = reader.read_lsb(m)
        while True:
            if not (n < size and bits):
                break
            bits -= 1
            if not reader.read_bit():
                break
            while True:
                if not (n < size - 1 and bits):
                    break
                bits -= 1
                if reader.read_bit():
                    break
                n += 1
            x += 1 << n
            n += 1
        words[k] = x
    return words


def words_matrix_to_coeffs(words: np.ndarray, size: int) -> np.ndarray:
    """Inverse of :func:`plane_words` over a whole batch: ``words`` has
    shape ``(nblocks, nplanes)``; returns ``(nblocks, size)`` negabinary
    coefficients.  Same unpackbits/packbits transpose, in the other
    direction: plane axis in, coefficient axis out."""
    nblocks, nplanes = words.shape
    words = np.ascontiguousarray(words)
    bits = np.unpackbits(
        words.view(np.uint8).reshape(nblocks, nplanes, 8),
        axis=2,
        bitorder="little",
    )[:, :, :size]
    t = np.ascontiguousarray(bits.transpose(0, 2, 1))
    if nplanes < 64:
        t = np.concatenate(
            [t, np.zeros((nblocks, size, 64 - nplanes), dtype=np.uint8)], axis=2
        )
    packed = np.packbits(t, axis=2, bitorder="little")
    return packed.reshape(nblocks, size * 8).view(np.uint64).copy()


def words_to_coeffs(words: list[int], size: int) -> np.ndarray:
    """Transpose plane words back to per-coefficient negabinary uints."""
    u = np.zeros(size, dtype=np.uint64)
    for k, x in enumerate(words):
        if x:
            idx = 0
            while x:
                if x & 1:
                    u[idx] |= np.uint64(1) << np.uint64(k)
                x >>= 1
                idx += 1
    return u
