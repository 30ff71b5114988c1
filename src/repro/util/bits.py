"""Bit-level packing substrate shared by the SZ and ZFP codecs.

Both compressors in this library ultimately serialize sequences of
variable-length bit strings (Huffman codewords, ZFP embedded-coding
segments).  Doing that one bit at a time in Python would dominate runtime,
so the packers here are fully vectorized with numpy: a sequence of
``(code, length)`` pairs is expanded to a flat bit array with ``np.repeat``
/ broadcasting and packed with ``np.packbits`` in a handful of array
operations regardless of the number of codes.

Bit order convention: MSB-first within each code, codes concatenated in
order, and the final byte zero-padded on the right — the same convention
as ``np.packbits(bitorder="big")``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptStreamError, DataError

_MAX_CODE_BITS = 57  # codes are staged in uint64; reads use shifts below 64


def pack_varlen_codes(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Pack variable-length MSB-first codes into a byte string.

    Dispatches the ``pack.varlen`` kernel: the group-by-length scatter
    (``numpy``) or the compiled bit writer (``native``), byte-identical.

    Parameters
    ----------
    codes:
        Unsigned integer array; only the low ``lengths[i]`` bits of
        ``codes[i]`` are emitted.
    lengths:
        Bit length of each code, ``0 <= lengths[i] <= 57``.  Zero-length
        codes are legal and emit nothing.

    Returns
    -------
    (payload, nbits):
        The packed bytes and the exact number of meaningful bits.
    """
    from repro.kernels import call

    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise DataError("codes and lengths must have identical shapes")
    if lengths.size and (lengths.min() < 0 or lengths.max() > _MAX_CODE_BITS):
        raise DataError(f"code lengths must be in [0, {_MAX_CODE_BITS}]")
    if int(lengths.sum()) == 0:
        return b"", 0
    return call("pack.varlen", codes, lengths)


def _pack_varlen_numpy(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Group codes by bit length (Huffman emits only a handful of
    distinct lengths) and scatter each group's rectangular (count, L)
    bit matrix straight into the flat output at its cumulative start
    offsets.  Unlike a single (ncodes, max_len) rectangle this touches
    exactly ``total_bits`` elements and needs no boolean compaction."""
    total_bits = int(lengths.sum())
    starts = np.cumsum(lengths) - lengths
    bits = np.zeros(total_bits, dtype=np.uint8)
    for length in np.unique(lengths):
        length = int(length)
        if length == 0:
            continue
        sel = lengths == length
        group = codes[sel]
        cols = np.arange(length, dtype=np.int64)
        shift = (length - 1 - cols).astype(np.uint64)
        vals = (group[:, None] >> shift[None, :]) & np.uint64(1)
        bits[starts[sel][:, None] + cols[None, :]] = vals.astype(np.uint8)
    return np.packbits(bits, bitorder="big").tobytes(), total_bits


def pack_fixed_width(values: np.ndarray, width: int) -> bytes:
    """Pack unsigned integers using exactly ``width`` bits each."""
    if width == 0:
        return b""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    lengths = np.full(values.shape, width, dtype=np.int64)
    payload, _ = pack_varlen_codes(values, lengths)
    return payload


def unpack_fixed_width(payload: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_fixed_width`; returns a uint64 array."""
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    if width < 0 or width > _MAX_CODE_BITS:
        raise DataError(f"width must be in [0, {_MAX_CODE_BITS}]")
    need_bits = width * count
    buf = np.frombuffer(payload, dtype=np.uint8)
    if buf.size * 8 < need_bits:
        raise CorruptStreamError(
            f"fixed-width payload too short: {buf.size * 8} bits < {need_bits}"
        )
    bits = np.unpackbits(buf, count=need_bits, bitorder="big")
    bits = bits.reshape(count, width).astype(np.uint64)
    weights = (np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64))
    return bits @ weights


class BitWriter:
    """Sequential bit writer for headers and small control streams.

    Values are buffered as ``(value, nbits)`` pairs and packed in a single
    vectorized pass by :meth:`getvalue`, so interleaving many small writes
    stays cheap.
    """

    def __init__(self) -> None:
        self._codes: list[int] = []
        self._lengths: list[int] = []

    def write(self, value: int, nbits: int) -> None:
        """Append the low ``nbits`` bits of ``value`` (MSB first)."""
        if nbits < 0 or nbits > _MAX_CODE_BITS:
            raise DataError(f"nbits must be in [0, {_MAX_CODE_BITS}]")
        if value < 0 or (nbits < 64 and value >> nbits):
            raise DataError(f"value {value} does not fit in {nbits} bits")
        if nbits:
            self._codes.append(value)
            self._lengths.append(nbits)

    @property
    def bit_length(self) -> int:
        return int(sum(self._lengths))

    def getvalue(self) -> bytes:
        codes = np.array(self._codes, dtype=np.uint64)
        lengths = np.array(self._lengths, dtype=np.int64)
        payload, _ = pack_varlen_codes(codes, lengths)
        return payload


class BitReader:
    """Sequential MSB-first bit reader over a byte string."""

    def __init__(self, payload: bytes, nbits: int | None = None) -> None:
        buf = np.frombuffer(payload, dtype=np.uint8)
        self._bits = np.unpackbits(buf, bitorder="big")
        self._nbits = buf.size * 8 if nbits is None else nbits
        if self._nbits > self._bits.size:
            raise CorruptStreamError("declared bit length exceeds payload size")
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._nbits - self._pos

    def read(self, nbits: int) -> int:
        """Read ``nbits`` bits as an unsigned integer."""
        if nbits == 0:
            return 0
        if nbits < 0 or self._pos + nbits > self._nbits:
            raise CorruptStreamError(
                f"bitstream underflow: need {nbits} bits, have {self.remaining}"
            )
        chunk = self._bits[self._pos : self._pos + nbits]
        self._pos += nbits
        value = 0
        for b in chunk:
            value = (value << 1) | int(b)
        return value
