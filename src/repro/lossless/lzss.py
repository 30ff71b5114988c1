"""Byte-oriented LZSS (LZ77 with literal/match flags).

SZ's final stage runs a dictionary coder (zstd or gzip) over the Huffman
output; this module is the from-scratch stand-in.  Format per token:

* flag bit 0 -> literal byte follows (8 bits);
* flag bit 1 -> match: ``offset`` (``offset_bits``) and ``length - MIN_MATCH``
  (``length_bits``) follow.

The encoder uses a hash chain over 3-byte prefixes, capped probe depth, so
it is O(n * probes).  It processes input in pure Python over *match tokens*
(not bytes): compressible inputs collapse to few tokens, and incompressible
inputs short-circuit via the stored-block fallback in
:func:`lzss_compress`.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import CorruptStreamError, DataError
from repro.util.bits import BitReader, BitWriter

_MAGIC_LZ = b"LZS1"
_MAGIC_RAW = b"LZS0"
MIN_MATCH = 3
STORED_HEADER = struct.calcsize("<4sQ")  # the most a stage grows its input
_WIDTHS = range(1, 33)  # token field widths the encoder writes


def _find_matches(
    data: bytes, offset_bits: int, length_bits: int, max_probes: int
) -> list[tuple[int, int]]:
    """Greedy tokenization: list of (literal_byte | -1, ...) replaced by
    tuples ``(offset, length)`` with ``offset == 0`` meaning literal."""
    window = (1 << offset_bits) - 1
    max_match = MIN_MATCH + (1 << length_bits) - 1
    n = len(data)
    head: dict[int, int] = {}
    prev = np.full(n, -1, dtype=np.int64)
    tokens: list[tuple[int, int]] = []
    i = 0
    while i < n:
        best_len = 0
        best_off = 0
        if i + MIN_MATCH <= n:
            key = data[i] | (data[i + 1] << 8) | (data[i + 2] << 16)
            cand = head.get(key, -1)
            probes = 0
            while cand >= 0 and probes < max_probes:
                off = i - cand
                if off > window:
                    break
                limit = min(max_match, n - i)
                m = 0
                while m < limit and data[cand + m] == data[i + m]:
                    m += 1
                if m >= MIN_MATCH and m > best_len:
                    best_len, best_off = m, off
                    if m == max_match:
                        break
                cand = int(prev[cand])
                probes += 1
        if best_len >= MIN_MATCH:
            tokens.append((best_off, best_len))
            end = i + best_len
            while i < end and i + MIN_MATCH <= n:
                key = data[i] | (data[i + 1] << 8) | (data[i + 2] << 16)
                prev[i] = head.get(key, -1)
                head[key] = i
                i += 1
            i = end
        else:
            tokens.append((0, data[i]))
            if i + MIN_MATCH <= n:
                key = data[i] | (data[i + 1] << 8) | (data[i + 2] << 16)
                prev[i] = head.get(key, -1)
                head[key] = i
            i += 1
    return tokens


def lzss_compress(
    data: bytes,
    offset_bits: int = 16,
    length_bits: int = 8,
    max_probes: int = 16,
) -> bytes:
    """Compress ``data``; falls back to a stored block if LZSS expands it."""
    if offset_bits not in _WIDTHS or length_bits not in _WIDTHS:
        raise DataError("offset_bits and length_bits must be in [1, 32]")
    tokens = _find_matches(data, offset_bits, length_bits, max_probes)
    writer = BitWriter()
    for off, val in tokens:
        if off == 0:
            writer.write(0, 1)
            writer.write(val, 8)
        else:
            writer.write(1, 1)
            writer.write(off, offset_bits)
            writer.write(val - MIN_MATCH, length_bits)
    body = writer.getvalue()
    header = struct.pack(
        "<4sQQBB", _MAGIC_LZ, len(data), writer.bit_length, offset_bits, length_bits
    )
    out = header + body
    if len(out) >= len(data) + STORED_HEADER:
        return struct.pack("<4sQ", _MAGIC_RAW, len(data)) + data
    return out


def lzss_decompress(payload: bytes, max_output: int) -> bytes:
    """Inverse of :func:`lzss_compress`; refuses, before allocating, an
    output above ``max_output`` and field widths the encoder never writes."""
    fmt = {_MAGIC_RAW: "<4sQ", _MAGIC_LZ: "<4sQQBB"}.get(bytes(payload[:4]), "")
    if not fmt or len(payload) < (hsize := struct.calcsize(fmt)):
        raise CorruptStreamError("bad LZSS magic or truncated header")
    _, n, *fields = struct.unpack_from(fmt, payload)
    if n > max_output:
        raise CorruptStreamError(f"LZSS stage declares {n} bytes; at most {max_output}")
    if not fields:
        if len(payload) < hsize + n:
            raise CorruptStreamError("stored LZSS block truncated")
        return bytes(payload[hsize : hsize + n])
    nbits, offset_bits, length_bits = fields
    if offset_bits not in _WIDTHS or length_bits not in _WIDTHS:
        raise CorruptStreamError(f"bad LZSS field widths {offset_bits}/{length_bits}")
    reader = BitReader(payload[hsize:], nbits)
    out = bytearray()
    while len(out) < n:
        if reader.read(1):
            off = reader.read(offset_bits)
            length = reader.read(length_bits) + MIN_MATCH
            if off == 0 or off > len(out) or len(out) + length > n:
                raise CorruptStreamError("invalid LZSS match")
            start = len(out) - off
            for k in range(length):
                out.append(out[start + k])
        else:
            out.append(reader.read(8))
    if len(out) != n:
        raise CorruptStreamError("LZSS output length mismatch")
    return bytes(out)
