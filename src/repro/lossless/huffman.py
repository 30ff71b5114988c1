"""Canonical, length-limited Huffman coding.

Design notes
------------
* **Length-limited codes.**  Code lengths are computed with the
  package-merge algorithm (Larmore & Hirschberg 1990) under a configurable
  limit (default 16 bits).  A bounded maximum length lets the decoder use
  a lookup table — dense ``2^maxlen`` entries on the numpy tier, two
  levels in C — which is what makes the chunk-parallel decode below a
  table gather instead of a tree walk.
* **Canonical form.**  Only the code *lengths* are serialized (5 bits per
  alphabet symbol); both sides rebuild identical codewords by assigning
  codes in (length, symbol) order.  The ``huffman.code`` kernel builds
  lengths and codes: the functions below on the numpy tier, one C
  function with the same tie-breaking on the native tier.
* **Chunk-parallel decode.**  The encoder records the bit offset of every
  ``chunk_size``-symbol chunk, exactly like cuSZ's coarse-grained GPU
  Huffman codec records per-chunk metadata so each thread block can decode
  its chunk independently.  The decoder then advances *all* chunk cursors
  in lockstep: each iteration gathers ``maxlen`` bits at every cursor,
  looks up (symbol, length) in the dense table, and bumps the cursors —
  ``chunk_size`` iterations of width-``nchunks`` vector operations.  The
  ``huffman.decode`` kernel takes the code lengths; each tier builds its
  own table from them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import CorruptStreamError, DataError
from repro.kernels import call as _kcall
from repro.util.bits import (
    _pack_varlen_numpy,
    pack_fixed_width,
    unpack_fixed_width,
)

_MAGIC = b"HUF1"

#: Serialized record of the sparse code-length table: ``struct "<IB"``.
_SPARSE_RECORD = np.dtype([("symbol", "<u4"), ("length", "u1")])

#: Largest alphabet the stream format admits (max_len <= 24 bounds the
#: number of distinct codewords); lets the decoder size its tables from
#: an untrusted header.
_MAX_ALPHABET = 1 << 24

#: Decode-table entries are ``symbol << _LEN_BITS | length`` (length <= 24).
_LEN_BITS = 5
_LEN_MASK = (1 << _LEN_BITS) - 1

#: What both decode tiers raise for a code length table they cannot use.
TOO_LONG = "code length exceeds declared max_len"
KRAFT = "bad Huffman length table: invalid code lengths (Kraft sum > 1)"


def symbol_dtype(alphabet_size: int) -> np.dtype:
    """The dtype decoded symbols come back in: uint16 while the alphabet
    fits in 16 bits (every SZ stream), int64 beyond."""
    return np.dtype(np.uint16 if alphabet_size <= 1 << 16 else np.int64)


def check_max_len(max_len: int) -> None:
    if not 1 <= max_len <= 24:
        raise DataError("max_len must be in [1, 24]")


def fit_error(n: int, max_len: int) -> DataError:
    """What every tier raises for ``n`` used symbols past ``max_len`` bits."""
    return DataError(f"alphabet of {n} symbols cannot fit in {max_len}-bit codes")


def package_merge_lengths(freqs: np.ndarray, max_len: int) -> np.ndarray:
    """Optimal length-limited code lengths for ``freqs`` (package-merge).

    Zero-frequency symbols get length 0 (no codeword).  Raises
    :class:`DataError` if the alphabet cannot be coded within ``max_len``
    bits (needs ``2^max_len >= number of used symbols``).
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    used = np.flatnonzero(freqs > 0)
    n = used.size
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if n == 0:
        return lengths
    if n == 1:
        lengths[used[0]] = 1
        return lengths
    if n > (1 << max_len):
        raise fit_error(n, max_len)
    lengths[used] = _package_merge_counts(freqs[used], max_len).astype(np.uint8)
    return lengths


def _package_merge_counts(leaf_weights: np.ndarray, max_len: int) -> np.ndarray:
    """Vectorized package-merge: per-used-symbol selection counts.

    Forward pass: per denomination level, stable-sort (leaves first, then
    the packages paired from the level below) and pair adjacent items —
    all as array ops.  Backward pass: select the ``2n - 2`` cheapest
    level-1 items, then propagate selection down through package pairs
    with scatter-adds; a leaf's code length is the number of levels at
    which it is selected.  Identical to summing per-item membership
    vectors, without materializing any.
    """
    n = leaf_weights.size
    orders: list[np.ndarray] = []
    prev_w = np.zeros(0, dtype=np.int64)
    for level in range(max_len, 0, -1):
        weights = np.concatenate([leaf_weights, prev_w])
        order = np.argsort(weights, kind="stable")
        orders.append(order)
        if level == 1:
            break
        sorted_w = weights[order]
        npairs = sorted_w.size // 2
        prev_w = sorted_w[0 : 2 * npairs : 2] + sorted_w[1 : 2 * npairs : 2]

    counts = np.zeros(n, dtype=np.int64)
    sel = np.zeros(orders[-1].size, dtype=np.int64)
    sel[: 2 * n - 2] = 1
    for i in range(len(orders) - 1, -1, -1):
        orig = orders[i]
        leaf = orig < n
        np.add.at(counts, orig[leaf], sel[leaf])
        if i == 0:
            break
        pkg = orig[~leaf] - n
        taken = sel[~leaf]
        sel = np.zeros(orders[i - 1].size, dtype=np.int64)
        np.add.at(sel, 2 * pkg, taken)
        np.add.at(sel, 2 * pkg + 1, taken)
    return counts


def huffman_lengths(freqs: np.ndarray, max_len: int = 16) -> np.ndarray:
    """Code lengths for ``freqs``: classic Huffman, rebuilt with
    package-merge only when the unconstrained tree exceeds ``max_len``.

    The classic construction is much faster than package-merge for the
    large alphabets SZ quantization produces, so it is tried first.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    used = np.flatnonzero(freqs > 0)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if used.size == 0:
        return lengths
    if used.size == 1:
        lengths[used[0]] = 1
        return lengths
    # Two-queue merge: leaves sorted by (weight, symbol) in one queue,
    # merged nodes in creation order in the other.  Merged weights never
    # decrease, so each queue's head is its minimum, and taking the leaf
    # on equal weights reproduces the seed's heap of (weight, tie) items
    # — ties were the symbol index for leaves and larger, increasing
    # numbers for merged nodes — pop for pop, hence the same tree.
    n = used.size
    leaf_weights = freqs[used]
    order = np.argsort(leaf_weights, kind="stable")
    weight = leaf_weights[order].tolist() + [0] * (n - 1)
    parent = [0] * (2 * n - 1)
    leaf, merged = 0, n  # heads of the two queues (node ids)
    for node in range(n, 2 * n - 1):
        for _ in range(2):
            if leaf < n and (merged == node or weight[leaf] <= weight[merged]):
                child, leaf = leaf, leaf + 1
            else:
                child, merged = merged, merged + 1
            parent[child] = node
            weight[node] += weight[child]
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):  # parents precede: ids descend
        depth[node] = depth[parent[node]] + 1
    leaf_depth = np.array(depth[:n], dtype=np.int64)
    if leaf_depth.max() <= max_len:
        lengths[used[order]] = leaf_depth.astype(np.uint8)
        return lengths
    return package_merge_lengths(freqs, max_len)


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codewords given per-symbol lengths.

    Symbols are ordered by (length, symbol index); codes are consecutive
    integers within a length class, shifted when the class length grows.
    Kraft validity is checked and :class:`DataError` raised otherwise.
    """
    lengths = np.asarray(lengths, dtype=np.uint8)
    used = np.flatnonzero(lengths > 0)
    codes = np.zeros(lengths.size, dtype=np.uint64)
    if used.size == 0:
        return codes
    kraft = np.sum(2.0 ** (-lengths[used].astype(np.float64)))
    if kraft > 1.0 + 1e-9:
        raise DataError(f"invalid code lengths (Kraft sum {kraft:.6f} > 1)")
    order = used[np.lexsort((used, lengths[used]))]
    # First-code recurrence: the code of the first symbol of length l is
    # (first[l-1] + count[l-1]) << 1 (0 for the shortest class); within a
    # class codes are consecutive by symbol order.
    lens = lengths[order].astype(np.int64)
    max_l = int(lens[-1])
    class_counts = np.bincount(lens, minlength=max_l + 1)
    first = np.zeros(max_l + 1, dtype=np.int64)
    code = 0
    for ln in range(1, max_l + 1):
        code = (code + int(class_counts[ln - 1])) << 1
        first[ln] = code
    rank = np.arange(order.size, dtype=np.int64) - np.searchsorted(lens, lens)
    codes[order] = (first[lens] + rank).astype(np.uint64)
    return codes


@dataclass(frozen=True)
class HuffmanEncoded:
    """Self-describing Huffman-compressed buffer (see :class:`HuffmanCodec`)."""

    payload: bytes

    def __len__(self) -> int:
        return len(self.payload)


class HuffmanCodec:
    """Canonical length-limited Huffman codec over dense integer alphabets.

    Symbols must be integers in ``[0, alphabet_size)``.  ``chunk_size``
    controls the granularity of the parallel decode (and the offset-table
    overhead: 8 bytes per chunk).
    """

    def __init__(self, max_len: int = 16, chunk_size: int = 4096) -> None:
        check_max_len(max_len)
        if chunk_size < 1:
            raise DataError("chunk_size must be >= 1")
        self.max_len = max_len
        self.chunk_size = chunk_size

    def max_stream_bytes(self, n: int, alphabet_size: int) -> int:
        """Largest stream :meth:`encode` writes for ``n`` symbols of
        ``alphabet_size`` at any chunk size: header, a dense length table,
        one chunk offset per symbol and ``max_len`` bits per symbol."""
        return (struct.calcsize("<4sIIQQI") + 4 + 1 + -(-5 * alphabet_size // 8)
                + 4 + 8 * max(1, n) + -(-n * self.max_len // 8))

    # -- encoding ----------------------------------------------------------

    def encode(
        self,
        symbols: np.ndarray,
        alphabet_size: int | None = None,
        *,
        freqs: np.ndarray | None = None,
    ) -> HuffmanEncoded:
        """Encode ``symbols``.  ``freqs``, when the producer already has
        it (the SZ kernel counts while it quantizes), is the histogram of
        ``symbols`` over exactly ``alphabet_size`` entries and replaces
        the counting pass; only its size and total are checked."""
        symbols = np.ascontiguousarray(symbols).ravel()
        if symbols.size and symbols.dtype.kind != "u" and symbols.min() < 0:
            raise DataError("symbols must be nonnegative")
        # Every tier gathers codes[symbols]: the range check stays even
        # with freqs given (it is a short scan of a narrow array then).
        top = int(symbols.max()) if symbols.size else 0
        if alphabet_size is None:
            alphabet_size = top + 1
        if symbols.size and top >= alphabet_size:
            raise DataError("symbol exceeds declared alphabet size")
        if alphabet_size > _MAX_ALPHABET:
            raise DataError(f"alphabet size must be <= {_MAX_ALPHABET}")
        if freqs is None:
            freqs = np.bincount(symbols, minlength=alphabet_size)
        elif freqs.size != alphabet_size or int(freqs.sum()) != symbols.size:
            raise DataError("freqs does not describe symbols over the alphabet")

        lengths, codes = _kcall("huffman.code", freqs, self.max_len)
        n = symbols.size
        body, total_bits, chunk_bit_offsets = _kcall(
            "huffman.encode", symbols, codes, lengths, self.chunk_size
        )
        nchunks = int(chunk_bit_offsets.size)

        header = struct.pack(
            "<4sIIQQI",
            _MAGIC,
            alphabet_size,
            self.max_len,
            n,
            total_bits,
            self.chunk_size,
        )
        length_table = self._serialize_lengths(lengths, alphabet_size)
        offsets = chunk_bit_offsets.tobytes()
        payload = b"".join(
            [
                header,
                struct.pack("<I", len(length_table)),
                length_table,
                struct.pack("<I", nchunks),
                offsets,
                body,
            ]
        )
        return HuffmanEncoded(payload=payload)

    @staticmethod
    def _serialize_lengths(lengths: np.ndarray, alphabet_size: int) -> bytes:
        """Code-length table: dense 5-bit lengths, or a sparse
        (symbol, length) list when few symbols are used — skewed SZ
        residual streams often use a handful of the 2*radius alphabet."""
        used = np.flatnonzero(lengths > 0)
        dense_bytes = -(-(5 * alphabet_size) // 8)
        sparse_bytes = 4 + 5 * used.size  # u32 count + (u32 symbol, u8 len)
        if sparse_bytes < dense_bytes:
            records = np.empty(used.size, dtype=_SPARSE_RECORD)
            records["symbol"] = used
            records["length"] = lengths[used]
            return b"\x01" + struct.pack("<I", used.size) + records.tobytes()
        return b"\x00" + pack_fixed_width(lengths.astype(np.uint64), 5)

    @staticmethod
    def _deserialize_lengths(blob: bytes, alphabet_size: int) -> np.ndarray:
        if not blob:
            raise CorruptStreamError("empty Huffman length table")
        kind, rest = blob[0], blob[1:]
        lengths = np.zeros(alphabet_size, dtype=np.uint8)
        if kind == 0:
            return unpack_fixed_width(rest, 5, alphabet_size).astype(np.uint8)
        if kind != 1:
            raise CorruptStreamError(f"unknown Huffman table format {kind}")
        (count,) = struct.unpack("<I", rest[:4])
        blob = rest[4 : 4 + 5 * count]
        if len(blob) < 5 * count:
            raise CorruptStreamError("Huffman stream truncated (length table)")
        records = np.frombuffer(blob, dtype=_SPARSE_RECORD)
        symbols = records["symbol"].astype(np.int64)
        if symbols.size and int(symbols.max()) >= alphabet_size:
            raise CorruptStreamError("sparse Huffman table symbol out of range")
        lengths[symbols] = records["length"]
        return lengths

    # -- decoding ----------------------------------------------------------

    def decode(
        self, encoded: HuffmanEncoded | bytes, max_alphabet: int = _MAX_ALPHABET
    ) -> np.ndarray:
        """The symbols of ``encoded``, as :func:`symbol_dtype` of the
        stream's alphabet (also when there are none).  A stream whose
        alphabet exceeds ``max_alphabet`` is corrupt: a caller that knows
        how many symbols its encoder can emit passes that number."""
        payload = encoded.payload if isinstance(encoded, HuffmanEncoded) else encoded
        hsize = struct.calcsize("<4sIIQQI")
        if len(payload) < hsize:
            raise CorruptStreamError("Huffman stream truncated (header)")
        magic, alphabet_size, max_len, n, total_bits, chunk_size = struct.unpack(
            "<4sIIQQI", payload[:hsize]
        )
        if magic != _MAGIC:
            raise CorruptStreamError("bad Huffman magic")
        # Bound every header field by the payload before it sizes an
        # allocation: a symbol costs at least one bit, a dense length
        # table five bits per alphabet entry (the sparse form is checked
        # against its own records in _deserialize_lengths).
        if (not 1 <= max_len <= 24 or chunk_size < 1
                or alphabet_size > min(max_alphabet, _MAX_ALPHABET)
                or not n <= total_bits <= 8 * len(payload)):
            raise CorruptStreamError("inconsistent Huffman stream header")
        try:
            pos = hsize
            (lt_len,) = struct.unpack("<I", payload[pos : pos + 4])
            pos += 4
            lengths = self._deserialize_lengths(
                payload[pos : pos + lt_len], alphabet_size
            )
            pos += lt_len
            (nchunks,) = struct.unpack("<I", payload[pos : pos + 4])
            pos += 4
            if nchunks != max(1, -(-n // chunk_size)):
                raise CorruptStreamError("Huffman chunk count does not match header")
            if len(payload) < pos + 8 * nchunks:
                raise CorruptStreamError("Huffman stream truncated (offsets)")
            chunk_offsets = np.frombuffer(
                payload[pos : pos + 8 * nchunks], dtype=np.uint64
            ).astype(np.int64)
            pos += 8 * nchunks
            if chunk_offsets.min() < 0 or chunk_offsets.max() > total_bits:
                raise CorruptStreamError("Huffman chunk offset out of range")
        except struct.error as exc:
            raise CorruptStreamError(f"Huffman stream truncated: {exc}") from exc
        body = payload[pos:]
        if n == 0:
            return np.zeros(0, dtype=symbol_dtype(alphabet_size))
        if len(body) * 8 < total_bits:
            raise CorruptStreamError("Huffman stream truncated (body)")
        return _kcall(
            "huffman.decode", body, lengths, chunk_offsets,
            n, chunk_size, max_len, total_bits,
        )

    @staticmethod
    def _build_decode_table(lengths: np.ndarray, max_len: int) -> np.ndarray:
        """Dense table: top ``max_len`` bits -> ``symbol << 5 | length``
        (uint32; a length of 0 marks a hole no codeword maps to).  The
        numpy tier decodes with it; the native tier builds the same
        entries as a two-level table (see ``repro_huffman_table_size``).

        Canonical codewords taken in (length, symbol) order own
        consecutive key ranges starting at 0, each ``2^(max_len - length)``
        wide, so the table is those entries repeated — no codeword needs
        to be materialized; lengths whose ranges overrun the table are
        not a prefix code (Kraft sum > 1).
        """
        if int(lengths.max(initial=0)) > max_len:
            raise CorruptStreamError(TOO_LONG)
        table = np.zeros(1 << max_len, dtype=np.uint32)
        used = np.flatnonzero(lengths > 0)
        lens = lengths[used].astype(np.int64)
        order = np.lexsort((used, lens))
        spans = 1 << (max_len - lens[order])
        if int(spans.sum()) > table.size:
            raise CorruptStreamError(KRAFT)
        filled = np.repeat(((used << _LEN_BITS) | lens)[order].astype(np.uint32), spans)
        table[: filled.size] = filled
        return table


# -- ``huffman.code`` / ``huffman.encode`` / ``huffman.decode`` kernels -------
#
# Registered with the kernel registry (repro.kernels.defs); the native
# tier lives in repro.kernels.native.  Uniform signatures across tiers.


def _code_numpy(freqs: np.ndarray, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths, codes)``: :func:`huffman_lengths`, :func:`canonical_codes`."""
    check_max_len(max_len)
    lengths = huffman_lengths(freqs, max_len)
    return lengths, canonical_codes(lengths)


def _chunk_offsets_for(sym_lengths: np.ndarray, n: int, chunk_size: int) -> np.ndarray:
    """Bit offset of every ``chunk_size``-symbol chunk (uint64)."""
    nchunks = max(1, -(-n // chunk_size))
    bit_cumsum = np.concatenate(([0], np.cumsum(sym_lengths)))
    return bit_cumsum[np.arange(nchunks) * chunk_size].astype(np.uint64)


def _encode_chunks_numpy(
    symbols: np.ndarray, codes: np.ndarray, lengths: np.ndarray, chunk_size: int
) -> tuple[bytes, int, np.ndarray]:
    """Fancy-indexed gather + grouped vectorized pack."""
    sym_lengths = lengths[symbols].astype(np.int64)
    offsets = _chunk_offsets_for(sym_lengths, symbols.size, chunk_size)
    if symbols.size == 0:
        return b"", 0, offsets
    body, total_bits = _pack_varlen_numpy(
        np.ascontiguousarray(codes[symbols], dtype=np.uint64), sym_lengths
    )
    return body, total_bits, offsets


def _decode_chunks_numpy(
    body: bytes,
    lengths: np.ndarray,
    chunk_offsets: np.ndarray,
    n: int,
    chunk_size: int,
    max_len: int,
    total_bits: int,
) -> np.ndarray:
    """Lockstep chunk-parallel decode, one dense-table gather per step;
    bits past the body read as zero.  A *complete* canonical code covers
    every key, so the per-step invalid-codeword check is only needed when
    the table has holes (e.g. a single-symbol alphabet)."""
    lengths = np.asarray(lengths, dtype=np.uint8)
    table = HuffmanCodec._build_decode_table(lengths, max_len)
    bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8), bitorder="big")
    end = bits.size  # cursors past it read the zero padding
    bits = np.concatenate([bits, np.zeros(max_len, dtype=np.uint8)])
    nchunks = chunk_offsets.size
    out = np.empty(n, dtype=symbol_dtype(lengths.size))
    cursors = chunk_offsets.copy()
    counts = np.minimum(
        chunk_size, n - np.arange(nchunks, dtype=np.int64) * chunk_size
    )
    weights = (1 << np.arange(max_len - 1, -1, -1)).astype(np.int64)
    window = np.arange(max_len, dtype=np.int64)
    complete = bool((table & _LEN_MASK).all())
    base = np.arange(nchunks, dtype=np.int64) * chunk_size
    # The live-chunk set only shrinks when ``step`` passes a chunk's
    # symbol count, so compact the per-chunk state at those (few)
    # steps and keep the hot loop free of active-set bookkeeping.
    shrink_steps = set(np.unique(counts).tolist())
    cur_live = cursors
    base_live = base
    counts_live = counts
    finished_max = 0
    max_iters = int(counts.max()) if nchunks else 0
    for step in range(max_iters):
        if step in shrink_steps:
            keep = counts_live > step
            finished_max = max(
                finished_max, int(cur_live[~keep].max(initial=0))
            )
            cur_live = cur_live[keep]
            base_live = base_live[keep]
            counts_live = counts_live[keep]
        try:
            keys = bits[cur_live[:, None] + window]
        except IndexError:  # a cursor ran off the padded body: zeros there
            keys = bits[np.minimum(cur_live, end)[:, None] + window]
        entry = table[keys.astype(np.int64) @ weights].astype(np.int64)
        lens = entry & _LEN_MASK
        if not complete and not lens.all():
            raise CorruptStreamError("invalid codeword in Huffman stream")
        out[base_live + step] = entry >> _LEN_BITS
        cur_live += lens
    if max(finished_max, int(cur_live.max(initial=0))) > total_bits:
        raise CorruptStreamError("Huffman decode overran declared bit length")
    return out
