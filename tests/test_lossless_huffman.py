"""Unit tests for the canonical length-limited Huffman codec."""

import numpy as np
import pytest

from repro.errors import CorruptStreamError, DataError
from repro.lossless.huffman import (
    HuffmanCodec,
    canonical_codes,
    huffman_lengths,
    package_merge_lengths,
)


class TestLengths:
    def test_two_symbols_get_one_bit(self):
        lengths = huffman_lengths(np.array([5, 3]))
        assert lengths.tolist() == [1, 1]

    def test_single_symbol_gets_one_bit(self):
        lengths = huffman_lengths(np.array([0, 9, 0]))
        assert lengths.tolist() == [0, 1, 0]

    def test_skewed_distribution_shorter_codes_for_frequent(self):
        lengths = huffman_lengths(np.array([100, 10, 10, 1]))
        assert lengths[0] < lengths[3]

    def test_kraft_inequality_holds(self):
        rng = np.random.default_rng(3)
        freqs = rng.integers(0, 1000, 200)
        lengths = huffman_lengths(freqs, max_len=16)
        used = lengths[lengths > 0]
        assert np.sum(2.0 ** (-used.astype(float))) <= 1.0 + 1e-12

    def test_length_limit_respected(self):
        # Fibonacci-like frequencies force deep unconstrained trees.
        freqs = np.array([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377,
                          610, 987, 1597, 2584, 4181, 6765])
        lengths = huffman_lengths(freqs, max_len=8)
        assert lengths.max() <= 8
        used = lengths[lengths > 0]
        assert np.sum(2.0 ** (-used.astype(float))) <= 1.0 + 1e-12

    def test_package_merge_optimality_on_uniform(self):
        # 8 equal frequencies at limit 3 must give exactly 3 bits each.
        lengths = package_merge_lengths(np.ones(8, dtype=np.int64), 3)
        assert lengths.tolist() == [3] * 8

    def test_alphabet_too_large_for_limit_raises(self):
        with pytest.raises(DataError):
            package_merge_lengths(np.ones(9, dtype=np.int64), 3)


class TestCanonicalCodes:
    def test_prefix_free(self):
        lengths = np.array([2, 2, 2, 3, 3], dtype=np.uint8)
        codes = canonical_codes(lengths)
        rendered = [
            format(int(c), f"0{l}b") for c, l in zip(codes, lengths) if l > 0
        ]
        for i, a in enumerate(rendered):
            for j, b in enumerate(rendered):
                if i != j:
                    assert not b.startswith(a)

    def test_invalid_kraft_raises(self):
        with pytest.raises(DataError):
            canonical_codes(np.array([1, 1, 1], dtype=np.uint8))


class TestCodecRoundTrip:
    @pytest.mark.parametrize("n", [0, 1, 2, 100, 5000])
    def test_sizes(self, n):
        rng = np.random.default_rng(n)
        sym = rng.integers(0, 17, n)
        codec = HuffmanCodec()
        out = codec.decode(codec.encode(sym, 17))
        assert np.array_equal(out, sym)

    @pytest.mark.parametrize("n, alphabet", [(0, 4), (1, 2), (216, 2048), (5000, 65536)])
    def test_max_stream_bytes_bounds_the_worst_encode(self, n, alphabet):
        # Uniform symbols, one chunk per symbol: the largest stream the
        # encoder writes, which a lossless stage's output cap must admit.
        codec = HuffmanCodec(max_len=16, chunk_size=1)
        sym = np.random.default_rng(n).integers(0, alphabet, n)
        assert len(codec.encode(sym, alphabet).payload) <= codec.max_stream_bytes(n, alphabet)

    def test_single_symbol_stream(self):
        codec = HuffmanCodec()
        sym = np.full(1000, 7)
        out = codec.decode(codec.encode(sym, 8))
        assert np.array_equal(out, sym)

    def test_skewed_stream_compresses(self):
        rng = np.random.default_rng(0)
        sym = rng.choice([0, 1, 2], size=20000, p=[0.9, 0.09, 0.01])
        enc = HuffmanCodec().encode(sym, 3)
        assert len(enc.payload) < 20000 * 4 / 4  # < 8 bits/symbol easily

    def test_chunk_boundaries(self):
        # Sizes around the chunk size exercise offset bookkeeping.
        codec = HuffmanCodec(chunk_size=64)
        rng = np.random.default_rng(5)
        for n in (63, 64, 65, 128, 129):
            sym = rng.integers(0, 50, n)
            assert np.array_equal(codec.decode(codec.encode(sym, 50)), sym)

    def test_alphabet_larger_than_observed(self):
        codec = HuffmanCodec()
        sym = np.array([0, 2, 4])
        out = codec.decode(codec.encode(sym, 1000))
        assert np.array_equal(out, sym)

    def test_precomputed_freqs_give_the_same_stream(self):
        rng = np.random.default_rng(6)
        sym = np.minimum(rng.geometric(0.05, 5000) - 1, 299)
        codec = HuffmanCodec(chunk_size=97)
        freqs = np.bincount(sym, minlength=300)
        for symbols in (sym, sym.astype(np.uint16)):
            enc = codec.encode(symbols, 300, freqs=freqs)
            assert enc.payload == codec.encode(sym, 300).payload
            assert np.array_equal(codec.decode(enc), sym)
        with pytest.raises(DataError, match="freqs"):
            codec.encode(sym, 300, freqs=freqs[:-1])
        with pytest.raises(DataError, match="freqs"):
            codec.encode(sym[:-1], 300, freqs=freqs)
        with pytest.raises(DataError, match="alphabet"):
            codec.encode(sym, 10, freqs=freqs[:10])

    def test_decode_table_packs_symbol_and_length(self):
        # lengths 1, 2, 3, 3 over symbols 0, 2, 3, 5: codes 0, 10, 110, 111
        lengths = np.array([1, 0, 2, 3, 0, 3], dtype=np.uint8)
        table = HuffmanCodec._build_decode_table(lengths, 4)
        assert table.dtype == np.uint32 and table.size == 16
        assert (table >> 5).tolist() == [0] * 8 + [2] * 4 + [3] * 2 + [5] * 2
        assert (table & 31).tolist() == [1] * 8 + [2] * 4 + [3] * 4
        holes = HuffmanCodec._build_decode_table(lengths[:4], 4)
        assert (holes & 31).tolist() == [1] * 8 + [2] * 4 + [3] * 2 + [0] * 2
        with pytest.raises(CorruptStreamError, match="Kraft"):
            HuffmanCodec._build_decode_table(np.array([1, 1, 1], np.uint8), 4)

    def test_decode_dtype_follows_the_alphabet(self):
        # uint16 while the alphabet fits in 16 bits, int64 beyond; an
        # empty stream follows the same rule
        codec = HuffmanCodec()
        for alphabet, dtype in ((17, np.uint16), (1 << 16, np.uint16),
                                ((1 << 16) + 1, np.int64)):
            for sym in (np.zeros(0, np.int64), np.array([0, 3, alphabet - 1])):
                out = codec.decode(codec.encode(sym, alphabet))
                assert out.dtype == dtype and np.array_equal(out, sym)

    def test_negative_symbol_raises(self):
        with pytest.raises(DataError):
            HuffmanCodec().encode(np.array([-1, 0]), 4)

    def test_symbol_exceeding_alphabet_raises(self):
        with pytest.raises(DataError):
            HuffmanCodec().encode(np.array([5]), 5)

    def test_bad_magic_raises(self):
        with pytest.raises(CorruptStreamError):
            HuffmanCodec().decode(b"XXXX" + b"\x00" * 64)

    def test_truncated_stream_raises(self):
        codec = HuffmanCodec()
        enc = codec.encode(np.arange(100) % 7, 7)
        with pytest.raises(CorruptStreamError):
            codec.decode(enc.payload[: len(enc.payload) // 2])

    def test_constructor_validation(self):
        with pytest.raises(DataError):
            HuffmanCodec(max_len=0)
        with pytest.raises(DataError):
            HuffmanCodec(max_len=25)
        with pytest.raises(DataError):
            HuffmanCodec(chunk_size=0)
