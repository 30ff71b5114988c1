"""Unit tests for ZFP negabinary mapping and embedded plane coding."""

import numpy as np
import pytest

from repro.compressors.zfp import batch
from repro.compressors.zfp.blockcodec import (
    EBIAS,
    EBITS,
    HEADER_BITS,
    NBMASK,
    _BlockReader,
    _Emitter,
    _rev_bits,
    decode_block_planes,
    encode_block_planes,
    int_to_negabinary,
    negabinary_to_int,
    plane_words,
    words_matrix_to_coeffs,
    words_to_coeffs,
)
from repro.errors import CorruptStreamError


class TestNegabinary:
    def test_known_values(self):
        vals = np.array([0, 1, -1, 2, -2, 5], dtype=np.int64)
        u = int_to_negabinary(vals)
        assert u.tolist() == [0, 1, 3, 6, 2, 0b101]

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(-(2**50), 2**50, 10000)
        assert np.array_equal(negabinary_to_int(int_to_negabinary(vals)), vals)

    def test_bit_length_bounded(self):
        # |i| <= 2^(P-2) must fit in P negabinary bits.
        for p in (8, 16, 30):
            vals = np.array([2 ** (p - 2), -(2 ** (p - 2))], dtype=np.int64)
            u = int_to_negabinary(vals)
            assert int(u.max()).bit_length() <= p

    def test_mask_constant(self):
        assert NBMASK == np.uint64(0xAAAAAAAAAAAAAAAA)


class TestPlaneWords:
    def test_round_trip_via_words_to_coeffs(self):
        rng = np.random.default_rng(1)
        u = rng.integers(0, 2**40, (5, 64)).astype(np.uint64)
        words = plane_words(u, 48)
        for b in range(5):
            back = words_to_coeffs([int(w) for w in words[b]], 64)
            assert np.array_equal(back, u[b])

    def test_matrix_inverse_matches_scalar(self):
        rng = np.random.default_rng(2)
        u = rng.integers(0, 2**30, (7, 16)).astype(np.uint64)
        words = plane_words(u, 32)
        back = words_matrix_to_coeffs(words, 16)
        assert np.array_equal(back, u)

    def test_single_plane_extraction(self):
        u = np.array([[0b1, 0b0, 0b1, 0b1]], dtype=np.uint64)
        words = plane_words(u, 1)
        assert words[0, 0] == 0b1101


class TestRevBits:
    def test_basic(self):
        assert _rev_bits(0b1, 3) == 0b100
        assert _rev_bits(0b110, 3) == 0b011
        assert _rev_bits(0, 0) == 0
        assert _rev_bits(1, 1) == 1

    def test_involution(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            x = int(rng.integers(0, 2**n))
            assert _rev_bits(_rev_bits(x, n), n) == x


def _roundtrip_block(u: np.ndarray, budget: int, nplanes: int = 32):
    """Encode then decode one block at the given bit budget."""
    size = u.size
    words = plane_words(u[None, :], nplanes)[0]
    emitter = _Emitter()
    encode_block_planes(emitter, [int(w) for w in words], size, budget)
    payload, nbits = emitter.pack()
    assert nbits == budget  # exact fixed-rate padding
    value = int.from_bytes(payload, "big") >> (len(payload) * 8 - budget)
    reader = _BlockReader(value, budget)
    out_words = decode_block_planes(reader, nplanes, size, budget)
    return words_to_coeffs(out_words, size)


class TestEmbeddedCoding:
    def test_lossless_with_full_budget(self):
        rng = np.random.default_rng(0)
        u = rng.integers(0, 2**28, 16).astype(np.uint64)
        out = _roundtrip_block(u, budget=16 * 64, nplanes=30)
        assert np.array_equal(out, u)

    def test_truncation_keeps_top_planes(self):
        rng = np.random.default_rng(1)
        u = rng.integers(0, 2**28, 16).astype(np.uint64)
        full = _roundtrip_block(u, 16 * 64, nplanes=30).astype(np.float64)
        small = _roundtrip_block(u, 64, nplanes=30).astype(np.float64)
        # Truncated decode approximates; error bounded by untransmitted planes.
        assert np.abs(small - u.astype(np.float64)).max() < np.abs(u).max()
        assert np.abs(full - u.astype(np.float64)).max() == 0

    def test_more_budget_never_worse(self):
        rng = np.random.default_rng(2)
        u = rng.integers(0, 2**24, 64).astype(np.uint64)
        errs = []
        for budget in (64, 128, 256, 512, 2048):
            out = _roundtrip_block(u, budget)
            # compare in signed space where truncation error is meaningful
            err = np.abs(
                negabinary_to_int(out).astype(np.float64)
                - negabinary_to_int(u).astype(np.float64)
            ).max()
            errs.append(err)
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_all_zero_block(self):
        u = np.zeros(64, dtype=np.uint64)
        out = _roundtrip_block(u, 128)
        assert np.array_equal(out, u)

    def test_single_hot_coefficient(self):
        u = np.zeros(64, dtype=np.uint64)
        u[63] = 1  # worst case for group testing: last position, LSB plane
        out = _roundtrip_block(u, 64 * 64)
        assert np.array_equal(out, u)

    def test_ebits_covers_float64_exponents(self):
        assert EBITS >= 12


class TestPerBlockCoderIsTheBatchedCoder:
    """The per-block coder above is the specification; the batched coder
    (``zfp/batch.py``) is what the numpy tier runs.  Block by block they
    must emit the same bits and invert the same bits — nothing else sits
    between the seed transcription and the shipped coder."""

    @staticmethod
    def _spec_encode(words, e, size, budget, kmin, fixed_rate):
        """One nonzero block through ``encode_block_planes``, framed the
        way a stream frames it: flag, biased exponent, planes."""
        emitter = _Emitter()
        emitter.emit_msb(1, 1)
        emitter.emit_msb(e + EBIAS, EBITS)
        used = HEADER_BITS + encode_block_planes(
            emitter, words, size, budget, kmin=kmin, pad=fixed_rate)
        body, nbits = emitter.pack()
        return body, nbits, used

    @pytest.mark.parametrize("size", [4, 16, 64])
    @pytest.mark.parametrize("fixed_rate", [True, False])
    @pytest.mark.parametrize("kmin", [0, 9])
    def test_same_bits_and_same_inverse(self, size, fixed_rate, kmin):
        planes = 32
        rng = np.random.default_rng(size + kmin)
        # header-only, mid-plane, and more than any block can spend
        budgets = [0, 1, 7, size, 5 * size + 3, planes * (2 * size + 1)]
        for budget in budgets:
            for trial in range(4):
                magnitude = int(rng.integers(1, planes))
                u = rng.integers(0, 1 << magnitude, size).astype(np.uint64)
                u[rng.random(size) < 0.3] = 0
                u[0] |= np.uint64(1)  # a coded block is never all zero
                e = int(rng.integers(-900, 900))
                words = plane_words(u[None, :], planes)
                body, nbits, used = self._spec_encode(
                    words[0].tolist(), e, size, budget, kmin, fixed_rate)

                maxbits = HEADER_BITS + budget if fixed_rate else 0
                b_body, b_nbits, offsets, used_bits = batch.encode_blocks(
                    words, np.array([True]), np.array([e]), size, planes,
                    np.array([budget]), np.array([kmin]), maxbits)
                case = (size, fixed_rate, kmin, budget, trial)
                assert (b_body, b_nbits) == (body, nbits), case
                assert used_bits.tolist() == [used], case
                assert offsets.tolist() == [0, nbits], case

                value = int.from_bytes(body, "big") >> (len(body) * 8 - nbits)
                reader = _BlockReader(value, nbits)
                assert reader.read_bit() == 1
                assert reader.read_msb(EBITS) == e + EBIAS
                spec_words = decode_block_planes(
                    reader, planes, size, nbits - HEADER_BITS, kmin=kmin)

                bits = np.unpackbits(np.frombuffer(body, np.uint8), count=nbits)
                table = np.array([0, nbits], dtype=np.int64)
                nonzero, exps = batch.read_block_headers(bits, table)
                assert nonzero.tolist() == [True] and exps.tolist() == [e]
                got = batch.decode_blocks(
                    np.concatenate([bits, np.zeros(128, np.uint8)]), table,
                    nonzero, planes, size, np.array([nbits - HEADER_BITS]),
                    np.array([kmin]))
                assert got[0].tolist() == spec_words, case
                if budget == budgets[-1] and kmin == 0:
                    assert np.array_equal(
                        words_to_coeffs(spec_words, size), u), case


class TestBlockReader:
    def test_overrun_raises(self):
        reader = _BlockReader(0b101, 3)
        reader.read_msb(3)
        with pytest.raises(CorruptStreamError):
            reader.read_bit()

    def test_msb_order(self):
        reader = _BlockReader(0b10110, 5)
        assert reader.read_bit() == 1
        assert reader.read_msb(4) == 0b0110

    def test_lsb_matches_emitter(self):
        emitter = _Emitter()
        emitter.emit_lsb(0b1011010, 7)
        payload, nbits = emitter.pack()
        value = int.from_bytes(payload, "big") >> (len(payload) * 8 - nbits)
        reader = _BlockReader(value, nbits)
        assert reader.read_lsb(7) == 0b1011010

    def test_long_lsb_chunking(self):
        emitter = _Emitter()
        v = (1 << 50) | 0b1011
        emitter.emit_lsb(v, 55)
        payload, nbits = emitter.pack()
        value = int.from_bytes(payload, "big") >> (len(payload) * 8 - nbits)
        reader = _BlockReader(value, nbits)
        assert reader.read_lsb(55) == v
