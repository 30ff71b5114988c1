"""Unit tests for repro.util.bits."""

import numpy as np
import pytest

from repro.errors import CorruptStreamError, DataError
from repro.util.bits import (
    BitReader,
    BitWriter,
    pack_fixed_width,
    pack_varlen_codes,
    unpack_fixed_width,
)


class TestPackVarlenCodes:
    def test_empty(self):
        payload, nbits = pack_varlen_codes(np.zeros(0, np.uint64), np.zeros(0, np.int64))
        assert payload == b"" and nbits == 0

    def test_single_bit(self):
        payload, nbits = pack_varlen_codes(np.array([1], np.uint64), np.array([1]))
        assert nbits == 1
        assert payload[0] & 0x80  # MSB-first

    def test_zero_length_codes_emit_nothing(self):
        payload, nbits = pack_varlen_codes(
            np.array([7, 0, 3], np.uint64), np.array([3, 0, 2])
        )
        assert nbits == 5
        # 111 then 11 -> 11111xxx
        assert payload[0] >> 3 == 0b11111

    def test_round_trip_fixed_width(self):
        rng = np.random.default_rng(0)
        for width in (1, 5, 8, 13, 32, 57):
            values = rng.integers(0, 2**min(width, 62), 100).astype(np.uint64)
            values &= (np.uint64(1) << np.uint64(width)) - np.uint64(1)
            payload = pack_fixed_width(values, width)
            out = unpack_fixed_width(payload, width, 100)
            assert np.array_equal(out, values), width

    def test_mixed_lengths_concatenate_msb_first(self):
        payload, nbits = pack_varlen_codes(
            np.array([0b1, 0b01, 0b111], np.uint64), np.array([1, 2, 3])
        )
        assert nbits == 6
        assert payload[0] >> 2 == 0b101111

    def test_shape_mismatch_raises(self):
        with pytest.raises(DataError):
            pack_varlen_codes(np.zeros(3, np.uint64), np.zeros(2, np.int64))

    def test_length_out_of_range_raises(self):
        with pytest.raises(DataError):
            pack_varlen_codes(np.zeros(1, np.uint64), np.array([58]))
        with pytest.raises(DataError):
            pack_varlen_codes(np.zeros(1, np.uint64), np.array([-1]))


class TestUnpackFixedWidth:
    def test_too_short_payload_raises(self):
        with pytest.raises(CorruptStreamError):
            unpack_fixed_width(b"\x00", 8, 10)

    def test_width_zero_returns_zeros(self):
        assert np.array_equal(unpack_fixed_width(b"", 0, 5), np.zeros(5))

    def test_invalid_width_raises(self):
        with pytest.raises(DataError):
            unpack_fixed_width(b"\x00" * 100, 60, 1)


class TestBitWriterReader:
    def test_sequential_round_trip(self):
        w = BitWriter()
        values = [(5, 3), (0, 1), (1023, 10), (1, 1), (2**40 - 1, 41)]
        for v, n in values:
            w.write(v, n)
        r = BitReader(w.getvalue(), w.bit_length)
        for v, n in values:
            assert r.read(n) == v
        assert r.remaining == 0

    def test_value_too_large_raises(self):
        w = BitWriter()
        with pytest.raises(DataError):
            w.write(8, 3)

    def test_negative_value_raises(self):
        with pytest.raises(DataError):
            BitWriter().write(-1, 4)

    def test_underflow_raises(self):
        w = BitWriter()
        w.write(3, 2)
        r = BitReader(w.getvalue(), 2)
        r.read(2)
        with pytest.raises(CorruptStreamError):
            r.read(1)

    def test_declared_length_exceeding_payload_raises(self):
        with pytest.raises(CorruptStreamError):
            BitReader(b"\x00", 9)
