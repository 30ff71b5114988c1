"""Unit tests for the LZSS dictionary coder."""

import numpy as np
import pytest

from repro.errors import CorruptStreamError, DataError
from repro.lossless.lzss import MIN_MATCH, lzss_compress, lzss_decompress

#: ``lzss_compress(b"\0" * 2**22, length_bits=20)`` (5 s to build): a
#: zero literal and four offset-1 matches, 42 bytes that declare 4 MiB.
ZERO_BOMB = bytes.fromhex(
    "4c5a533100004000000000009d0000000000000010140040007ffffe0003fffff000"
    "1fffff8000ffffb0")


class TestLZSS:
    def test_empty(self):
        assert lzss_decompress(lzss_compress(b""), 0) == b""

    def test_short_literal_only(self):
        data = b"ab"
        assert lzss_decompress(lzss_compress(data), len(data)) == data

    def test_repetitive_compresses(self):
        data = b"cosmology" * 500
        comp = lzss_compress(data)
        assert len(comp) < len(data) / 5
        assert lzss_decompress(comp, len(data)) == data

    def test_incompressible_falls_back_to_stored(self):
        rng = np.random.default_rng(0)
        data = bytes(rng.integers(0, 256, 4096, dtype=np.uint8).tobytes())
        comp = lzss_compress(data)
        assert len(comp) <= len(data) + 16
        assert lzss_decompress(comp, len(data)) == data

    def test_overlapping_match(self):
        # 'aaaa...' forces matches overlapping their own output.
        data = b"a" * 1000
        assert lzss_decompress(lzss_compress(data), len(data)) == data

    def test_round_trip_structured(self):
        rng = np.random.default_rng(1)
        data = bytes(rng.choice([65, 66, 67], 5000).astype(np.uint8).tobytes()) * 2
        assert lzss_decompress(lzss_compress(data), len(data)) == data

    def test_bad_magic_raises(self):
        with pytest.raises(CorruptStreamError):
            lzss_decompress(b"BAD!" + b"\x00" * 32, 64)

    def test_min_match_constant(self):
        assert MIN_MATCH == 3

    def test_small_window_parameters(self):
        data = b"abcabcabc" * 100
        comp = lzss_compress(data, offset_bits=8, length_bits=4)
        assert lzss_decompress(comp, len(data)) == data

    def test_field_widths_outside_the_encoders_are_refused(self):
        with pytest.raises(DataError):
            lzss_compress(b"abc", offset_bits=0)
        with pytest.raises(DataError):
            lzss_compress(b"abc", length_bits=33)
        comp = bytearray(lzss_compress(b"abcabcabc" * 10))
        comp[20] = 40  # offset_bits
        with pytest.raises(CorruptStreamError, match="widths"):
            lzss_decompress(bytes(comp), 90)

    def test_declared_size_is_capped(self):
        comp = lzss_compress(b"abcabcabc" * 10)
        assert lzss_decompress(comp, 90) == b"abcabcabc" * 10
        with pytest.raises(CorruptStreamError, match="declares 90 bytes; at most 89"):
            lzss_decompress(comp, 89)
        stored = lzss_compress(bytes(range(200)))
        with pytest.raises(CorruptStreamError, match="at most 199"):
            lzss_decompress(stored, 199)

    def test_match_past_the_declared_size_is_refused(self):
        comp = bytearray(lzss_compress(b"a" * 100))
        comp[4:12] = (50).to_bytes(8, "little")  # n, below the first match's end
        with pytest.raises(CorruptStreamError, match="invalid LZSS match"):
            lzss_decompress(bytes(comp), 100)

    def test_truncated_headers_are_corrupt(self):
        for payload in (b"LZS0\x01", b"LZS1" + b"\x00" * 10):
            with pytest.raises(CorruptStreamError):
                lzss_decompress(payload, 1)

    def test_zero_bomb_is_what_it_claims(self):
        assert len(ZERO_BOMB) == 42
        with pytest.raises(CorruptStreamError, match="declares 4194304 bytes"):
            lzss_decompress(ZERO_BOMB, 2**22 - 1)
        assert lzss_decompress(ZERO_BOMB, 2**22) == b"\0" * 2**22


class TestWritableStreams:
    """A stream handed over as a ``bytearray`` or ``memoryview`` (a
    request buffer) decodes like its ``bytes``, or fails typed."""

    @pytest.fixture(scope="class")
    def sz_lzss(self):
        from repro.compressors.sz import SZCompressor

        field = np.cumsum(
            np.random.default_rng(3).standard_normal((16, 16, 16)), axis=0
        ).astype(np.float32)
        codec = SZCompressor(lossless=["lzss"])
        buf = codec.compress(field, error_bound=1e-2)
        return codec, buf, codec.decompress(buf).tobytes()

    @pytest.mark.parametrize("wrap", [bytearray, memoryview],
                             ids=["bytearray", "memoryview"])
    def test_sz_lzss_stream_decodes_byte_identical(self, sz_lzss, wrap):
        codec, buf, want = sz_lzss
        assert codec.decompress(wrap(buf.payload)).tobytes() == want

    def test_truncated_bytearray_stream_is_corrupt(self, sz_lzss):
        codec, buf, _ = sz_lzss
        for cut in (10, len(buf.payload) // 2, len(buf.payload) - 1):
            with pytest.raises(CorruptStreamError):
                codec.decompress(bytearray(buf.payload[:cut]))

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_lzss_stage_alone(self, wrap):
        data = b"abcabcabd" * 50
        stream = lzss_compress(data)
        assert lzss_decompress(wrap(stream), len(data)) == data
        with pytest.raises(CorruptStreamError):
            lzss_decompress(wrap(stream[:12]), len(data))
