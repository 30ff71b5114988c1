"""Property-based tests (hypothesis) for the core invariants.

Each property is the contract a downstream user relies on: round-trip
identity for lossless stages, error-bound satisfaction for lossy ones,
and structural invariants of the analysis substrate.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compressors import SZCompressor, ZFPCompressor
from repro.compressors.sz.quantizer import (
    _unzigzag,
    _zigzag,
    residuals_to_symbols,
    symbols_to_residuals,
)
from repro.compressors.zfp.blockcodec import int_to_negabinary, negabinary_to_int
from repro.compressors.zfp.transform import forward_transform, inverse_transform
from repro.lossless.huffman import HuffmanCodec, canonical_codes, huffman_lengths
from repro.lossless.lzss import lzss_compress, lzss_decompress
from repro.util.bits import pack_varlen_codes, unpack_fixed_width
from repro.util.blocks import block_partition, block_reassemble
from repro.util.logtransform import LogTransform

_slow = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


class TestBitPacking:
    @given(
        hnp.arrays(np.uint64, st.integers(1, 200),
                   elements=st.integers(0, 2**20 - 1)),
        st.integers(1, 20),
    )
    @_slow
    def test_fixed_width_round_trip(self, values, width):
        masked = values & np.uint64((1 << width) - 1)
        payload, nbits = pack_varlen_codes(
            masked, np.full(values.size, width, dtype=np.int64)
        )
        assert nbits == width * values.size
        out = unpack_fixed_width(payload, width, values.size)
        assert np.array_equal(out, masked)


class TestLossless:
    @given(hnp.arrays(np.int64, st.integers(0, 2000),
                      elements=st.integers(0, 300)))
    @_slow
    def test_huffman_round_trip(self, symbols):
        codec = HuffmanCodec(chunk_size=97)  # odd chunk: boundary coverage
        out = codec.decode(codec.encode(symbols, 301))
        assert np.array_equal(out, symbols)

    @given(hnp.arrays(np.int64, st.integers(1, 500),
                      elements=st.integers(0, 10**6)))
    @_slow
    def test_huffman_lengths_kraft(self, symbols):
        freqs = np.bincount(symbols % 64, minlength=64)
        lengths = huffman_lengths(freqs, max_len=16)
        used = lengths[lengths > 0]
        if used.size:
            assert np.sum(2.0 ** (-used.astype(float))) <= 1.0 + 1e-9
            canonical_codes(lengths)  # must not raise

    @given(st.binary(max_size=3000))
    @_slow
    def test_lzss_round_trip(self, data):
        assert lzss_decompress(lzss_compress(data), len(data)) == data


class TestQuantizer:
    @given(hnp.arrays(np.int64, st.integers(1, 500),
                      elements=st.integers(-(10**9), 10**9)))
    @_slow
    def test_zigzag_bijection(self, v):
        assert np.array_equal(_unzigzag(_zigzag(v)), v)

    @given(
        hnp.arrays(np.int64, st.integers(1, 500),
                   elements=st.integers(-(10**6), 10**6)),
        st.integers(2, 2048),
    )
    @_slow
    def test_symbols_round_trip(self, residuals, radius):
        sym, out = residuals_to_symbols(residuals, radius)
        assert np.array_equal(symbols_to_residuals(sym, out, radius), residuals)
        assert sym.min() >= 0 and sym.max() < 2 * radius


class TestNegabinaryAndTransform:
    @given(hnp.arrays(np.int64, st.integers(1, 300),
                      elements=st.integers(-(2**50), 2**50)))
    @_slow
    def test_negabinary_bijection(self, v):
        assert np.array_equal(negabinary_to_int(int_to_negabinary(v)), v)

    @given(hnp.arrays(np.int64, (5, 4, 4, 4),
                      elements=st.integers(-(2**30), 2**30)))
    @_slow
    def test_transform_rounding_bounded(self, blocks):
        # The integer lifting scheme drops fractional bits on every axis
        # pass, so the round trip is only bounded, not exact.  The
        # documented worst case (see the derivation in zfp/transform.py)
        # is E_3 <= E_1 + (15/4)*E_2 ~= 37.6, rounded up to 40 for the
        # inverse pass's own shift slack — O(1), independent of the
        # 2^30 input magnitude.  The old bound of 64 was pure margin.
        out = inverse_transform(forward_transform(blocks))
        assert np.abs(out - blocks).max() <= 40

    def test_transform_rounding_adversarial_case(self):
        # Pinned worst case from a randomized greedy search over residue
        # blocks [-8, 8)^4^3: roundtrip error exactly 30 — beyond
        # anything hypothesis found (26), within the derived bound of 40.
        # Guards against a "fix" that silently worsens the rounding.
        block = np.array([
            1, -4, -4, 1, 6, -2, -3, 5, -5, -3, -7, 2, 6, -7, -8, -2,
            -5, 6, -5, 5, -4, 1, -4, -6, -5, 0, 7, -5, 3, -5, -4, -6,
            -3, 3, -2, -2, -8, 1, 6, 0, -1, -4, -5, 1, 0, 3, 7, -2,
            -3, 0, 5, -2, 4, 2, -5, -4, -8, -5, -7, 0, 7, 1, 4, 1,
        ], dtype=np.int64).reshape(1, 4, 4, 4)
        for offset in (0, np.int64(1) << 40):  # magnitude independence
            shifted = block + offset
            out = inverse_transform(forward_transform(shifted))
            assert np.abs(out - shifted).max() == 30


class TestBlocks:
    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 20)),
                   elements=st.floats(-1e6, 1e6)),
        st.integers(2, 7),
    )
    @_slow
    def test_partition_reassemble_identity(self, data, side):
        blocks, grid, orig = block_partition(data, (side, side))
        assert np.array_equal(block_reassemble(blocks, grid, orig), data)


class TestLogTransform:
    @given(hnp.arrays(np.float64, st.integers(1, 300),
                      elements=st.floats(-1e8, 1e8, allow_nan=False)))
    @_slow
    def test_forward_backward_identity(self, data):
        logmag, xform = LogTransform.forward(data)
        out = xform.backward(logmag)
        assert np.allclose(out, data, rtol=1e-9, atol=1e-300)


class TestCompressorContracts:
    @given(
        hnp.arrays(np.float32, st.tuples(st.integers(6, 24), st.integers(6, 24)),
                   elements=st.floats(-1e4, 1e4, width=32)),
        st.sampled_from([1e-1, 1e-2, 1e-3]),
    )
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sz_abs_error_bound_always_holds(self, data, eb):
        sz = SZCompressor()
        recon = sz.decompress(sz.compress(data, error_bound=eb))
        tol = float(np.spacing(np.abs(data).max())) if data.size else 0.0
        err = np.abs(recon.astype(np.float64) - data.astype(np.float64)).max()
        assert err <= eb + tol

    @given(
        hnp.arrays(np.float32, st.tuples(st.integers(4, 16), st.integers(4, 16)),
                   elements=st.floats(-1e6, 1e6, width=32)),
        st.sampled_from([4.0, 8.0, 16.0]),
    )
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_zfp_round_trip_shape_and_rate(self, data, rate):
        zfp = ZFPCompressor()
        buf = zfp.compress(data, rate=rate)
        recon = zfp.decompress(buf)
        assert recon.shape == data.shape
        # Fixed-rate invariant: payload is exactly maxbits per (padded) block.
        nblocks = int(np.prod([-(-s // 4) for s in data.shape]))
        body_bits = nblocks * buf.meta["maxbits_per_block"]
        assert len(buf.payload) * 8 >= body_bits

    @given(
        hnp.arrays(np.float32, st.integers(10, 500),
                   elements=st.floats(-1e5, 1e5, width=32).filter(lambda x: x == 0 or abs(x) > 1e-20)),
    )
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sz_pwrel_bound_always_holds(self, data):
        sz = SZCompressor()
        recon = sz.decompress(sz.compress(data, pwrel=0.05, mode="pw_rel"))
        nz = data != 0
        if nz.any():
            rel = np.abs(
                (recon[nz].astype(np.float64) - data[nz]) / data[nz].astype(np.float64)
            )
            assert rel.max() <= 0.05 * (1 + 1e-4)
        assert np.all(recon[~nz] == 0)


def _mutation_streams():
    """(codec, payload) for every stream family a damaged header can hit."""
    rng = np.random.default_rng(0)
    f3 = (rng.standard_normal((9, 10, 11)) * 10).astype(np.float32)
    f1 = rng.standard_normal(300)
    zfp, sz, sz_lz = ZFPCompressor(), SZCompressor(), SZCompressor(lossless=["lzss"])
    return [
        (zfp, zfp.compress(f3, rate=6.0).payload),
        (zfp, zfp.compress(f3, precision=12).payload),
        (zfp, zfp.compress(f1, tolerance=1e-2).payload),
        (sz, sz.compress(f3, error_bound=0.05).payload),
        (sz_lz, sz_lz.compress(f3, error_bound=0.5).payload),
        (sz, sz.compress(np.abs(f3) + 0.1, mode="pw_rel", pwrel=0.01).payload),
    ]


_MUTATION_STREAMS = _mutation_streams()

#: Fixed-header sizes; all three layouts keep the dtype code in byte 5,
#: ndim in byte 6 and the shape right after the fixed header.
_HEADER_SIZES = {b"ZFR1": 29, b"SZR1": 46, b"SZRP": 31}


class TestStreamMutation:
    """Decoders facing damaged bytes: ``CorruptStreamError`` or an array of
    the shape and dtype the (damaged) header declares — never another
    exception, never an allocation the payload length cannot justify."""

    @given(
        st.integers(0, len(_MUTATION_STREAMS) - 1),
        st.one_of(
            st.tuples(st.just("truncate"), st.floats(0, 1)),
            st.tuples(st.just("bit-flip"), st.floats(0, 1), st.integers(0, 7)),
            # length-lie: a header integer replaced by an arbitrary value
            st.tuples(st.just("lie"), st.integers(4, 60),
                      st.binary(min_size=1, max_size=8)),
        ),
    )
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_corrupt_or_declared_shape(self, which, mutation):
        import struct

        from repro.errors import CorruptStreamError

        codec, payload = _MUTATION_STREAMS[which]
        damaged = bytearray(payload)
        if mutation[0] == "truncate":
            damaged = damaged[: int(mutation[1] * len(damaged))]
        elif mutation[0] == "bit-flip":
            # bias towards the headers: half the flips land in the first 128 bytes
            span = len(damaged) if mutation[1] > 0.5 else min(128, len(damaged))
            damaged[int(mutation[1] * 2 % 1 * (span - 1))] ^= 1 << mutation[2]
        else:
            damaged[mutation[1] : mutation[1] + len(mutation[2])] = mutation[2]
        damaged = bytes(damaged)
        try:
            with np.errstate(all="ignore"):  # garbage in, garbage floats out
                out = codec.decompress(damaged)
        except CorruptStreamError:
            return
        hsize = _HEADER_SIZES[damaged[:4]]
        shape = struct.unpack(f"<{damaged[6]}Q", damaged[hsize : hsize + 8 * damaged[6]])
        assert out.shape == shape
        assert out.dtype == {0: np.float32, 1: np.float64}[damaged[5]]
