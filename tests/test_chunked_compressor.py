"""Tests for chunked compression."""

import numpy as np
import pytest

from repro.compressors import SZCompressor, ZFPCompressor
from repro.compressors.streaming import ChunkedCompressor
from repro.errors import CorruptStreamError, DataError


class TestChunkedCompressor:
    def test_round_trip_and_bound(self, hacc_small):
        chunked = ChunkedCompressor(SZCompressor(), chunk_size=2048)
        data = hacc_small.fields["x"]
        buf = chunked.compress(data, error_bound=0.01, mode="abs")
        recon = chunked.decompress(buf)
        assert recon.shape == data.shape
        assert np.abs(recon - data).max() <= 0.01 + np.spacing(np.float32(256.0))
        assert buf.meta["n_chunks"] == -(-data.size // 2048)

    def test_random_access_chunk(self, hacc_small):
        chunked = ChunkedCompressor(SZCompressor(), chunk_size=4096)
        data = hacc_small.fields["vx"]
        buf = chunked.compress(data, error_bound=1.0, mode="abs")
        third = chunked.decompress_chunk(buf, 2)
        assert np.array_equal(third, chunked.decompress(buf)[2 * 4096 : 3 * 4096])

    def test_chunk_index_out_of_range(self, hacc_small):
        chunked = ChunkedCompressor(SZCompressor(), chunk_size=8192)
        buf = chunked.compress(hacc_small.fields["x"], error_bound=0.1, mode="abs")
        with pytest.raises(DataError):
            chunked.decompress_chunk(buf, 10**6)

    def test_ratio_close_to_monolithic(self, hacc_small):
        data = hacc_small.fields["x"]
        mono = SZCompressor().compress(data, error_bound=0.01)
        chunked = ChunkedCompressor(SZCompressor(), chunk_size=2048).compress(
            data, error_bound=0.01, mode="abs"
        )
        assert chunked.compression_ratio > 0.6 * mono.compression_ratio

    def test_works_with_zfp_via_adapter_modes(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(10000).astype(np.float32)
        chunked = ChunkedCompressor(ZFPCompressor(), chunk_size=1024)
        buf = chunked.compress(data, rate=16.0, mode="fixed_rate")
        assert chunked.decompress(buf).shape == data.shape

    def test_nd_contiguous_round_trip(self):
        # N-D C-contiguous input streams its flat view; decompress
        # restores the shape (Nyx's 3-D fields need no caller reshape).
        rng = np.random.default_rng(3)
        data = rng.standard_normal((16, 8, 8)).astype(np.float32)
        chunked = ChunkedCompressor(SZCompressor(), chunk_size=256)
        buf = chunked.compress(data, error_bound=1e-3, mode="abs")
        recon = chunked.decompress(buf)
        assert recon.shape == data.shape
        assert np.abs(recon - data).max() <= 1e-3 + np.spacing(np.float32(4.0))
        # The stream equals the 1-D stream of the flat view.
        flat = chunked.compress(data.reshape(-1), error_bound=1e-3, mode="abs")
        assert buf.payload == flat.payload

    def test_non_contiguous_rejected(self):
        chunked = ChunkedCompressor(SZCompressor())
        data = np.zeros((8, 8), dtype=np.float32)[:, ::2]
        with pytest.raises(DataError, match="contiguous"):
            chunked.compress(data, error_bound=0.1)

    def test_empty_input_round_trips_params(self):
        # Regression: the zero-chunk stream used to silently default to
        # mode=ABS / parameter=0.0 regardless of the requested knobs.
        chunked = ChunkedCompressor(SZCompressor())
        buf = chunked.compress(
            np.empty(0, dtype=np.float32), pwrel=0.02, mode="pw_rel"
        )
        assert buf.mode.value == "pw_rel"
        assert buf.parameter == 0.02
        assert buf.meta["n_chunks"] == 0
        recon = chunked.decompress(buf)
        assert recon.size == 0
        assert recon.dtype == np.float32

    def test_compress_chunks_matches_in_memory(self, hacc_small):
        # Out-of-core entry point: an iterator of chunk views produces a
        # byte-identical stream to the materialized-array path.
        data = hacc_small.fields["vy"]
        chunked = ChunkedCompressor(SZCompressor(), chunk_size=4096)
        whole = chunked.compress(data, error_bound=0.5, mode="abs")
        streamed = chunked.compress_chunks(
            chunked.iter_input_chunks(data), data.shape, data.dtype,
            error_bound=0.5, mode="abs",
        )
        assert streamed.payload == whole.payload
        assert streamed.original_shape == whole.original_shape

    def test_parallel_chunk_compression_matches_serial(self, hacc_small):
        data = hacc_small.fields["z"]
        chunked = ChunkedCompressor(SZCompressor(), chunk_size=4096)
        serial = chunked.compress(data, error_bound=0.25, mode="abs")
        fanned = chunked.compress(data, workers=2, error_bound=0.25, mode="abs")
        assert fanned.payload == serial.payload

    def test_bad_magic_raises(self):
        chunked = ChunkedCompressor(SZCompressor())
        with pytest.raises(CorruptStreamError):
            chunked.decompress(b"XXXX" + b"\x00" * 32)
