"""Unit tests for composable lossless pipelines."""

import pytest

from repro.errors import ConfigError, CorruptStreamError
from repro.lossless.pipeline import LosslessPipeline
from test_lossless_lzss import ZERO_BOMB


class TestPipeline:
    def test_identity_round_trip(self):
        pipe = LosslessPipeline([])
        assert pipe.decompress(pipe.compress(b"data"), 4) == b"data"

    def test_lzss_round_trip(self):
        pipe = LosslessPipeline(["lzss"])
        data = b"xyz" * 1000
        assert pipe.decompress(pipe.compress(data), len(data)) == data

    def test_stream_is_self_describing(self):
        # A pipeline-agnostic decoder can unwind any stream.
        data = b"hello world " * 50
        stream = LosslessPipeline(["lzss"]).compress(data)
        assert LosslessPipeline([]).decompress(stream, len(data)) == data

    def test_unknown_stage_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            LosslessPipeline(["zstd"])

    def test_bad_magic_raises(self):
        with pytest.raises(CorruptStreamError):
            LosslessPipeline().decompress(b"NOPE....", 8)

    def test_repeated_stage_decodes_at_its_exact_size_cap(self):
        # Incompressible bytes make every LZSS pass a stored block, each
        # 12 bytes larger than its input: the inner stages' caps allow it.
        data = bytes(range(256))
        pipe = LosslessPipeline(["lzss", "lzss", "lzss"])
        assert pipe.decompress(pipe.compress(data), len(data)) == data
        # The outer stage is unwound, and refused, first.
        with pytest.raises(CorruptStreamError, match="280 bytes; at most 279"):
            pipe.decompress(pipe.compress(data), len(data) - 1)

    def test_cap_refuses_a_stage_before_it_expands(self):
        stream = b"PIPE" + b"\x04\x00lzss" + ZERO_BOMB
        with pytest.raises(CorruptStreamError, match="declares 4194304 bytes"):
            LosslessPipeline().decompress(stream, 1 << 16)
