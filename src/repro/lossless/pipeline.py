"""Composable lossless pipelines.

SZ's lossless stage chains entropy coding with a dictionary coder.  A
:class:`LosslessPipeline` names an ordered list of byte-level stages and
applies/unwinds them; the stream records which pipeline produced it so the
decoder is self-describing.  The stage table is closed: a stream naming
any other stage is corrupt.
"""

from __future__ import annotations

import struct

from repro.errors import ConfigError, CorruptStreamError
from repro.lossless.lzss import STORED_HEADER, lzss_compress, lzss_decompress

_MAGIC = b"PIPE"

#: ``name -> (compress(data), decompress(data, max_output))``.
_STAGES = {
    "identity": (lambda b: b, lambda b, _cap: b),
    "lzss": (lzss_compress, lzss_decompress),
}


class LosslessPipeline:
    """Ordered chain of byte-level lossless stages.

    >>> pipe = LosslessPipeline(["lzss"])
    >>> pipe.decompress(pipe.compress(b"abcabcabc" * 10), 90) == b"abcabcabc" * 10
    True
    """

    def __init__(self, stages: list[str] | None = None) -> None:
        self.stages = list(stages or [])
        for s in self.stages:
            if s not in _STAGES:
                raise ConfigError(f"unknown lossless stage {s!r}")

    def compress(self, data: bytes) -> bytes:
        names = ",".join(self.stages).encode()
        out = data
        for s in self.stages:
            out = _STAGES[s][0](out)
        return _MAGIC + struct.pack("<H", len(names)) + names + out

    def decompress(self, payload: bytes, max_output: int) -> bytes:
        """Unwind the stages; stage ``i`` may output ``max_output`` plus
        what stages ``0..i-1`` can have added."""
        if payload[:4] != _MAGIC:
            raise CorruptStreamError("bad lossless-pipeline magic")
        if len(payload) < 6:
            raise CorruptStreamError("lossless-pipeline stream truncated (header)")
        (nlen,) = struct.unpack("<H", payload[4:6])
        try:
            names = str(payload[6 : 6 + nlen], "ascii")
        except UnicodeDecodeError as exc:
            raise CorruptStreamError("bad lossless-pipeline stage list") from exc
        stages = [s for s in names.split(",") if s]
        out = payload[6 + nlen :]
        for i, s in reversed(list(enumerate(stages))):
            if s not in _STAGES:
                raise CorruptStreamError(f"stream uses unknown stage {s!r}")
            out = _STAGES[s][1](out, max_output + i * STORED_HEADER)
        return out
