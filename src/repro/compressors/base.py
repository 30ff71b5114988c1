"""Common compressor API.

Every compressor maps an ndarray to a :class:`CompressedBuffer` (raw bytes
plus bookkeeping) and back.  The paper's evaluation only needs this narrow
contract: CBench treats compressors as black boxes parameterized by a mode
and a single knob (error bound or bitrate).
"""

from __future__ import annotations

import abc
import enum
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import UnsupportedModeError


class CompressorMode(enum.Enum):
    """Compression modes appearing in the paper (Section II-A).

    FIXED_PRECISION and FIXED_ACCURACY are the CPU-ZFP modes the paper
    notes cuZFP lacked at the time ("cuZFP has not supported the ABS mode
    yet"); they are implemented here as the natural extension.
    """

    ABS = "abs"           # absolute error bound
    PW_REL = "pw_rel"     # point-wise relative error bound
    FIXED_RATE = "fixed_rate"  # target bits per value
    FIXED_PRECISION = "fixed_precision"  # bit planes kept per block
    FIXED_ACCURACY = "fixed_accuracy"    # absolute error tolerance (ZFP-style)


@dataclass
class CompressedBuffer:
    """Result of a compression call.

    Attributes
    ----------
    payload:
        The serialized compressed stream (self-describing).
    original_shape / original_dtype:
        Enough to rebuild the array without out-of-band metadata.
    mode / parameter:
        The mode and knob value used (error bound or bitrate).
    meta:
        Free-form per-compressor diagnostics (predictor mix, outlier count,
        plane statistics, ...), surfaced by CBench.
    """

    payload: bytes
    original_shape: tuple[int, ...]
    original_dtype: np.dtype
    mode: CompressorMode
    parameter: float
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def original_nbytes(self) -> int:
        return int(math.prod(self.original_shape)) * self.original_dtype.itemsize

    @property
    def compressed_nbytes(self) -> int:
        return len(self.payload)

    @property
    def compression_ratio(self) -> float:
        """Original size over compressed size (paper's Metric 1)."""
        return self.original_nbytes / max(1, self.compressed_nbytes)

    @property
    def bitrate(self) -> float:
        """Average bits per value of the compressed stream."""
        n = int(math.prod(self.original_shape))
        return 8.0 * self.compressed_nbytes / max(1, n)


class Compressor(abc.ABC):
    """Abstract lossy compressor."""

    #: Registry / display name (e.g. ``"sz"``, ``"cuzfp"``).
    name: str = "abstract"

    #: Modes this implementation accepts.
    supported_modes: tuple[CompressorMode, ...] = ()

    def check_mode(self, mode: CompressorMode) -> None:
        """Raise :class:`UnsupportedModeError` if ``mode`` is unsupported.

        Real GPU codecs at the paper's time were mode-restricted (GPU-SZ:
        ABS only; cuZFP: fixed-rate only); subclasses model that.
        """
        if mode not in self.supported_modes:
            supported = ", ".join(m.value for m in self.supported_modes)
            raise UnsupportedModeError(
                f"{self.name} does not support mode {mode.value!r}; "
                f"supported: {supported}"
            )

    @abc.abstractmethod
    def compress(self, data: np.ndarray, **params: Any) -> CompressedBuffer:
        """Compress ``data``; knobs are compressor-specific keyword args."""

    @abc.abstractmethod
    def decompress(self, buf: CompressedBuffer) -> np.ndarray:
        """Reconstruct the array described by ``buf``."""

    def roundtrip(self, data: np.ndarray, **params: Any) -> tuple[np.ndarray, CompressedBuffer]:
        """``(decompress(buf), buf)`` for ``buf = compress(data, **params)``.

        The reconstruction must be the array ``decompress`` makes of that
        buffer, bit for bit: the temporal closed loop takes its next
        reference from it.  A codec may override this to build it without
        parsing its own stream (SZ decodes its encoder's sections).
        """
        buf = self.compress(data, **params)
        return self.decompress(buf), buf
