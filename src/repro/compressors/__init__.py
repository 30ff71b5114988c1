"""Error-bounded and fixed-rate lossy compressors.

Public entry points:

* :class:`repro.compressors.sz.SZCompressor` — prediction-based,
  error-bounded (SZ family; the GPU variant the paper calls GPU-SZ).
* :class:`repro.compressors.zfp.ZFPCompressor` — transform-based,
  fixed-rate (ZFP family; the CUDA variant the paper calls cuZFP).
* :func:`get_compressor` / :func:`available_compressors` — name-based
  registry used by Foresight JSON configs.
"""

from repro.compressors.base import (
    CompressedBuffer,
    Compressor,
    CompressorMode,
)
from repro.compressors.registry import (
    available_compressors,
    get_compressor,
    register_compressor,
)
from repro.compressors.adapters import Reshaped3D
from repro.compressors.decimation import DecimatedSeries, decimate
from repro.compressors.streaming import ChunkedCompressor
from repro.compressors.sz import GPUSZ, SZCompressor
from repro.compressors.temporal import TemporalCompressor, reference_digest
from repro.compressors.zfp import CuZFP, ZFPCompressor
from repro.util.heap import steady_heap

# The codecs live on field-sized temporaries; keep glibc recycling them
# instead of faulting them in afresh depending on call history.
steady_heap()

__all__ = [
    "CompressedBuffer",
    "Compressor",
    "CompressorMode",
    "available_compressors",
    "get_compressor",
    "register_compressor",
    "SZCompressor",
    "GPUSZ",
    "ZFPCompressor",
    "CuZFP",
    "Reshaped3D",
    "DecimatedSeries",
    "decimate",
    "ChunkedCompressor",
    "TemporalCompressor",
    "reference_digest",
]
