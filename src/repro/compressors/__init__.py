"""Error-bounded and fixed-rate lossy compressors.

Public entry points:

* :class:`repro.compressors.sz.SZCompressor` — prediction-based,
  error-bounded (SZ family; the GPU variant the paper calls GPU-SZ).
* :class:`repro.compressors.zfp.ZFPCompressor` — transform-based,
  fixed-rate (ZFP family; the CUDA variant the paper calls cuZFP).
* :func:`get_compressor` / :func:`available_compressors` — name-based
  registry used by Foresight JSON configs.

``DecimatedSeries``/``decimate`` (which need :mod:`repro.cosmo`) and
``ChunkedCompressor`` (which needs the process executor) are resolved on
first access, so importing the codecs loads neither.
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
from repro.compressors.sz import GPUSZ, SZCompressor
from repro.compressors.temporal import TemporalCompressor, reference_digest
from repro.compressors.zfp import CuZFP, ZFPCompressor
from repro.util.heap import steady_heap
from repro.util.lazy import lazy_exports

# The codecs live on field-sized temporaries; keep glibc recycling them
# instead of faulting them in afresh depending on call history.
steady_heap()

__getattr__, __dir__ = lazy_exports(__name__, {
    "DecimatedSeries": "repro.compressors.decimation",
    "decimate": "repro.compressors.decimation",
    "ChunkedCompressor": "repro.compressors.streaming",
})

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
