"""repro — reproduction of Jin et al., *Understanding GPU-Based Lossy
Compression for Extreme-Scale Cosmological Simulations* (IPDPS 2020).

Subpackages
-----------
``repro.compressors``
    SZ-family (error-bounded, prediction-based) and ZFP-family
    (fixed-rate, transform-based) lossy compressors, implemented from
    scratch on numpy with the GPU formulations (dual quantization,
    per-block embedded coding).
``repro.lossless``
    Canonical Huffman, LZSS and FPC backends.
``repro.cosmo``
    Synthetic HACC/Nyx data generators, FoF halo finder, power spectra.
``repro.metrics``
    PSNR/MSE/MRE/NRMSE, 3-D SSIM, error distributions.
``repro.gpu``
    Analytic GPU performance model (Table I catalog, PCIe, roofline).
``repro.foresight``
    The CBench / PAT / Cinema benchmarking framework.
``repro.analysis``
    Rate-distortion, pk-ratio, halo-ratio sweeps and the Section V-D
    best-fit configuration optimizer.
``repro.experiments``
    One module per paper table/figure, regenerating its rows/series.
"""

from repro.compressors import (
    CompressedBuffer,
    Compressor,
    CompressorMode,
    CuZFP,
    GPUSZ,
    SZCompressor,
    ZFPCompressor,
    available_compressors,
    get_compressor,
)
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "CompressedBuffer",
    "Compressor",
    "CompressorMode",
    "SZCompressor",
    "GPUSZ",
    "ZFPCompressor",
    "CuZFP",
    "available_compressors",
    "get_compressor",
    "ReproError",
    "__version__",
]
