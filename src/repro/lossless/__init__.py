"""From-scratch lossless codecs used as compressor backends.

* :mod:`repro.lossless.huffman` — canonical, length-limited Huffman coding
  with a vectorized encoder and a chunk-parallel decoder mirroring how
  cuSZ's GPU Huffman stage decodes fixed-size chunks in parallel.
* :mod:`repro.lossless.lzss` — a byte-oriented LZ77/LZSS stage standing in
  for the dictionary coder (zstd/gzip) SZ applies after Huffman.
* :mod:`repro.lossless.pipeline` — composable codec chains.
"""

from repro.lossless.fpc import fpc_compress, fpc_decompress
from repro.lossless.huffman import HuffmanCodec
from repro.lossless.lzss import lzss_compress, lzss_decompress
from repro.lossless.pipeline import LosslessPipeline

__all__ = [
    "HuffmanCodec",
    "fpc_compress",
    "fpc_decompress",
    "lzss_compress",
    "lzss_decompress",
    "LosslessPipeline",
]
