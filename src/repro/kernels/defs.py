"""Default backend definitions for the kernel registry.

Pure data: kernel names mapped to ``"module.path:callable"`` strings,
imported lazily by :class:`~repro.kernels.registry.Backend` on first
use, so this module creates no import cycles and costs nothing until a
kernel is actually dispatched.

Kernel catalogue (eight kernels, uniform signatures on both tiers; the
field-granularity contracts are spelled out in
:mod:`repro.compressors.sz.staged` and :mod:`repro.compressors.zfp.staged`):

======================  =====================================================
``sz.encode``           ``(data, error_bound, block_side, predictor, radius)
                        -> (symbols, freqs, outliers, use_reg, coefs,
                        radius)`` — a whole field to its quantization codes:
                        prequantize, Lorenzo and regression residuals,
                        per-block choice, escape split, histogram
``sz.decode``           ``(symbols, outliers, use_reg, coefs, error_bound,
                        block_side, radius, shape, dtype) -> array`` — the
                        sections as ``sz.encode`` emits them (uint16
                        symbols)
``pack.varlen``         ``(codes, lengths) -> (bytes, nbits)`` — MSB-first
                        variable-length bit packing
``huffman.code``        ``(freqs, max_len) -> (lengths, codes)`` — the
                        length-limited canonical code of a histogram
                        (uint8 lengths, uint64 codewords)
``huffman.encode``      ``(symbols, codes, lengths, chunk_size) ->
                        (body, nbits, chunk_offsets)``
``huffman.decode``      ``(body, lengths, chunk_offsets, n, chunk_size,
                        max_len, total_bits) -> symbols`` — each tier builds
                        its decode table from the uint8 code ``lengths``;
                        symbols come back uint16 while the alphabet fits in
                        16 bits, int64 beyond
``zfp.encode``          ``(data, planes, maxbits, kmin_rule) -> (body, nbits,
                        offsets, used_bits, nonzero)`` — a whole field to
                        its block-coded bit blob
``zfp.decode``          ``(body, offsets | maxbits, shape, dtype, planes,
                        kmin_rule) -> array``
======================  =====================================================

Every kernel has a cell on both tiers.
"""

from __future__ import annotations

from repro.kernels.registry import Backend, KernelRegistry

NUMPY_IMPLS = {
    "sz.encode": "repro.compressors.sz.staged:encode",
    "sz.decode": "repro.compressors.sz.staged:decode",
    "pack.varlen": "repro.util.bits:_pack_varlen_numpy",
    "huffman.code": "repro.lossless.huffman:_code_numpy",
    "huffman.encode": "repro.lossless.huffman:_encode_chunks_numpy",
    "huffman.decode": "repro.lossless.huffman:_decode_chunks_numpy",
    "zfp.encode": "repro.compressors.zfp.staged:encode",
    "zfp.decode": "repro.compressors.zfp.staged:decode",
}

NATIVE_IMPLS = {
    "sz.encode": "repro.kernels.native:sz_encode",
    "sz.decode": "repro.kernels.native:sz_decode",
    "pack.varlen": "repro.kernels.native:pack_varlen",
    "huffman.code": "repro.kernels.native:huffman_code",
    "huffman.encode": "repro.kernels.native:huffman_encode",
    "huffman.decode": "repro.kernels.native:huffman_decode",
    "zfp.encode": "repro.kernels.native:zfp_encode",
    "zfp.decode": "repro.kernels.native:zfp_decode",
}


def _native_probe() -> None:
    from repro.kernels import native

    native.probe()


def register_default_backends(registry: KernelRegistry) -> None:
    registry.register(Backend(name="numpy", impls=dict(NUMPY_IMPLS)))
    registry.register(
        Backend(name="native", impls=dict(NATIVE_IMPLS), probe=_native_probe)
    )
