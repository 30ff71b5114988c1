"""Default backend definitions for the kernel registry.

Pure data: kernel names mapped to ``"module.path:callable"`` strings,
imported lazily by :class:`~repro.kernels.registry.Backend` on first
use, so this module creates no import cycles and costs nothing until a
kernel is actually dispatched.

Kernel catalogue (nine kernels, uniform signatures across tiers; the
field-granularity contracts are spelled out in
:mod:`repro.compressors.sz.staged` and :mod:`repro.compressors.zfp.staged`):

======================  =====================================================
``sz.encode``           ``(data, error_bound, block_side, predictor, radius)
                        -> (symbols, freqs, outliers, use_reg, coefs,
                        radius)`` — a whole field to its quantization codes:
                        prequantize, Lorenzo and regression residuals,
                        per-block choice, escape split, histogram
``sz.decode``           ``(symbols, outliers, use_reg, coefs, error_bound,
                        block_side, radius, shape, dtype) -> array``
``pack.varlen``         ``(codes, lengths) -> (bytes, nbits)`` — MSB-first
                        variable-length bit packing
``huffman.package_merge``  ``(leaf_weights, max_len) -> counts`` (no native)
``huffman.canonical``   ``(lengths, order) -> codes`` (no native)
``huffman.encode``      ``(symbols, codes, lengths, chunk_size) ->
                        (body, nbits, chunk_offsets)``
``huffman.decode``      ``(body, table, chunk_offsets, n, chunk_size, max_len,
                        total_bits) -> symbols`` — ``table`` is uint32,
                        ``symbol << 5 | length`` per ``max_len``-bit key
``zfp.encode``          ``(data, planes, maxbits, kmin_rule) -> (body, nbits,
                        offsets, used_bits, nonzero)`` — a whole field to
                        its block-coded bit blob
``zfp.decode``          ``(body, offsets | maxbits, shape, dtype, planes,
                        kmin_rule) -> array``
======================  =====================================================

A tier may omit kernels (``native`` has no package-merge: length
computation is a cold path); resolution simply continues down the tier
list for those, which is visible in ``kernels.active()``.
"""

from __future__ import annotations

from repro.kernels.registry import Backend, KernelRegistry

SCALAR_IMPLS = {
    "sz.encode": "repro.compressors.sz.staged:encode",
    "sz.decode": "repro.compressors.sz.staged:decode",
    "pack.varlen": "repro.util.bits:_pack_varlen_scalar",
    "huffman.package_merge":
        "repro.lossless.huffman:_package_merge_counts_scalar",
    "huffman.canonical": "repro.lossless.huffman:_canonical_codes_scalar",
    "huffman.encode": "repro.lossless.huffman:_encode_chunks_scalar",
    "huffman.decode": "repro.lossless.huffman:_decode_chunks_scalar",
    "zfp.encode": "repro.compressors.zfp.staged:encode_scalar",
    "zfp.decode": "repro.compressors.zfp.staged:decode_scalar",
}

NUMPY_IMPLS = {
    # The seed SZ stages were already numpy expressions, so the scalar
    # and numpy tiers share one staged implementation.
    "sz.encode": "repro.compressors.sz.staged:encode",
    "sz.decode": "repro.compressors.sz.staged:decode",
    "pack.varlen": "repro.util.bits:_pack_varlen_numpy",
    "huffman.package_merge": "repro.lossless.huffman:_package_merge_counts",
    "huffman.canonical": "repro.lossless.huffman:_canonical_codes_numpy",
    "huffman.encode": "repro.lossless.huffman:_encode_chunks_numpy",
    "huffman.decode": "repro.lossless.huffman:_decode_chunks_numpy",
    "zfp.encode": "repro.compressors.zfp.staged:encode_numpy",
    "zfp.decode": "repro.compressors.zfp.staged:decode_numpy",
}

NATIVE_IMPLS = {
    "sz.encode": "repro.kernels.native:sz_encode",
    "sz.decode": "repro.kernels.native:sz_decode",
    "pack.varlen": "repro.kernels.native:pack_varlen",
    "huffman.encode": "repro.kernels.native:huffman_encode",
    "huffman.decode": "repro.kernels.native:huffman_decode",
    "zfp.encode": "repro.kernels.native:zfp_encode",
    "zfp.decode": "repro.kernels.native:zfp_decode",
}


def _native_probe() -> None:
    from repro.kernels import native

    native.probe()


def register_default_backends(registry: KernelRegistry) -> None:
    registry.register(Backend(name="scalar", impls=dict(SCALAR_IMPLS)))
    registry.register(Backend(name="numpy", impls=dict(NUMPY_IMPLS)))
    registry.register(
        Backend(name="native", impls=dict(NATIVE_IMPLS), probe=_native_probe)
    )
