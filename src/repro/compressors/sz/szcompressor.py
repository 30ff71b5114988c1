"""The SZ compressor: dual quantization + adaptive prediction + Huffman.

Stream layout (little endian)::

    ABS stream                       PW_REL wrapper
    ----------                       --------------
    magic   b"SZR1"                  magic   b"SZRP"
    fixed header (struct)            fixed header (struct)
    shape   ndim * u64               shape   ndim * u64
    mode-bit section (1 bit/block)   sign-bit section (1 bit/value)
    regression coefficients (f32)    zero-position list (u64 each)
    Huffman payload (maybe LZSS'd)   inner ABS stream of log-magnitudes
    outlier section

The ABS path guarantees ``max |x - x'| <= error_bound``; the PW_REL path
guarantees ``|x - x'| <= pwrel * |x|`` pointwise (zeros exact), using the
logarithmic transformation of Section IV-B-4 of the paper.
"""

from __future__ import annotations

import math
import struct
from typing import Any

import numpy as np

from repro import kernels
from repro.compressors.base import CompressedBuffer, Compressor, CompressorMode
from repro.compressors.sz import quantizer as Q
from repro.errors import CorruptStreamError, DataError
from repro.telemetry import DEFAULT_BYTE_BUCKETS, get_telemetry
from repro.lossless.huffman import HuffmanCodec
from repro.lossless.pipeline import LosslessPipeline
from repro.util.logtransform import LogTransform, pwrel_to_abs_bound
from repro.util.validation import check_dtype, check_shape_nd

_MAGIC_ABS = b"SZR1"
_MAGIC_PWR = b"SZRP"
_HDR_ABS = "<4sBBBBBIdQQQB"
_HDR_PWR = "<4sBBBdQQ"
_DTYPES = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}
_DTYPE_CODES = {v: k for k, v in _DTYPES.items()}
#: Cells per block the encoder takes (3-D: side <= 40); its design matrix
#: and pseudo-inverse grow with the block (side 128: ~400 MiB), not the field.
MAX_BLOCK_CELLS = 65536


def _coerce_mode(mode: CompressorMode | str) -> CompressorMode:
    if isinstance(mode, CompressorMode):
        return mode
    try:
        return CompressorMode(mode)
    except ValueError as exc:
        raise DataError(f"unknown compression mode {mode!r}") from exc


class SZCompressor(Compressor):
    """Prediction-based error-bounded lossy compressor (SZ family).

    Parameters
    ----------
    block_side:
        Side of the independent prediction blocks (SZ uses 6).
    radius:
        Quantization radius; the Huffman alphabet has ``2 * radius``
        symbols, so ``radius <= 32768`` with the default 16-bit codes.
    lossless:
        Optional byte-level stages (e.g. ``["lzss"]``) applied to the
        Huffman payload, mirroring SZ's dictionary-coder stage.
    predictor:
        ``"adaptive"`` (default, per-block choice as in SZ 2.x),
        ``"lorenzo"`` or ``"regression"`` to force one predictor —
        the knob the predictor ablation benchmarks sweep.
    """

    name = "sz"
    supported_modes = (CompressorMode.ABS, CompressorMode.PW_REL)

    _PREDICTORS = ("adaptive", "lorenzo", "regression")

    def __init__(
        self,
        block_side: int = 6,
        radius: int | str = 1024,
        lossless: list[str] | None = None,
        huffman_chunk: int = 1024,
        predictor: str = "adaptive",
    ) -> None:
        if not 2 <= block_side <= 255:
            raise DataError("block_side must be in [2, 255]")
        if radius == "auto":
            self.radius: int | None = None
        else:
            if not isinstance(radius, (int, np.integer)) or not 2 <= radius <= 32768:
                raise DataError("radius must be in [2, 32768] or 'auto'")
            self.radius = int(radius)
        if predictor not in self._PREDICTORS:
            raise DataError(f"predictor must be one of {self._PREDICTORS}")
        self.block_side = block_side
        self.predictor = predictor
        self.pipeline = LosslessPipeline(lossless) if lossless else None
        self.huffman = HuffmanCodec(max_len=16, chunk_size=huffman_chunk)

    _auto_radius = staticmethod(Q.auto_radius)

    # -- public API ---------------------------------------------------------

    def compress(
        self,
        data: np.ndarray,
        error_bound: float | None = None,
        pwrel: float | None = None,
        mode: CompressorMode | str = CompressorMode.ABS,
        **_: Any,
    ) -> CompressedBuffer:
        return self._encode(data, error_bound, pwrel, mode)[0]

    def roundtrip(self, data: np.ndarray, **params: Any) -> tuple[np.ndarray, CompressedBuffer]:
        """An ABS reconstruction is ``sz.decode`` of the sections the encoder
        just built, not of the parsed stream: every stage between them and
        the stream is lossless, so the array is the same to the bit."""
        buf, sections = self._encode(data, **params)
        if sections is None:  # PW_REL
            return self.decompress(buf), buf
        return self._decode(sections), buf

    def _encode(
        self,
        data: np.ndarray,
        error_bound: float | None = None,
        pwrel: float | None = None,
        mode: CompressorMode | str = CompressorMode.ABS,
        **_: Any,
    ) -> tuple[CompressedBuffer, tuple | None]:
        """``(buffer, sz.decode arguments)``; no sections for PW_REL."""
        mode = _coerce_mode(mode)
        self.check_mode(mode)
        data = np.asarray(data)
        check_dtype(data, _DTYPE_CODES, "data")
        check_shape_nd(data, (1, 2, 3), "data")
        if not np.isfinite(data).all():
            raise DataError("SZ input must be finite (no NaN/Inf)")
        if mode is CompressorMode.PW_REL:
            if pwrel is None:
                raise DataError("PW_REL mode requires pwrel=")
            return self._compress_pwrel(data, float(pwrel)), None
        if error_bound is None:
            raise DataError("ABS mode requires error_bound=")
        if not (error_bound > 0 and math.isfinite(error_bound)):
            raise DataError(
                f"error bound must be a positive finite float, got {error_bound}"
            )
        payload, meta, sections = self._compress_abs(data, float(error_bound))
        return CompressedBuffer(
            payload=payload,
            original_shape=data.shape,
            original_dtype=data.dtype,
            mode=CompressorMode.ABS,
            parameter=float(error_bound),
            meta=meta,
        ), sections

    def decompress(self, buf: CompressedBuffer | bytes) -> np.ndarray:
        payload = buf.payload if isinstance(buf, CompressedBuffer) else buf
        magic = payload[:4]
        if magic == _MAGIC_ABS:
            return self._decompress_abs(payload)
        if magic == _MAGIC_PWR:
            return self._decompress_pwrel(payload)
        raise CorruptStreamError(f"bad SZ magic {magic!r}")

    @classmethod
    def decoded_nbytes(cls, payload: bytes) -> int | None:
        """Bytes of block values decoding ``payload`` makes, from its headers
        (``None``: a lossless stage precedes its Huffman payload)."""
        if payload[:4] == _MAGIC_PWR:
            payload = cls._parse_pwrel(payload)[-1]
        elif payload[:4] != _MAGIC_ABS:
            raise CorruptStreamError(f"bad SZ magic {payload[:4]!r}")
        dtype, shape, block_side, lossless, nblocks = cls._parse_abs(payload, False)
        return None if lossless else nblocks * block_side**len(shape) * dtype.itemsize

    # -- ABS path -----------------------------------------------------------

    def _compress_abs(self, data: np.ndarray, eb: float) -> tuple[bytes, dict, tuple]:
        """``(payload, meta, sections)``: ``sections`` are the ``sz.decode``
        arguments, returned rather than kept, as threads share a codec."""
        cells = self.block_side**data.ndim
        if cells > MAX_BLOCK_CELLS:
            raise DataError(f"SZ block side {self.block_side} makes {cells} cells "
                            f"per {data.ndim}-D block; at most {MAX_BLOCK_CELLS}")
        tm = get_telemetry()
        with tm.span("sz.encode", bytes=data.nbytes, predictor=self.predictor,
                     backend=kernels.resolve_name("sz.encode")):
            symbols, freqs, outliers, use_reg, coefs, radius = kernels.call(
                "sz.encode", data, eb, self.block_side, self.predictor,
                self.radius,
            )
        nblocks = use_reg.size

        with tm.span("sz.huffman", bytes=data.nbytes) as huff_span:
            # Serialize only the used prefix of the alphabet: the code-length
            # table costs 5 bits/symbol, which dominates small inputs if the
            # full 2*radius alphabet is always written.
            alphabet = int(np.flatnonzero(freqs)[-1]) + 1
            enc = self.huffman.encode(symbols, alphabet, freqs=freqs[:alphabet])
            huff_span.attrs["alphabet"] = alphabet
            huff_span.attrs["outliers"] = int(outliers.size)
        with tm.span("sz.lossless", bytes=len(enc.payload),
                     stages=0 if self.pipeline is None else len(self.pipeline.stages)):
            huff_payload = enc.payload
            if self.pipeline is not None:
                huff_payload = self.pipeline.compress(huff_payload)
        out = Q.OutlierSection.encode(outliers)
        mode_bits = np.packbits(use_reg, bitorder="big").tobytes()

        header = struct.pack(
            _HDR_ABS,
            _MAGIC_ABS,
            1,  # version
            _DTYPE_CODES[data.dtype],
            data.ndim,
            self.block_side,
            1 if self.pipeline is not None else 0,
            radius,
            eb,
            nblocks,
            out.count,
            len(huff_payload),
            out.width,
        )
        shape_bytes = struct.pack(f"<{data.ndim}Q", *data.shape)
        payload = b"".join(
            [header, shape_bytes, mode_bits, coefs.tobytes(), huff_payload,
             out.payload]
        )
        meta = {
            "predictor_regression_fraction": int(np.count_nonzero(use_reg)) / nblocks,
            "outlier_count": int(out.count),
            "huffman_bits_per_symbol": 8.0 * len(enc.payload) / symbols.size,
        }
        tm.count("sz.bytes_in", data.nbytes)
        tm.count("sz.bytes_out", len(payload))
        tm.count("sz.outliers", out.count)
        tm.observe("sz.huffman_alphabet", alphabet)
        tm.observe("sz.payload_bytes", len(payload), bounds=DEFAULT_BYTE_BUCKETS)
        return payload, meta, (symbols, outliers, use_reg, coefs, eb,
                               self.block_side, radius, data.shape, data.dtype)

    @staticmethod
    def _parse_abs(payload: bytes, sections: bool = True) -> tuple:
        """The checked sections of an ABS stream: ``(dtype, shape, block_side,
        has_pipeline, radius, eb, use_reg, coefs, huff, outliers, nvalues)``;
        with ``sections=False``, of its header: ``(dtype, shape, block_side,
        has_pipeline, nblocks)``."""
        hsize = struct.calcsize(_HDR_ABS)
        if len(payload) < hsize:
            raise CorruptStreamError("SZ stream truncated (header)")
        (_magic, version, dtype_code, ndim, block_side, has_pipeline, radius,
         eb, nblocks, out_count, huff_len, out_width) = struct.unpack(
            _HDR_ABS, payload[:hsize])
        if version != 1:
            raise CorruptStreamError(f"unsupported SZ stream version {version}")
        if dtype_code not in _DTYPES:
            raise CorruptStreamError(f"unknown dtype code {dtype_code}")
        dtype = _DTYPES[dtype_code]
        # Nothing below may allocate or index from a header field that has
        # not been checked against the shape or the payload length.
        if not 1 <= ndim <= 3 or block_side < 2 or not 2 <= radius <= 32768:
            raise CorruptStreamError(f"bad SZ stream geometry (ndim {ndim}, "
                                     f"block side {block_side}, radius {radius})")
        if not (eb > 0 and math.isfinite(eb)):
            raise CorruptStreamError(f"bad SZ error bound {eb}")
        pos = hsize + 8 * ndim
        if len(payload) < pos:
            raise CorruptStreamError("SZ stream truncated (shape)")
        shape = struct.unpack(f"<{ndim}Q", payload[hsize:pos])
        if nblocks != math.prod(-(-s // block_side) for s in shape) or nblocks == 0:
            raise CorruptStreamError("SZ block count does not match shape")
        if not sections:
            return dtype, shape, block_side, has_pipeline, nblocks
        nmode_bytes = -(-nblocks // 8)
        if len(payload) < pos + nmode_bytes:
            raise CorruptStreamError("SZ stream truncated (predictor flags)")
        use_reg = np.unpackbits(
            np.frombuffer(payload[pos : pos + nmode_bytes], dtype=np.uint8),
            count=nblocks, bitorder="big").view(bool)  # 0/1 bytes
        pos += nmode_bytes
        n_reg = int(np.count_nonzero(use_reg))
        ncoef = ndim + 1
        if len(payload) < pos + 4 * ncoef * n_reg + huff_len:
            raise CorruptStreamError("SZ stream truncated (sections)")
        coefs = np.frombuffer(
            payload[pos : pos + 4 * ncoef * n_reg], dtype=np.float32
        ).reshape(n_reg, ncoef)
        pos += 4 * ncoef * n_reg
        huff_payload = payload[pos : pos + huff_len]
        pos += huff_len
        out = Q.OutlierSection(payload=payload[pos:], count=out_count,
                               width=out_width)
        nvalues = nblocks * block_side**ndim
        if (out_count > nvalues or out_width > 57
                or (out_count > 0) != (out_width > 0)
                or out_count * out_width > 8 * len(out.payload)):
            raise CorruptStreamError("bad SZ outlier section")
        return (dtype, shape, block_side, has_pipeline, radius, eb, use_reg,
                coefs, huff_payload, out, nvalues)

    def _decompress_abs(self, payload: bytes) -> np.ndarray:
        (dtype, shape, block_side, has_pipeline, radius, eb, use_reg, coefs,
         huff_payload, outliers, nvalues) = self._parse_abs(payload)
        tm = get_telemetry()
        with tm.span("sz.lossless", bytes=len(huff_payload), direction="decompress"):
            if has_pipeline:
                huff_payload = LosslessPipeline().decompress(
                    huff_payload, self.huffman.max_stream_bytes(nvalues, 2 * radius))
        with tm.span("sz.huffman", bytes=len(huff_payload), direction="decompress"):
            # The encoder's alphabet ends at its last used symbol, at most
            # 2 * radius - 1: uint16 symbols, each a residual it would not
            # have escaped.
            symbols = self.huffman.decode(huff_payload, max_alphabet=2 * radius)
            if symbols.size != nvalues:
                raise CorruptStreamError(
                    f"SZ symbol count {symbols.size} != {nvalues} block values"
                )
            outliers = outliers.decode()
        return self._decode((symbols, outliers, use_reg, coefs, eb, block_side,
                             radius, shape, dtype))

    @staticmethod
    def _decode(sections: tuple) -> np.ndarray:
        with get_telemetry().span("sz.decode", bytes=8 * sections[0].size,
                                  direction="decompress",
                                  backend=kernels.resolve_name("sz.decode")):
            return kernels.call("sz.decode", *sections)

    # -- PW_REL path --------------------------------------------------------

    def _compress_pwrel(self, data: np.ndarray, pwrel: float) -> CompressedBuffer:
        abs_bound = pwrel_to_abs_bound(pwrel)
        logmag, xform = LogTransform.forward(data)
        inner_payload, meta, _ = self._compress_abs(logmag, abs_bound)
        zeros = xform.zeros  # nonnegative int64: the same bytes as u64

        header = struct.pack(
            _HDR_PWR,
            _MAGIC_PWR,
            1,
            _DTYPE_CODES[data.dtype],
            data.ndim,
            pwrel,
            zeros.size,
            len(inner_payload),
        )
        shape_bytes = struct.pack(f"<{data.ndim}Q", *data.shape)
        payload = b"".join(
            [header, shape_bytes, xform.neg_bits.tobytes(), zeros.tobytes(),
             inner_payload]
        )
        meta = dict(meta)
        meta["log_abs_bound"] = abs_bound
        meta["zero_count"] = int(zeros.size)
        return CompressedBuffer(
            payload=payload,
            original_shape=data.shape,
            original_dtype=data.dtype,
            mode=CompressorMode.PW_REL,
            parameter=pwrel,
            meta=meta,
        )

    @staticmethod
    def _parse_pwrel(payload: bytes) -> tuple:
        """The checked sections of a PW_REL stream: ``(dtype, shape,
        neg_bits, zeros, inner)``, ``inner`` the ABS stream of ln|x|."""
        hsize = struct.calcsize(_HDR_PWR)
        if len(payload) < hsize:
            raise CorruptStreamError("SZ PW_REL stream truncated (header)")
        _magic, version, dtype_code, ndim, pwrel, nzeros, inner_len = (
            struct.unpack(_HDR_PWR, payload[:hsize]))
        if version != 1:
            raise CorruptStreamError(f"unsupported SZ PW_REL version {version}")
        if dtype_code not in _DTYPES or not 1 <= ndim <= 3:
            raise CorruptStreamError(
                f"bad SZ PW_REL header (dtype code {dtype_code}, ndim {ndim})")
        dtype = _DTYPES[dtype_code]
        pos = hsize + 8 * ndim
        if len(payload) < pos:
            raise CorruptStreamError("SZ PW_REL stream truncated (shape)")
        shape = struct.unpack(f"<{ndim}Q", payload[hsize:pos])
        n = math.prod(shape)
        nsign_bytes = -(-n // 8)
        if n == 0 or len(payload) < pos + nsign_bytes + 8 * nzeros + inner_len:
            raise CorruptStreamError("SZ PW_REL stream truncated (sections)")
        neg_bits = np.frombuffer(payload[pos : pos + nsign_bytes], dtype=np.uint8)
        pos += nsign_bytes
        zeros = np.frombuffer(payload[pos : pos + 8 * nzeros], dtype=np.uint64)
        pos += 8 * nzeros
        if zeros.size and int(zeros.max()) >= n:
            raise CorruptStreamError("SZ PW_REL zero index out of range")
        inner = payload[pos : pos + inner_len]
        return dtype, shape, neg_bits, zeros, inner

    def _decompress_pwrel(self, payload: bytes) -> np.ndarray:
        dtype, shape, neg_bits, zeros, inner = self._parse_pwrel(payload)
        logmag = self._decompress_abs(inner)
        if logmag.shape != shape:
            raise CorruptStreamError("SZ PW_REL inner stream shape mismatch")
        xform = LogTransform(neg_bits, zeros.astype(np.int64), shape)
        return xform.backward(logmag, dtype)


class GPUSZ(SZCompressor):
    """GPU-SZ as evaluated in the paper.

    Matches the documented restrictions of the prototype: 3-D input only
    and ABS mode only (Section IV-B-1).  PW_REL behaviour is obtained the
    way the paper does it — callers apply the logarithmic transformation
    first (:meth:`compress_pwrel_via_log` automates this and is exactly
    the SZCompressor PW_REL path).  1-D HACC fields must be converted with
    :func:`repro.util.dims.convert_1d_to_3d` before compression.
    """

    name = "gpu-sz"
    supported_modes = (CompressorMode.ABS,)

    def _encode(self, data: np.ndarray, *args: Any, **kw: Any) -> tuple:
        data = np.asarray(data)
        if data.ndim != 3:
            raise DataError(
                "GPU-SZ only supports 3-D data; convert 1-D fields with "
                "repro.util.dims.convert_1d_to_3d (see paper Section IV-B-4)"
            )
        return super()._encode(data, *args, **kw)

    def compress_pwrel_via_log(self, data: np.ndarray, pwrel: float) -> CompressedBuffer:
        """The paper's PW_REL workaround: log transform + ABS compression."""
        if data.ndim != 3:
            raise DataError("GPU-SZ only supports 3-D data")
        return SZCompressor._compress_pwrel(self, data, float(pwrel))
