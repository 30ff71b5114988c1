"""ZFP compressor facade: fixed-rate, fixed-precision, fixed-accuracy.

Stream layout::

    magic  b"ZFR1"
    fixed header (struct): version, dtype, ndim, planes, maxbits,
                           nblocks, mode, parameter
    shape  ndim * u64
    offset table ((nblocks + 1) * u64 bit offsets; variable-rate modes only)
    bit blob

Per block (inside the budget):

    1 bit   nonzero flag
    12 bits biased common exponent           (only if nonzero)
    ...     embedded-coded bit planes        (only if nonzero)
    ...     zero padding up to ``maxbits``   (fixed-rate mode only)

Fixed-rate is the paper's cuZFP mode: block ``b`` starts at bit
``b * maxbits``, which is what makes the stream GPU-decodable in
parallel.  Fixed-precision codes a constant number of bit planes per
block; fixed-accuracy truncates planes below a per-block cutoff derived
from the common exponent so the reconstruction error stays under an
absolute tolerance — the CPU-ZFP modes the paper notes were missing from
cuZFP.  Variable-rate streams carry an explicit per-block offset table
(the index a parallel decoder would need).
"""

from __future__ import annotations

import math
import struct
from typing import Any

import numpy as np

from repro import kernels
from repro.compressors.base import CompressedBuffer, Compressor, CompressorMode
from repro.compressors.zfp.blockcodec import HEADER_BITS
from repro.errors import CorruptStreamError, DataError
from repro.telemetry import DEFAULT_BYTE_BUCKETS, get_telemetry
from repro.util.validation import check_dtype, check_shape_nd

_MAGIC = b"ZFR1"
_HDR = "<4sBBBBIQBd"
_DTYPES = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}
_DTYPE_CODES = {v: k for k, v in _DTYPES.items()}

#: Bit planes kept per dtype; headroom notes in blockcodec/transform.
_PLANES = {0: 32, 1: 52}

_MODE_CODES = {
    CompressorMode.FIXED_RATE: 0,
    CompressorMode.FIXED_PRECISION: 1,
    CompressorMode.FIXED_ACCURACY: 2,
}
_CODE_MODES = {v: k for k, v in _MODE_CODES.items()}


def _finite(name: str, value: Any) -> float:
    """A mode knob as a finite float, else :class:`DataError`."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise DataError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise DataError(f"{name} must be finite, got {value}")
    return number


def _kmin_rule(
    mode: CompressorMode, parameter: float, planes: int, ndim: int
) -> tuple[int, bool]:
    """The ``(base, per_exponent)`` plane-cutoff rule of the
    ``zfp.encode`` / ``zfp.decode`` kernels for one stream.

    Fixed-accuracy: truncating planes below ``kmin`` perturbs each
    coefficient by ``< 2^kmin`` lattice units =
    ``2^(kmin + e - (planes-2))`` in value; the inverse transform
    amplifies the max coefficient error by at most ``(15/4)^ndim <
    4^ndim``, so we solve for kmin with that conservative gain (matching
    zfp's accuracy-mode bookkeeping in spirit): ``kmin = base - e`` per
    block, clipped to ``[0, planes]``.
    """
    if mode is CompressorMode.FIXED_RATE:
        return 0, False
    if mode is CompressorMode.FIXED_PRECISION:
        return planes - int(parameter), False
    return math.floor(math.log2(parameter)) - 2 * ndim + (planes - 2), True


class ZFPCompressor(Compressor):
    """Transform-based lossy compressor (ZFP family).

    Knobs (one per mode):

    * ``rate`` — bits per value; exact, data-independent ratio.
    * ``precision`` — bit planes kept per block (variable rate).
    * ``tolerance`` — absolute error bound (variable rate).

    This class validates arguments and packs/parses the stream header;
    the block coding itself is the ``zfp.encode`` / ``zfp.decode``
    kernel pair of the registry (:mod:`repro.kernels`): the staged
    numpy tier of :mod:`repro.compressors.zfp.staged`, or the fused
    one-pass native tier.  Both produce **byte-identical** streams; the
    tier is the process selection (``REPRO_BACKEND`` /
    :func:`repro.kernels.use`), never a per-instance choice.
    """

    name = "zfp"
    supported_modes = (
        CompressorMode.FIXED_RATE,
        CompressorMode.FIXED_PRECISION,
        CompressorMode.FIXED_ACCURACY,
    )

    def compress(
        self,
        data: np.ndarray,
        rate: float | None = None,
        precision: int | None = None,
        tolerance: float | None = None,
        mode: CompressorMode | str | None = None,
        **_: Any,
    ) -> CompressedBuffer:
        mode = self._resolve_mode(mode, rate, precision, tolerance)
        self.check_mode(mode)
        data = np.asarray(data)
        check_dtype(data, _DTYPE_CODES, "data")
        check_shape_nd(data, (1, 2, 3), "data")
        if not np.isfinite(data).all():
            raise DataError("ZFP input must be finite (no NaN/Inf)")

        size = 4**data.ndim
        planes = _PLANES[_DTYPE_CODES[data.dtype]]

        if mode is CompressorMode.FIXED_RATE:
            parameter = _finite("rate", rate)
            # The most a block can code: the header, then per plane every
            # value bit, every group test and the closing one.  A higher
            # rate would only add zero padding.  Clamped before rounding: a
            # huge finite rate times the block size overflows to inf.
            most = HEADER_BITS + planes * (2 * size + 1)
            maxbits = round(min(max(parameter * size, 0.0), most + 1.0))
            if not HEADER_BITS + 1 <= maxbits <= most:
                raise DataError(
                    f"rate {rate} out of range: a {data.ndim}-D {data.dtype} "
                    f"block codes {(HEADER_BITS + 1) / size:.3f} to "
                    f"{most / size:.3f} bits/value"
                )
        elif mode is CompressorMode.FIXED_PRECISION:
            parameter = _finite("precision", precision)
            if not (parameter.is_integer() and 1 <= parameter <= planes):
                raise DataError(
                    f"precision must be an integer in [1, {planes}], got {precision}"
                )
            maxbits = 0
        else:
            parameter = _finite("tolerance", tolerance)
            if parameter <= 0:
                raise DataError("fixed-accuracy mode needs a positive tolerance")
            maxbits = 0

        tm = get_telemetry()
        with tm.span("zfp.encode", bytes=data.nbytes, mode=mode.value,
                     backend=kernels.resolve_name("zfp.encode")):
            body, nbits, offsets, used_bits, nonzero = kernels.call(
                "zfp.encode", data, planes, maxbits,
                _kmin_rule(mode, parameter, planes, data.ndim),
            )
        nblocks = nonzero.size
        fixed_rate = maxbits > 0
        if fixed_rate and nbits != nblocks * maxbits:
            raise AssertionError("fixed-rate invariant violated")
        zero_blocks = nblocks - int(np.count_nonzero(nonzero))
        if tm.enabled:
            tm.count("zfp.emitted_bits", nbits)
            # Bit-plane truncation stats: bits each block actually coded
            # (before any fixed-rate zero padding) — the quantity Fig. 10's
            # rate knob trades against error.
            coded = used_bits[nonzero]
            tm.observe_many("zfp.block_used_bits", coded)
            if fixed_rate:
                tm.count("zfp.padding_bits", int(maxbits * coded.size - coded.sum()))
            tm.count("zfp.zero_blocks", zero_blocks)

        header = struct.pack(
            _HDR,
            _MAGIC,
            2,
            _DTYPE_CODES[data.dtype],
            data.ndim,
            planes,
            maxbits,
            nblocks,
            _MODE_CODES[mode],
            parameter,
        )
        shape_bytes = struct.pack(f"<{data.ndim}Q", *data.shape)
        offset_bytes = b"" if fixed_rate else offsets.tobytes()
        payload = b"".join((header, shape_bytes, offset_bytes, body))
        tm.count("zfp.bytes_in", data.nbytes)
        tm.count("zfp.bytes_out", len(payload))
        tm.observe("zfp.payload_bytes", len(payload), bounds=DEFAULT_BYTE_BUCKETS)
        return CompressedBuffer(
            payload=payload,
            original_shape=data.shape,
            original_dtype=data.dtype,
            mode=mode,
            parameter=parameter,
            meta={
                "maxbits_per_block": maxbits,
                "zero_blocks": zero_blocks,
                "body_bits": int(nbits),
            },
        )

    def decompress(self, buf: CompressedBuffer | bytes) -> np.ndarray:
        payload = buf.payload if isinstance(buf, CompressedBuffer) else buf
        args = self._parse(payload)
        with get_telemetry().span(
                "zfp.decode", bytes=len(payload),
                backend=kernels.resolve_name("zfp.decode")):
            return kernels.call("zfp.decode", *args)

    @classmethod
    def decoded_nbytes(cls, payload: bytes) -> int:
        """Bytes of whole blocks decoding ``payload`` makes, from its header."""
        shape, dtype = cls._parse(payload)[2:4]
        return math.prod(-(-s // 4) * 4 for s in shape) * dtype.itemsize

    @staticmethod
    def _parse(payload: bytes) -> tuple:
        """The ``zfp.decode`` kernel arguments of a ``ZFR1`` stream:
        ``(body, offsets | maxbits, shape, dtype, planes, kmin_rule)``.

        Everything a damaged header could turn into a huge allocation, an
        out-of-range read or a non-``CorruptStreamError`` exception is
        rejected here, before any kernel sees the stream: the decoders
        may assume the body covers every block's bit span.
        """
        hsize = struct.calcsize(_HDR)
        if len(payload) < hsize or payload[:4] != _MAGIC:
            raise CorruptStreamError("bad ZFP stream header")
        (_m, version, dtype_code, ndim, planes, maxbits, nblocks, mode_code,
         parameter) = struct.unpack(_HDR, payload[:hsize])
        if version != 2:
            raise CorruptStreamError(f"unsupported ZFP stream version {version}")
        if mode_code not in _CODE_MODES:
            raise CorruptStreamError(f"unknown ZFP mode code {mode_code}")
        mode = _CODE_MODES[mode_code]
        if dtype_code not in _DTYPES:
            raise CorruptStreamError(f"unknown ZFP dtype code {dtype_code}")
        if not 1 <= ndim <= 3 or planes != _PLANES[dtype_code]:
            raise CorruptStreamError(
                f"bad ZFP stream geometry (ndim {ndim}, planes {planes})"
            )
        pos = hsize + 8 * ndim
        if len(payload) < pos:
            raise CorruptStreamError("ZFP stream truncated (shape)")
        shape = struct.unpack(f"<{ndim}Q", payload[hsize:pos])
        if nblocks != math.prod(-(-s // 4) for s in shape) or nblocks == 0:
            raise CorruptStreamError("ZFP block count does not match shape")

        if mode is CompressorMode.FIXED_RATE:
            if maxbits < HEADER_BITS + 1:
                raise CorruptStreamError(f"bad ZFP block size {maxbits} bits")
            offsets = maxbits
            total_bits = nblocks * maxbits
        else:
            if mode is CompressorMode.FIXED_PRECISION:
                valid = 1 <= parameter <= planes
            else:
                valid = 0 < parameter < math.inf
            if not valid:  # also catches NaN
                raise CorruptStreamError(f"bad ZFP mode parameter {parameter}")
            if len(payload) < pos + 8 * (nblocks + 1):
                raise CorruptStreamError("ZFP stream truncated (offset table)")
            offsets = np.frombuffer(
                payload, dtype=np.uint64, count=nblocks + 1, offset=pos
            ).astype(np.int64)
            pos += 8 * (nblocks + 1)
            if offsets[0] < 0 or np.any(offsets[1:] <= offsets[:-1]):
                raise CorruptStreamError("non-increasing ZFP block offsets")
            total_bits = int(offsets[-1])
        if 8 * (len(payload) - pos) < total_bits:
            raise CorruptStreamError("ZFP stream truncated (body)")
        return (payload[pos:], offsets, shape, _DTYPES[dtype_code], planes,
                _kmin_rule(mode, parameter, planes, ndim))

    @staticmethod
    def _resolve_mode(
        mode: CompressorMode | str | None,
        rate: float | None,
        precision: int | None,
        tolerance: float | None,
    ) -> CompressorMode:
        if isinstance(mode, str):
            mode = CompressorMode(mode)
        knobs = {CompressorMode.FIXED_RATE: rate,
                 CompressorMode.FIXED_PRECISION: precision,
                 CompressorMode.FIXED_ACCURACY: tolerance}
        if mode is None:
            given = [m for m, v in knobs.items() if v is not None]
            if len(given) != 1:
                raise DataError(
                    "pass exactly one of rate=, precision=, tolerance= "
                    "(or an explicit mode=)"
                )
            return given[0]
        # A non-ZFP mode passes: check_mode reports it properly.
        if mode in knobs and knobs[mode] is None:
            raise DataError(f"mode {mode.value} requires its knob argument")
        return mode


class CuZFP(ZFPCompressor):
    """cuZFP as evaluated in the paper: **fixed-rate mode only**.

    Functionally identical streams to :class:`ZFPCompressor` in that mode
    (the CUDA port codes the same layout); the restricted
    ``supported_modes`` models the prototype's limitation the paper works
    around (Section IV-B-1).
    """

    name = "cuzfp"
    supported_modes = (CompressorMode.FIXED_RATE,)
