"""Temporal (delta/keyframe) compression for snapshot *sequences*.

The paper's deployment scenario is in-situ: a simulation emits one
snapshot every few timesteps and compression has to keep pace on the
node.  Consecutive outputs are strongly correlated (the growth factor
moves, the realization does not — see :mod:`repro.cosmo.timeseries`),
so an error-bounded codec spends most of its bits re-describing
structure it already shipped one step earlier.  `TemporalCompressor`
removes that redundancy: each snapshot is delta-coded against the
*previous decompressed* snapshot and only the residual goes to the
inner codec (any registered SZ/ZFP/decimation-style compressor).

Two properties are load-bearing and deliberately engineered:

**No error accumulation.**  The reference is always the previous
*decompressed* snapshot — exactly the array the decoder will hold after
decoding the previous frame — never the previous original.  The
encoder-side reconstruction ``ref + decode(residual)`` and the
decoder-side reconstruction are therefore the same array, and the
pointwise error of step *t* is the inner codec's error on the step-*t*
residual alone: for an ABS bound ``e`` the error at step 50 is ``<= e``,
not ``<= 50 e``.  (Closed-loop prediction — the same trick DPCM and
video codecs use.)

**Stateless, self-describing decode.**  Every frame is a ``TMP1``
stream: magic, a keyframe flag, the step index, the inner codec's name
and knob, and the blake2b digest of the reference frame the delta was
taken against.  A keyframe (every ``keyframe_every`` steps, always the
first frame) needs no history at all; a delta frame checks the recorded
reference digest against the decoder's current reference and raises
:class:`~repro.errors.CorruptStreamError` on any mismatch — a desynced
consumer fails fast instead of silently decoding garbage.

The encoder and decoder sides keep *independent* state, so one instance
can encode a live stream while verifying its own output; :meth:`reset`
clears both, and :meth:`decode_series` replays a whole recorded session
from scratch without touching live decoder state.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Any

import numpy as np

from repro.compressors.base import CompressedBuffer, Compressor, CompressorMode
from repro.compressors.registry import get_compressor
from repro.errors import CorruptStreamError, DataError

__all__ = ["TemporalCompressor", "reference_digest", "TMP_MAGIC"]

#: Frame magic of the temporal stream format (version 1).
TMP_MAGIC = b"TMP1"

#: magic + flags byte + u32 header length.
_PREFIX = struct.Struct(">4sBI")

_FLAG_KEYFRAME = 0x01


def reference_digest(arr: np.ndarray) -> str:
    """Content digest of a reference snapshot (dtype, shape, raw bytes).

    This is the identity delta frames are validated against — and the
    component the service folds into cache/session keys so two sessions
    at the same (codec, bound, data) can never collide on cached bytes.
    """
    a = np.ascontiguousarray(arr)
    h = hashlib.blake2b(digest_size=16)
    h.update(a.dtype.str.encode())
    h.update(repr(a.shape).encode())
    h.update(a.reshape(-1).view(np.uint8))  # hashed in place, no copy
    return h.hexdigest()


def _coerce_mode(mode: CompressorMode | str) -> CompressorMode:
    return mode if isinstance(mode, CompressorMode) else CompressorMode(str(mode))


def _reconstruct(ref: np.ndarray, decoded: np.ndarray) -> np.ndarray:
    """``ref + decoded`` in the field's dtype: the one formula encoder and
    decoder both use.  For binary32 operands it equals summing in float64
    and casting back: binary64 holds more than 2·24+2 bits, so rounding
    twice equals rounding once (the same holds for the encoder's residual
    ``data - ref``)."""
    return np.add(ref, decoded, dtype=ref.dtype)


class TemporalCompressor(Compressor):
    """Delta/keyframe wrapper around any registered codec (see module doc).

    Parameters
    ----------
    inner:
        Inner codec: a registry name (``"sz"``, ``"zfp"``, ...) or a
        ready :class:`~repro.compressors.base.Compressor` instance.
    keyframe_every:
        Emit a self-contained keyframe every K steps (K >= 1; 1 means
        every frame is independent and temporal coding is a no-op).
    inner_options:
        Constructor options for a named inner codec.

    >>> import numpy as np
    >>> tc = TemporalCompressor(inner="sz", keyframe_every=4)
    >>> a = np.linspace(0, 1, 64, dtype=np.float32).reshape(4, 4, 4)
    >>> buf = tc.compress(a, mode="abs", error_bound=1e-3)
    >>> bool(buf.meta["keyframe"])
    True
    >>> bool(np.max(np.abs(tc.decompress(buf) - a)) <= 1e-3)
    True
    """

    name = "temporal"

    def __init__(
        self,
        inner: str | Compressor = "sz",
        keyframe_every: int = 8,
        inner_options: dict[str, Any] | None = None,
    ) -> None:
        if isinstance(inner, Compressor):
            if inner_options:
                raise DataError(
                    "inner_options only apply to a named inner codec"
                )
            self.inner = inner
        else:
            self.inner = get_compressor(inner, **(inner_options or {}))
        if isinstance(self.inner, TemporalCompressor):
            raise DataError("temporal cannot wrap another temporal codec")
        if not isinstance(keyframe_every, (int, np.integer)) or keyframe_every < 1:
            raise DataError(
                f"keyframe_every must be an int >= 1, got {keyframe_every!r}"
            )
        self.keyframe_every = int(keyframe_every)
        self.inner_options = dict(inner_options or {})
        # PW_REL would bound a delta frame relative to the *residual*, not
        # to the snapshot it reconstructs: no such bound holds per step.
        self.supported_modes = tuple(
            m for m in self.inner.supported_modes if m is not CompressorMode.PW_REL
        )
        self.reset()

    # -- state -------------------------------------------------------------

    @property
    def step(self) -> int:
        """How many frames the encoder side has produced."""
        return self._enc_step

    @property
    def encode_reference_digest(self) -> str | None:
        """Digest of the current encoder reference (``None`` before step 1)."""
        return self._enc_digest

    @property
    def decode_reference_digest(self) -> str | None:
        """Digest of the current decoder reference (``None`` before step 1)."""
        return self._dec_digest

    def reset(self) -> None:
        """Forget all encoder and decoder state (next frame is a keyframe).

        Each reference is held with its digest, hashed once when the
        reference is assigned: a step reads it for the frame header, the
        desync check and ``ref_after`` without hashing again.
        """
        self._enc_ref: np.ndarray | None = None
        self._enc_digest: str | None = None
        self._enc_step = 0
        self._dec_ref: np.ndarray | None = None
        self._dec_digest: str | None = None
        self._dec_step = 0

    # -- encode ------------------------------------------------------------

    def compress(
        self,
        data: np.ndarray,
        mode: CompressorMode | str = CompressorMode.ABS,
        **params: Any,
    ) -> CompressedBuffer:
        mode = _coerce_mode(mode)
        self.check_mode(mode)
        data = np.asarray(data)
        keyframe = (
            self._enc_ref is None
            or self._enc_step % self.keyframe_every == 0
            or self._enc_ref.shape != data.shape
            or self._enc_ref.dtype != data.dtype
        )
        ref_digest = None if keyframe else self._enc_digest
        # ``roundtrip`` hands back the reconstruction the decoder will make;
        # SZ builds it from its encoder's sections, without a decode.
        if keyframe:
            recon, inner_buf = self.inner.roundtrip(data, mode=mode, **params)
        else:
            residual = np.subtract(data, self._enc_ref, dtype=data.dtype)
            decoded, inner_buf = self.inner.roundtrip(residual, mode=mode, **params)
            recon = _reconstruct(self._enc_ref, decoded)
        payload = self._frame(
            inner_buf, keyframe=keyframe, step=self._enc_step,
            ref=ref_digest, data=data,
        )
        # Closed loop: the *decompressed* output becomes the next
        # reference, so encoder and decoder references never diverge and
        # per-step error never compounds.
        self._enc_ref, self._enc_digest = recon, reference_digest(recon)
        step = self._enc_step
        self._enc_step += 1
        meta: dict[str, Any] = {
            "compressor": self.name,
            "inner": self.inner.name,
            "keyframe": keyframe,
            "step": step,
            "keyframe_every": self.keyframe_every,
            "ref": ref_digest,
            "ref_after": self._enc_digest,
            "inner_meta": dict(inner_buf.meta),
        }
        if self.inner_options:
            meta["inner_options"] = dict(self.inner_options)
        return CompressedBuffer(
            payload=payload,
            original_shape=data.shape,
            original_dtype=data.dtype,
            mode=inner_buf.mode,
            parameter=inner_buf.parameter,
            meta=meta,
        )

    def _frame(
        self,
        inner_buf: CompressedBuffer,
        *,
        keyframe: bool,
        step: int,
        ref: str | None,
        data: np.ndarray,
    ) -> bytes:
        head = {
            "step": step,
            "keyframe_every": self.keyframe_every,
            "inner": self.inner.name,
            "mode": inner_buf.mode.value,
            "parameter": inner_buf.parameter,
            "ref": ref,
            "dtype": data.dtype.str,
            "shape": list(data.shape),
        }
        raw = json.dumps(head, sort_keys=True, separators=(",", ":")).encode()
        flags = _FLAG_KEYFRAME if keyframe else 0
        return (
            _PREFIX.pack(TMP_MAGIC, flags, len(raw)) + raw + inner_buf.payload
        )

    # -- decode ------------------------------------------------------------

    @staticmethod
    def parse_frame(payload: bytes) -> tuple[dict[str, Any], bool, bytes]:
        """Split a TMP1 stream into (header, keyframe?, inner payload)."""
        if len(payload) < _PREFIX.size:
            raise CorruptStreamError(
                f"TMP1 stream truncated at {len(payload)} bytes"
            )
        magic, flags, head_len = _PREFIX.unpack_from(payload)
        if magic != TMP_MAGIC:
            raise CorruptStreamError(f"bad temporal magic {magic!r}")
        if flags & ~_FLAG_KEYFRAME:  # no writer sets another bit
            raise CorruptStreamError(f"unknown TMP1 flags {flags:#04x}")
        end = _PREFIX.size + head_len
        if len(payload) < end:
            raise CorruptStreamError("TMP1 header truncated")
        try:
            head = json.loads(payload[_PREFIX.size:end].decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise CorruptStreamError(f"bad TMP1 header: {exc}") from exc
        if not isinstance(head, dict):
            raise CorruptStreamError("TMP1 header must be a JSON object")
        step = head.get("step")
        if type(step) is not int or step < 0:
            raise CorruptStreamError(f"bad TMP1 step {step!r}")
        return head, bool(flags & _FLAG_KEYFRAME), payload[end:]

    def _inner_buffer(
        self, head: dict[str, Any], inner_payload: bytes
    ) -> CompressedBuffer:
        if head.get("inner") != self.inner.name:
            raise CorruptStreamError(
                f"stream was coded with inner codec {head.get('inner')!r}, "
                f"this decoder wraps {self.inner.name!r}"
            )
        try:
            shape = tuple(int(s) for s in head["shape"])
            dtype = np.dtype(head["dtype"])
            mode = CompressorMode(head["mode"])
            parameter = float(head["parameter"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptStreamError(f"bad TMP1 header fields: {exc}") from exc
        return CompressedBuffer(
            payload=inner_payload,
            original_shape=shape,
            original_dtype=dtype,
            mode=mode,
            parameter=parameter,
        )

    def decompress(self, buf: CompressedBuffer | bytes) -> np.ndarray:
        """Decode one frame, advancing the decoder reference.

        Delta frames validate the recorded reference digest against the
        decoder's current reference; a mismatch (frames skipped,
        reordered, or decoded by a fresh instance mid-stream) raises
        :class:`~repro.errors.CorruptStreamError`.
        """
        payload = buf.payload if isinstance(buf, CompressedBuffer) else buf
        head, keyframe, inner_payload = self.parse_frame(payload)
        inner_buf = self._inner_buffer(head, inner_payload)
        recon = self._apply(
            head, keyframe, inner_buf, self._dec_ref, self._dec_digest,
            side="decoder",
        )
        self._dec_ref, self._dec_digest = recon, reference_digest(recon)
        self._dec_step = head["step"] + 1
        return recon

    def _apply(
        self,
        head: dict[str, Any],
        keyframe: bool,
        inner_buf: CompressedBuffer,
        ref: np.ndarray | None,
        have: str | None,
        side: str,
    ) -> np.ndarray:
        """Reconstruct one frame against reference ``ref`` whose digest
        is ``have`` (both ``None`` before the first frame).  The inner
        output must have the header's shape and dtype, and a delta's the
        reference's too."""
        want = head.get("ref")
        if not keyframe and (have is None or want != have):
            raise CorruptStreamError(
                f"temporal {side} desync at step {head['step']}: frame "
                f"was coded against reference {want}, {side} holds "
                f"{have or 'nothing'} — decode the stream from its last "
                "keyframe (or reset())"
            )
        decoded = self.inner.decompress(inner_buf)
        expect = {(inner_buf.original_shape, inner_buf.original_dtype)}
        if not keyframe:
            expect.add((ref.shape, ref.dtype))
        if expect != {(decoded.shape, decoded.dtype)}:
            raise CorruptStreamError(
                f"TMP1 frame at step {head['step']} decodes to "
                f"{decoded.dtype.str} {decoded.shape}; header and reference "
                f"say {sorted((d.str, s) for s, d in expect)}"
            )
        return decoded if keyframe else _reconstruct(ref, decoded)

    def advance_with(self, buf: CompressedBuffer | bytes) -> np.ndarray:
        """Advance the *encoder* state with an already-compressed frame.

        The service's result cache uses this on a hit: the cached bytes
        are exactly what :meth:`compress` would have produced, so the
        encoder reference must advance to that frame's reconstruction
        without re-running the inner codec's compression.
        """
        payload = buf.payload if isinstance(buf, CompressedBuffer) else buf
        head, keyframe, inner_payload = self.parse_frame(payload)
        inner_buf = self._inner_buffer(head, inner_payload)
        recon = self._apply(
            head, keyframe, inner_buf, self._enc_ref, self._enc_digest,
            side="encoder",
        )
        self._enc_ref, self._enc_digest = recon, reference_digest(recon)
        self._enc_step = head["step"] + 1
        return recon

    def decode_series(
        self, bufs: list[CompressedBuffer | bytes]
    ) -> list[np.ndarray]:
        """Stateless decode of a whole recorded session, first frame on.

        Runs on a scratch reference (live decoder state is untouched),
        so a stored stream can be replayed at any time.  The first frame
        must be a keyframe — which frame 0 of any session always is.
        """
        saved = (self._dec_ref, self._dec_digest, self._dec_step)
        self._dec_ref, self._dec_digest, self._dec_step = None, None, 0
        try:
            return [self.decompress(b) for b in bufs]
        finally:
            self._dec_ref, self._dec_digest, self._dec_step = saved
