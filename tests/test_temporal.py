"""Temporal (delta/keyframe) codec: bounds, framing, state discipline."""

import json

import numpy as np
import pytest

from repro.compressors import (
    TemporalCompressor,
    available_compressors,
    get_compressor,
    reference_digest,
)
from repro.compressors.base import CompressorMode
from repro.compressors.temporal import _PREFIX, TMP_MAGIC
from repro.cosmo.timeseries import make_nyx_series
from repro.errors import (
    ConfigError,
    CorruptStreamError,
    DataError,
    UnsupportedModeError,
)


def _walk_series(n_steps, grid=10, scale=0.05, seed=5):
    """A random-walk field series — every step drifts, no keyframe rescue."""
    rng = np.random.default_rng(seed)
    snap = rng.normal(size=(grid, grid, grid)).astype(np.float32)
    out = [snap]
    for _ in range(n_steps - 1):
        snap = snap + rng.normal(scale=scale, size=snap.shape).astype(
            np.float32
        )
        out.append(snap.astype(np.float32))
    return out


class TestErrorBound:
    def test_abs_bound_holds_at_every_step_through_step_50(self):
        """The tentpole guarantee: per-step ABS error never compounds.

        51 random-walk steps with keyframes only every 16 — at step 50
        the codec has delta-coded dozens of frames in a row, and the
        pointwise error must still be within the single-step bound.
        """
        bound = 1e-2
        enc = TemporalCompressor(inner="sz", keyframe_every=16)
        dec = TemporalCompressor(inner="sz", keyframe_every=16)
        worst = []
        for snap in _walk_series(51):
            buf = enc.compress(snap, mode="abs", error_bound=bound)
            recon = dec.decompress(buf)
            worst.append(
                float(np.max(np.abs(
                    recon.astype(np.float64) - snap.astype(np.float64)
                )))
            )
        assert len(worst) == 51
        # Tiny slack for float32 reference round-trips (« the bound).
        assert max(worst) <= bound * (1 + 1e-4)
        assert worst[50] <= bound * (1 + 1e-4)

    def test_correlated_series_bound_and_gain(self):
        series = make_nyx_series(grid_size=16, n_snapshots=10, seed=3)
        snaps = [s.fields["baryon_density"] for s in series.snapshots]
        bound = 1e-2
        enc = TemporalCompressor(inner="sz", keyframe_every=8)
        indep = get_compressor("sz")
        temporal = independent = 0
        for snap in snaps:
            buf = enc.compress(snap, mode="abs", error_bound=bound)
            temporal += len(buf.payload)
            independent += len(
                indep.compress(snap, mode="abs", error_bound=bound).payload
            )
        outs = enc.decode_series([])  # no-op on empty input
        assert outs == []
        # Residual coding must not *lose* to independent coding here.
        assert temporal < independent


class TestKeyframePolicy:
    def test_keyframe_every_k(self):
        enc = TemporalCompressor(inner="sz", keyframe_every=4)
        flags = [
            enc.compress(s, mode="abs", error_bound=1e-2).meta["keyframe"]
            for s in _walk_series(10)
        ]
        assert flags == [
            True, False, False, False,
            True, False, False, False,
            True, False,
        ]

    def test_keyframe_every_one_means_all_independent(self):
        enc = TemporalCompressor(inner="sz", keyframe_every=1)
        for snap in _walk_series(3):
            buf = enc.compress(snap, mode="abs", error_bound=1e-2)
            assert buf.meta["keyframe"] is True

    def test_shape_change_forces_keyframe(self):
        enc = TemporalCompressor(inner="sz", keyframe_every=8)
        a = np.zeros((8, 8, 8), dtype=np.float32)
        b = np.zeros((6, 6, 6), dtype=np.float32)
        assert enc.compress(a, mode="abs", error_bound=1e-3).meta["keyframe"]
        buf = enc.compress(b, mode="abs", error_bound=1e-3)
        assert buf.meta["keyframe"] is True

    def test_bad_keyframe_every_rejected(self):
        with pytest.raises(DataError):
            TemporalCompressor(inner="sz", keyframe_every=0)


class TestFraming:
    def test_tmp1_stream_is_self_describing(self):
        enc = TemporalCompressor(inner="sz", keyframe_every=4)
        snaps = _walk_series(3)
        bufs = [
            enc.compress(s, mode="abs", error_bound=1e-2) for s in snaps
        ]
        for i, buf in enumerate(bufs):
            assert buf.payload[:4] == TMP_MAGIC
            head, keyframe, _ = TemporalCompressor.parse_frame(buf.payload)
            assert head["step"] == i
            assert head["inner"] == "sz"
            assert head["keyframe_every"] == 4
            assert head["mode"] == "abs"
            assert keyframe == (i == 0)
            assert tuple(head["shape"]) == snaps[i].shape
            if keyframe:
                assert head["ref"] is None
            else:
                assert isinstance(head["ref"], str)

    def test_delta_frame_records_previous_reconstruction_digest(self):
        enc = TemporalCompressor(inner="sz", keyframe_every=8)
        snaps = _walk_series(2)
        first = enc.compress(snaps[0], mode="abs", error_bound=1e-2)
        second = enc.compress(snaps[1], mode="abs", error_bound=1e-2)
        head, _, _ = TemporalCompressor.parse_frame(second.payload)
        assert head["ref"] == first.meta["ref_after"]

    def test_truncated_and_bad_magic_rejected(self):
        enc = TemporalCompressor(inner="sz")
        buf = enc.compress(
            _walk_series(1)[0], mode="abs", error_bound=1e-2
        )
        with pytest.raises(CorruptStreamError):
            TemporalCompressor.parse_frame(buf.payload[:5])
        with pytest.raises(CorruptStreamError):
            TemporalCompressor.parse_frame(b"NOPE" + buf.payload[4:])

    @pytest.mark.parametrize("side", ["decompress", "advance_with"])
    @pytest.mark.parametrize("step", ["x", [1], None, -1, 1.5, True])
    def test_bad_step_is_corrupt(self, step, side):
        enc = TemporalCompressor(inner="sz")
        buf = enc.compress(_walk_series(1)[0], mode="abs", error_bound=1e-2)
        with pytest.raises(CorruptStreamError, match="step"):
            getattr(TemporalCompressor(inner="sz"), side)(
                _reframe(buf.payload, step=step))

    @pytest.mark.parametrize("field,value", [
        ("dtype", "<i4"), ("dtype", "<f8"), ("shape", [5, 20, 10]),
    ])
    @pytest.mark.parametrize("frame", [0, 1], ids=["keyframe", "delta"])
    def test_header_that_disagrees_with_the_stream_is_corrupt(
        self, field, value, frame
    ):
        enc = TemporalCompressor(inner="sz", keyframe_every=8)
        bufs = [enc.compress(s, mode="abs", error_bound=1e-2)
                for s in _walk_series(2)]
        dec = TemporalCompressor(inner="sz", keyframe_every=8)
        if frame:
            dec.decompress(bufs[0])
        with pytest.raises(CorruptStreamError, match="decodes to"):
            dec.decompress(_reframe(bufs[frame].payload, **{field: value}))
        dec.decompress(bufs[frame])  # a refused frame moves no state

    def test_inner_codec_mismatch_rejected(self):
        enc = TemporalCompressor(inner="sz")
        buf = enc.compress(
            np.zeros((8, 8, 8), dtype=np.float32), mode="abs",
            error_bound=1e-3,
        )
        wrong = TemporalCompressor(inner="zfp")
        with pytest.raises(CorruptStreamError):
            wrong.decompress(buf)


def _reframe(payload, **changes):
    """``payload`` with its TMP1 header fields overwritten by ``changes``."""
    head, keyframe, inner = TemporalCompressor.parse_frame(payload)
    raw = json.dumps({**head, **changes}).encode()
    return _PREFIX.pack(TMP_MAGIC, int(keyframe), len(raw)) + raw + inner


class TestStateDiscipline:
    def test_desync_detected_not_garbage(self):
        enc = TemporalCompressor(inner="sz", keyframe_every=8)
        bufs = [
            enc.compress(s, mode="abs", error_bound=1e-2)
            for s in _walk_series(4)
        ]
        fresh = TemporalCompressor(inner="sz", keyframe_every=8)
        with pytest.raises(CorruptStreamError):
            fresh.decompress(bufs[1])  # delta with no reference
        dec = TemporalCompressor(inner="sz", keyframe_every=8)
        dec.decompress(bufs[0])
        with pytest.raises(CorruptStreamError):
            dec.decompress(bufs[2])  # skipped a frame

    def test_reset_restarts_with_keyframe(self):
        enc = TemporalCompressor(inner="sz", keyframe_every=8)
        snaps = _walk_series(3)
        for snap in snaps:
            enc.compress(snap, mode="abs", error_bound=1e-2)
        assert enc.step == 3
        enc.reset()
        assert enc.step == 0
        assert enc.encode_reference_digest is None
        buf = enc.compress(snaps[0], mode="abs", error_bound=1e-2)
        assert buf.meta["keyframe"] is True

    def test_decode_series_is_stateless_wrt_live_decoder(self):
        enc = TemporalCompressor(inner="sz", keyframe_every=8)
        dec = TemporalCompressor(inner="sz", keyframe_every=8)
        snaps = _walk_series(5)
        bufs = [
            enc.compress(s, mode="abs", error_bound=1e-2) for s in snaps
        ]
        dec.decompress(bufs[0])
        dec.decompress(bufs[1])
        live_ref = dec.decode_reference_digest
        outs = dec.decode_series(bufs)
        assert dec.decode_reference_digest == live_ref  # untouched
        for snap, out in zip(snaps, outs):
            assert np.max(np.abs(
                out.astype(np.float64) - snap.astype(np.float64)
            )) <= 1e-2 * (1 + 1e-4)
        # ...and the live decoder continues where it was.
        dec.decompress(bufs[2])

    def test_advance_with_matches_compress(self):
        """Cache-hit path: advancing through stored bytes must land the
        encoder on the same reference as compressing would have."""
        snaps = _walk_series(4)
        a = TemporalCompressor(inner="sz", keyframe_every=8)
        b = TemporalCompressor(inner="sz", keyframe_every=8)
        for snap in snaps:
            buf = a.compress(snap, mode="abs", error_bound=1e-2)
            b.advance_with(buf)
            assert b.encode_reference_digest == a.encode_reference_digest
            assert b.step == a.step

    def test_each_reference_is_hashed_once(self, monkeypatch):
        """The digest is stored when the reference is assigned; the frame
        header, ``ref_after`` and the desync check all read that copy."""
        from repro.compressors import temporal

        hashed = []

        def counting(arr):
            hashed.append(1)
            return reference_digest(arr)

        monkeypatch.setattr(temporal, "reference_digest", counting)
        enc = TemporalCompressor(inner="sz", keyframe_every=8)
        dec = TemporalCompressor(inner="sz", keyframe_every=8)
        bufs = []
        for n, snap in enumerate(_walk_series(4), start=1):
            bufs.append(enc.compress(snap, mode="abs", error_bound=1e-2))
            assert bufs[-1].meta["ref_after"] == enc.encode_reference_digest
            assert len(hashed) == n
        assert bufs[-1].meta["ref"] == bufs[-2].meta["ref_after"]
        for n, buf in enumerate(bufs, start=5):
            dec.decompress(buf)
            assert dec.decode_reference_digest == buf.meta["ref_after"]
            assert len(hashed) == n

    def test_encoder_and_decoder_round_trip_on_one_instance(self):
        codec = TemporalCompressor(inner="sz", keyframe_every=4)
        for snap in _walk_series(6):
            buf = codec.compress(snap, mode="abs", error_bound=1e-2)
            out = codec.decompress(buf)
            assert np.max(np.abs(
                out.astype(np.float64) - snap.astype(np.float64)
            )) <= 1e-2 * (1 + 1e-4)


class TestConstruction:
    def test_registered_in_registry(self):
        assert "temporal" in available_compressors()
        codec = get_compressor("temporal", inner="sz", keyframe_every=3)
        assert isinstance(codec, TemporalCompressor)
        assert codec.keyframe_every == 3

    def test_wraps_compressor_instance(self):
        inner = get_compressor("sz")
        codec = TemporalCompressor(inner=inner)
        assert codec.inner is inner
        with pytest.raises(DataError):
            TemporalCompressor(inner=inner, inner_options={"radius": 512})

    def test_cannot_nest_temporal(self):
        with pytest.raises(DataError):
            TemporalCompressor(inner=TemporalCompressor(inner="sz"))
        with pytest.raises((DataError, ConfigError)):
            TemporalCompressor(inner="temporal")

    def test_supported_modes_follow_inner(self):
        codec = TemporalCompressor(inner="sz")
        assert codec.supported_modes == tuple(
            m for m in get_compressor("sz").supported_modes
            if m is not CompressorMode.PW_REL
        )
        assert CompressorMode.ABS in codec.supported_modes

    def test_pw_rel_refused(self):
        """A delta's PW_REL bound would be relative to the residual, not
        to the snapshot it rebuilds, so no per-step bound would hold."""
        codec = TemporalCompressor(inner="sz", keyframe_every=8)
        for snap in _walk_series(2):
            with pytest.raises(UnsupportedModeError):
                codec.compress(snap, mode="pw_rel", pwrel=0.01)
        assert codec.step == 0

    def test_reference_digest_content_addressed(self):
        a = np.arange(27, dtype=np.float32).reshape(3, 3, 3)
        assert reference_digest(a) == reference_digest(a.copy())
        assert reference_digest(a) != reference_digest(a + 1)
        assert reference_digest(a) != reference_digest(
            a.astype(np.float64)
        )


class TestDtypeArithmetic:
    """Residual and reconstruction are taken in the field's dtype; for
    float fields that is the old float64 round trip, bit for bit."""

    @staticmethod
    def _edges(dtype):
        info = np.finfo(dtype)
        return np.array([
            info.max, -info.max, 0.75 * info.max, info.tiny,
            info.smallest_subnormal, 3 * info.smallest_subnormal,
            -info.smallest_subnormal, -0.0, 0.0, 1.0, -1.5, np.pi,
        ], dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_delta_equals_float64_formula(self, dtype):
        """Through the lossless ``store`` inner, every pair of edge values
        (±max overflowing to ±inf, subnormals, -0.0) reconstructs as
        ``(ref64 + (data64 - ref64).astype(dtype)).astype(dtype)``."""
        edges = self._edges(dtype)
        ref, data = np.repeat(edges, edges.size), np.tile(edges, edges.size)
        enc = TemporalCompressor(inner="store", keyframe_every=8)
        with np.errstate(all="ignore"):
            bufs = [enc.compress(x, mode="abs", error_bound=1.0)
                    for x in (ref, data)]
            out = TemporalCompressor(inner="store").decode_series(bufs)[1]
            f64 = np.float64
            residual = (data.astype(f64) - ref.astype(f64)).astype(dtype)
            old = (ref.astype(f64) + residual.astype(f64)).astype(dtype)
        assert np.isposinf(old).any() and np.isneginf(old).any()
        assert ((old != 0) & (np.abs(old) < np.finfo(dtype).tiny)).any()
        assert out.dtype == dtype and out.tobytes() == old.tobytes()
        assert enc.encode_reference_digest == reference_digest(old)
