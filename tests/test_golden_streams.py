"""Pinned SZ, ZFP and Huffman streams: format drift is a failing test.

One generator writes every family (``tests/golden/make_codec_golden.py``).
The fixtures under ``tests/golden/sz/`` were written by the commit before
the one-pass SZ kernels; those under ``tests/golden/zfp/`` and
``tests/golden/huffman/`` by the last commit that had the seed ``scalar``
kernel tier, with all three tiers agreeing, and the 4-value and 16-value
block rows added after them (HACC-like positions and velocities, f64,
precision, accuracy) by the commit before the native ZFP coder was
specialised per block size, with both tiers agreeing (each row names its
commit), and the TMP1 series under ``tests/golden/temporal/`` by the
commit before the temporal closed loop stopped decoding its own frames.
On every kernel tier each stored payload must decode to its pinned
reconstruction digest — that half holds forever — and re-encoding the
stored input must reproduce the pinned encoder digest, which only the
generator's ``--reencode-only`` may move, in a commit that says why.
"""

import hashlib
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.compressors.sz import SZCompressor
from repro.compressors.sz.szcompressor import _HDR_ABS, _HDR_PWR
from repro.compressors.zfp import ZFPCompressor
from repro.errors import CorruptStreamError
from repro.lossless import huffman
from test_fastpath_equivalence import BACKENDS

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
from make_codec_golden import (  # noqa: E402
    array_digest, huffman_encode, split_frames, temporal_codec,
    temporal_encode, zfp_encode)

MANIFEST = json.loads((GOLDEN / "sz" / "manifest.json").read_text())
ZFP_MANIFEST = json.loads((GOLDEN / "zfp" / "manifest.json").read_text())
HUFFMAN_MANIFEST = json.loads((GOLDEN / "huffman" / "manifest.json").read_text())
TEMPORAL_MANIFEST = json.loads((GOLDEN / "temporal" / "manifest.json").read_text())


def test_fixture_set_covers_the_format():
    names = {row["name"] for row in MANIFEST}
    assert len(names) == len(MANIFEST) >= 16
    for needle in ("1d", "2d", "3d", "f32", "f64", "single_block", "ragged",
                   "lorenzo", "regression", "auto_radius", "lzss",
                   "outliers", "pwrel"):
        assert any(needle in name for name in names), needle


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("row", MANIFEST, ids=lambda row: row["name"])
def test_sz_golden_stream(row, backend):
    stored = np.load(GOLDEN / "sz" / f"{row['name']}.npz")
    data, payload = stored["data"], stored["payload"].tobytes()
    assert hashlib.sha256(payload).hexdigest() == row["payload_sha256"]
    codec = SZCompressor(**row["options"])
    knob = "pwrel" if row["mode"] == "pw_rel" else "error_bound"
    with kernels.use(backend):
        recon = codec.decompress(payload)
        again = codec.compress(data, mode=row["mode"], **{knob: row["value"]})
    assert recon.dtype == data.dtype and recon.shape == data.shape
    assert array_digest(recon) == row["recon_sha256"]
    assert hashlib.sha256(again.payload).hexdigest() == row["reencode_sha256"]


def _sz_golden(name: str) -> bytes:
    return np.load(GOLDEN / "sz" / f"{name}.npz")["payload"].tobytes()


def _huffman_span(payload: bytes) -> tuple[int, int, int]:
    """``(abs_at, start, end)``: where the (inner, for PW_REL) ABS header
    sits and the byte range of its Huffman section."""
    abs_at = 0
    if payload[:4] == b"SZRP":
        fields = struct.unpack_from(_HDR_PWR, payload)
        ndim, nzeros = fields[3], fields[5]
        shape = struct.unpack_from(f"<{ndim}Q", payload, struct.calcsize(_HDR_PWR))
        abs_at = (struct.calcsize(_HDR_PWR) + 8 * ndim
                  + -(-math.prod(shape) // 8) + 8 * nzeros)
    fields = struct.unpack_from(_HDR_ABS, payload, abs_at)
    ndim, nblocks, huff_len = fields[3], fields[8], fields[10]
    pos = abs_at + struct.calcsize(_HDR_ABS) + 8 * ndim
    flags = np.unpackbits(np.frombuffer(payload, np.uint8, -(-nblocks // 8), pos),
                          count=nblocks)
    start = pos + -(-nblocks // 8) + 4 * (ndim + 1) * int(flags.sum())
    return abs_at, start, start + huff_len


def _splice(payload: bytes, section: bytes) -> bytes:
    """``payload`` with ``section`` as its Huffman section, and every
    length field that covers the section updated."""
    abs_at, start, end = _huffman_span(payload)
    out = bytearray(payload[:start] + section + payload[end:])
    fields = list(struct.unpack_from(_HDR_ABS, out, abs_at))
    fields[10] = len(section)
    struct.pack_into(_HDR_ABS, out, abs_at, *fields)
    if out[:4] == b"SZRP":
        fields = list(struct.unpack_from(_HDR_PWR, out))
        fields[6] += len(section) - (end - start)
        struct.pack_into(_HDR_PWR, out, 0, *fields)
    return bytes(out)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sz_symbol_past_the_alphabet_is_corrupt(backend):
    """The encoder's Huffman alphabet ends at its last used symbol, below
    2 * radius; a stream whose alphabet reaches past it (here: one symbol
    re-encoded as 2 * radius, a residual the encoder would have escaped)
    is damaged and must not decode to an array."""
    payload = _sz_golden("abs_3d_f32_adaptive_ragged")
    radius = struct.unpack_from(_HDR_ABS, payload)[6]
    _, start, end = _huffman_span(payload)
    symbols = huffman.HuffmanCodec().decode(payload[start:end]).astype(np.int64)
    symbols[np.flatnonzero(symbols)[0]] = 2 * radius
    section = huffman.HuffmanCodec(chunk_size=1024).encode(symbols).payload
    with kernels.use(backend):
        assert SZCompressor().decompress(_splice(payload, payload[start:end])).size
        with pytest.raises(CorruptStreamError, match="Huffman stream header"):
            SZCompressor().decompress(_splice(payload, section))


def _sz_outcome(payload: bytes, backend: str):
    try:
        with kernels.use(backend), np.errstate(all="ignore"):
            out = SZCompressor().decompress(payload)
    except CorruptStreamError as exc:
        return "corrupt", str(exc)
    return out.dtype.str, out.shape, out.tobytes()


class TestSZDecodeMutation:
    """Byte flips and truncations in the Huffman section of SZ goldens —
    its header, length table, chunk offsets and first body bytes — where
    the decode table is built: both tiers return the same array or raise
    the same ``CorruptStreamError``, and nothing else."""

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    @pytest.mark.parametrize("name", ["abs_1d_f32_adaptive", "abs_3d_f32_outliers",
                                      "pwrel_3d_f32_zeros_negatives"])
    def test_tiers_agree(self, backend, name):
        payload = _sz_golden(name)
        _, start, end = _huffman_span(payload)
        section = payload[start:end]
        (table_len,) = struct.unpack_from("<I", section, 32)
        (nchunks,) = struct.unpack_from("<I", section, 36 + table_len)
        reach = min(len(section), 40 + table_len + 8 * nchunks + 16)
        outcomes = set()
        for i in range(reach):
            flipped = bytearray(section)
            flipped[i] ^= 0xFF
            for damaged in (_splice(payload, bytes(flipped)),
                            _splice(payload, section[:i])):
                ref = _sz_outcome(damaged, "numpy")
                assert _sz_outcome(damaged, backend) == ref, i
                outcomes.add(ref[0])
        assert "corrupt" in outcomes and len(outcomes) > 1


def test_zfp_and_huffman_fixture_sets_cover_the_formats():
    names = {row["name"] for row in ZFP_MANIFEST}
    assert len(names) == len(ZFP_MANIFEST) >= 14
    for needle in ("1d", "2d", "3d", "f32", "f64", "rate4", "rate8", "rate16",
                   "mod1", "mod3", "single_block", "all_zero", "mixed_zero",
                   "extreme_range", "adversarial", "precision", "accuracy",
                   "hacc_like", "wild_range", "mod2", "positions",
                   "velocities", "zero_runs"):
        assert any(needle in name for name in names), needle
    assert sum(row["package_merge"] for row in HUFFMAN_MANIFEST) >= 5
    assert not all(row["package_merge"] for row in HUFFMAN_MANIFEST)
    for row in ZFP_MANIFEST + HUFFMAN_MANIFEST:
        assert len(row["written_at"]) == 40 and "numpy" in row["tiers_agreed"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("row", ZFP_MANIFEST, ids=lambda row: row["name"])
def test_zfp_golden_stream(row, backend):
    stored = np.load(GOLDEN / "zfp" / f"{row['name']}.npz")
    data, payload = stored["data"], stored["payload"].tobytes()
    assert hashlib.sha256(payload).hexdigest() == row["payload_sha256"]
    with kernels.use(backend):
        recon = ZFPCompressor().decompress(payload)
        again, _ = zfp_encode(row, data)
    assert recon.dtype == data.dtype and recon.shape == data.shape
    assert array_digest(recon) == row["recon_sha256"]
    assert hashlib.sha256(again).hexdigest() == row["reencode_sha256"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("row", HUFFMAN_MANIFEST, ids=lambda row: row["name"])
def test_huffman_golden_stream(row, backend):
    stored = np.load(GOLDEN / "huffman" / f"{row['name']}.npz")
    symbols, payload = stored["symbols"], stored["payload"].tobytes()
    assert hashlib.sha256(payload).hexdigest() == row["payload_sha256"]
    with kernels.use(backend):
        recon = huffman.HuffmanCodec(**row["options"]).decode(payload)
        # also asserts the row's package_merge flag: the code lengths of
        # these streams really come from the length-limited construction
        again, _, lengths = huffman_encode(row, symbols)
    assert np.array_equal(recon, symbols)
    # Pinned when every decode returned int64; alphabets of at most 2^16
    # symbols now decode to uint16, so the digest is of the widened values.
    assert recon.dtype == huffman.symbol_dtype(row["alphabet_size"])
    assert array_digest(recon.astype(np.int64)) == row["recon_sha256"]
    assert array_digest(lengths) == row["lengths_sha256"]
    assert hashlib.sha256(again).hexdigest() == row["reencode_sha256"]


def test_temporal_fixture_set_covers_the_format():
    names = {row["name"] for row in TEMPORAL_MANIFEST}
    assert len(names) == len(TEMPORAL_MANIFEST) >= 3
    for needle in ("sz", "zfp", "1d", "3d", "f32", "f64", "k1", "k3",
                   "regression", "outliers", "lzss", "accuracy"):
        assert any(needle in name for name in names), needle
    for row in TEMPORAL_MANIFEST:
        assert len(row["written_at"]) == 40 and "numpy" in row["tiers_agreed"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("row", TEMPORAL_MANIFEST, ids=lambda row: row["name"])
def test_temporal_golden_series(row, backend):
    """Keyframes and delta frames: the stored frames decode to the pinned
    reconstructions, and re-encoding the series (which also checks each
    encoder reference against the decoder's) writes the pinned frames."""
    stored = np.load(GOLDEN / "temporal" / f"{row['name']}.npz")
    series, payload = stored["series"], stored["payload"].tobytes()
    assert hashlib.sha256(payload).hexdigest() == row["payload_sha256"]
    with kernels.use(backend):
        recon = temporal_codec(row).decode_series(split_frames(payload))
        again, _ = temporal_encode(row, series)
    assert all(r.dtype == series.dtype and r.shape == series.shape[1:]
               for r in recon)
    assert array_digest(np.stack(recon)) == row["recon_sha256"]
    assert hashlib.sha256(again).hexdigest() == row["reencode_sha256"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_temporal_unknown_flag_bit_is_corrupt(backend):
    """Only the keyframe bit is defined: a frame with bit 0x02 set is
    refused, not decoded as if the bit were not there."""
    row = TEMPORAL_MANIFEST[0]
    stored = np.load(GOLDEN / "temporal" / f"{row['name']}.npz")
    frame = bytearray(split_frames(stored["payload"].tobytes())[0])
    frame[4] |= 0x02  # the flags byte, after the magic
    with kernels.use(backend), pytest.raises(CorruptStreamError, match="flags"):
        temporal_codec(row).decode_series([bytes(frame)])
