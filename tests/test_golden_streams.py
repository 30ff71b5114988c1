"""Pinned SZ, ZFP and Huffman streams: format drift is a failing test.

The fixtures under ``tests/golden/sz/`` were written by the commit before
the one-pass SZ kernels (``tests/golden/make_sz_golden.py``); those under
``tests/golden/zfp/`` and ``tests/golden/huffman/`` by the last commit
that had the seed ``scalar`` kernel tier, with all three tiers agreeing,
and the 4-value and 16-value block rows added after them (HACC-like
positions and velocities, f64, precision, accuracy) by the commit before
the native ZFP coder was specialised per block size, with both tiers
agreeing (``tests/golden/make_codec_golden.py``; each row names its
commit).  On
every kernel tier each stored payload must decode to its pinned
reconstruction digest — that half holds forever — and re-encoding the
stored input must reproduce the pinned encoder digest, which only the
generators' ``--reencode-only`` may move, in a commit that says why.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.compressors.sz import SZCompressor
from repro.compressors.zfp import ZFPCompressor
from repro.lossless import huffman
from test_fastpath_equivalence import BACKENDS

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
from make_codec_golden import huffman_encode, zfp_encode  # noqa: E402
from make_sz_golden import array_digest  # noqa: E402

MANIFEST = json.loads((GOLDEN / "sz" / "manifest.json").read_text())
ZFP_MANIFEST = json.loads((GOLDEN / "zfp" / "manifest.json").read_text())
HUFFMAN_MANIFEST = json.loads((GOLDEN / "huffman" / "manifest.json").read_text())


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
    assert array_digest(recon) == row["recon_sha256"]
    assert array_digest(lengths) == row["lengths_sha256"]
    assert hashlib.sha256(again).hexdigest() == row["reencode_sha256"]
