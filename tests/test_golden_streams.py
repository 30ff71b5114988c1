"""Pinned SZ streams: format drift is a failing test.

The fixtures under ``tests/golden/sz/`` were written by the commit before
the one-pass SZ kernels (``tests/golden/make_sz_golden.py``).  On every
kernel tier each stored payload must decode to its pinned reconstruction
digest — that half holds forever — and re-encoding the stored input must
reproduce the pinned encoder digest, which only
``make_sz_golden.py --reencode-only`` may move, in a commit that says why.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.compressors.sz import SZCompressor
from test_fastpath_equivalence import BACKENDS

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
from make_sz_golden import array_digest  # noqa: E402

MANIFEST = json.loads((GOLDEN / "sz" / "manifest.json").read_text())


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
