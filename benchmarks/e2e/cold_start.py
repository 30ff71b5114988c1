"""Library cold start, timed from outside by ``LibCodec.setup_cycle``.

``cold_start.py FIELDS.npz SPEC`` imports repro in a fresh interpreter,
compresses field ``a<i>`` with ``SPEC[i] = [codec, mode, knob, value]``
and prints one payload digest per line.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from repro.compressors import get_compressor


def main(npz_path: str, spec_json: str) -> int:
    fields = np.load(npz_path)
    for i, (codec, mode, knob, value) in enumerate(json.loads(spec_json)):
        buf = get_compressor(codec).compress(
            fields[f"a{i}"], mode=mode, **{knob: value}
        )
        print(hashlib.blake2b(buf.payload, digest_size=16).hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
