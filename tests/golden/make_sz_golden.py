"""Write the pinned SZ stream fixtures under ``tests/golden/sz/``.

Run once, with the code whose streams are to be pinned::

    PYTHONPATH=src python tests/golden/make_sz_golden.py

Each fixture is ``<name>.npz`` (``data`` = the input field, ``payload`` =
the stream bytes) plus one ``manifest.json`` row with the codec options
and three digests.  The *decode* half of a fixture (stored ``payload``
-> ``recon_sha256``) must hold forever and is never rewritten.  The
*re-encode* half (``data`` -> ``reencode_sha256``, at first the digest of
the stored payload) may be regenerated, only in a commit that explains
why the encoder's bytes moved: ``--reencode-only`` rewrites that one
column from the code on ``PYTHONPATH`` and touches nothing else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.compressors.sz import SZCompressor

HERE = Path(__file__).resolve().parent / "sz"


def array_digest(arr: np.ndarray) -> str:
    """sha256 over dtype, shape and the C-order bytes."""
    arr = np.ascontiguousarray(arr)
    head = f"{arr.dtype.str}{arr.shape}".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()


def _field(shape: tuple[int, ...], dtype, seed: int, amp: float = 10.0,
           offset: float = 0.0) -> np.ndarray:
    """Smooth trend + a noisy patch: some blocks favour regression,
    some Lorenzo, so the adaptive selector is exercised both ways."""
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*[np.linspace(0.0, 3.0, s) for s in shape], indexing="ij")
    smooth = sum((i + 1.0) * np.sin(a + 0.3 * i) for i, a in enumerate(axes))
    noise = rng.standard_normal(shape)
    noise[tuple(slice(0, max(1, s // 2)) for s in shape)] *= 0.01
    return (offset + amp * smooth + noise).astype(dtype)


def _pwrel_field(shape: tuple[int, ...], dtype, seed: int) -> np.ndarray:
    """Log-normal magnitudes with negatives and exact zeros."""
    rng = np.random.default_rng(seed)
    data = np.exp(rng.normal(0.0, 2.0, shape)) * rng.choice([-1.0, 1.0], shape)
    data.reshape(-1)[::7] = 0.0
    return data.astype(dtype)


def fixtures() -> list[dict]:
    f32, f64 = np.float32, np.float64
    rows = [
        # name, options, mode, value, data
        ("abs_3d_f32_adaptive_ragged", {}, "abs", 2e-2, _field((13, 11, 9), f32, 1, 1.0)),
        ("abs_3d_f64_adaptive_aligned", {}, "abs", 1e-3, _field((12, 12, 12), f64, 2)),
        ("abs_2d_f32_lorenzo", {"predictor": "lorenzo"}, "abs", 5e-2,
         _field((17, 10), f32, 3)),
        ("abs_2d_f64_regression", {"predictor": "regression"}, "abs", 5e-2,
         _field((14, 19), f64, 4)),
        ("abs_1d_f32_adaptive", {}, "abs", 1e-2, _field((131,), f32, 5)),
        # a large offset makes Lorenzo's first residual per block cost more
        # than the two stored coefficients, so 1-D blocks pick regression
        ("abs_1d_f64_adaptive_offset", {}, "abs", 1e-4,
         _field((77,), f64, 17, 1.0, 1e9)),
        ("abs_1d_f64_regression", {"predictor": "regression"}, "abs", 1e-4,
         _field((50,), f64, 6)),
        ("abs_3d_f32_single_block", {}, "abs", 1e-2, _field((4, 5, 3), f32, 7)),
        ("abs_1d_f32_single_block", {"predictor": "lorenzo"}, "abs", 1e-3,
         _field((5,), f32, 8)),
        ("abs_3d_f32_auto_radius", {"radius": "auto"}, "abs", 1e-3,
         _field((11, 13, 8), f32, 9, 1.0)),
        ("abs_2d_f64_auto_radius_lorenzo",
         {"radius": "auto", "predictor": "lorenzo"}, "abs", 1e-5,
         _field((20, 9), f64, 10)),
        ("abs_3d_f32_lzss", {"lossless": ["lzss"]}, "abs", 5e-2,
         _field((10, 12, 14), f32, 11)),
        ("abs_3d_f32_outliers", {"radius": 4}, "abs", 1e-3,
         _field((9, 9, 9), f32, 12)),
        ("abs_3d_f64_block4_chunk64", {"block_side": 4, "huffman_chunk": 64},
         "abs", 1e-2, _field((9, 10, 11), f64, 13, 1.0)),
        ("pwrel_3d_f32_zeros_negatives", {}, "pw_rel", 1e-1,
         _pwrel_field((9, 8, 7), f32, 14)),
        ("pwrel_1d_f64_regression", {"predictor": "regression"}, "pw_rel", 1e-2,
         _pwrel_field((97,), f64, 15)),
        ("pwrel_2d_f32_auto_radius", {"radius": "auto"}, "pw_rel", 5e-2,
         _pwrel_field((15, 12), f32, 16)),
    ]
    return [
        {"name": n, "options": o, "mode": m, "value": v, "data": d}
        for n, o, m, v, d in rows
    ]


def encode(options: dict, mode: str, value: float, data: np.ndarray):
    codec = SZCompressor(**options)
    knob = "pwrel" if mode == "pw_rel" else "error_bound"
    buf = codec.compress(data, mode=mode, **{knob: value})
    return buf.payload, codec.decompress(buf.payload)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reencode-only", action="store_true")
    args = parser.parse_args()
    HERE.mkdir(parents=True, exist_ok=True)
    manifest_path = HERE / "manifest.json"
    if args.reencode_only:
        manifest = json.loads(manifest_path.read_text())
        for row in manifest:
            data = np.load(HERE / f"{row['name']}.npz")["data"]
            payload, _ = encode(row["options"], row["mode"], row["value"], data)
            row["reencode_sha256"] = hashlib.sha256(payload).hexdigest()
    else:
        manifest = []
        for row in fixtures():
            data = row.pop("data")
            payload, recon = encode(row["options"], row["mode"], row["value"], data)
            np.savez(HERE / f"{row['name']}.npz", data=data,
                     payload=np.frombuffer(payload, dtype=np.uint8))
            digest = hashlib.sha256(payload).hexdigest()
            manifest.append({
                **row, "payload_sha256": digest,
                "recon_sha256": array_digest(recon), "reencode_sha256": digest,
            })
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(manifest)} manifest rows to {HERE}")


if __name__ == "__main__":
    main()
