"""Write the pinned SZ, ZFR1, HUF1 and TMP1 stream fixtures under
``tests/golden/sz/``, ``zfp/``, ``huffman/`` and ``temporal/``.

Run once, from a tree whose ``src/`` is committed, with the code whose
streams are to be pinned::

    PYTHONPATH=src python tests/golden/make_codec_golden.py

Each fixture is ``<name>.npz`` (``data`` | ``symbols`` = the input,
``payload`` = the stream bytes) plus one ``manifest.json`` row with the
options and digests.  The *decode*
half (stored ``payload`` -> ``recon_sha256``) holds forever; the
*re-encode* half (input -> ``reencode_sha256``, and for HUF1 the code
lengths -> ``lengths_sha256``) may move only through ``--reencode-only``
in a commit that says why.

A TMP1 fixture is a snapshot *series*: ``series`` stacks the snapshots,
``payload`` holds the frames in order, each behind its u32 little-endian
byte count (:func:`join_frames`), and ``recon_sha256`` is the digest of
the stacked reconstructions ``decode_series`` makes from them.

A write adds only the fixtures whose name the manifest does not have
yet; every pinned row and file stays as it is (to re-pin a fixture on
purpose, delete its row).  Each new fixture is encoded and decoded on
every registered kernel tier and not written unless they all agree; its
row records which tiers those were (``tiers_agreed``) and the commit
that produced the bytes (``written_at``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
from pathlib import Path

import numpy as np

from repro import kernels
from repro.compressors import TemporalCompressor, reference_digest
from repro.compressors.sz import SZCompressor
from repro.compressors.zfp import ZFPCompressor
from repro.lossless import huffman as H

HERE = Path(__file__).resolve().parent

#: Every registered kernel tier, best first.
TIERS = list(kernels.TIER_ORDER)

ZFP_KNOBS = {"fixed_rate": "rate", "fixed_precision": "precision",
             "fixed_accuracy": "tolerance"}


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


def sz_fixtures() -> list[dict]:
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


def sz_encode(row: dict, data: np.ndarray) -> tuple[bytes, np.ndarray]:
    codec = SZCompressor(**row["options"])
    knob = "pwrel" if row["mode"] == "pw_rel" else "error_bound"
    buf = codec.compress(data, mode=row["mode"], **{knob: row["value"]})
    return buf.payload, codec.decompress(buf.payload)


def _smooth(shape: tuple[int, ...], dtype, seed: int, amp: float = 10.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*[np.linspace(0.0, 3.0, s) for s in shape], indexing="ij")
    smooth = sum((i + 1.0) * np.sin(a + 0.3 * i) for i, a in enumerate(axes))
    return (amp * smooth + 0.05 * rng.standard_normal(shape)).astype(dtype)


def adversarial_block() -> np.ndarray:
    """The shift-guard block of ``test_adversarial_zfp_block``."""
    flat = np.array(
        [(-1.0) ** i * 2.0 ** ((i * 5) % 120 - 60) for i in range(64)]
    )
    flat[7], flat[21], flat[63] = 0.0, -0.0, 2.0**60
    return flat.reshape(4, 4, 4)


def zfp_fixtures() -> list[dict]:
    f32, f64 = np.float32, np.float64
    rng = np.random.default_rng(23)
    mixed = _smooth((12, 8, 8), f32, 5)
    mixed[:4] = 0.0
    mixed[8:, 4:] = 0.0
    # every 4x4 block gets its own exponent, 2^-100 .. 2^100
    extreme = _smooth((12, 16), f64, 6, 1.0) * np.kron(
        2.0 ** rng.integers(-100, 101, (3, 4)), np.ones((4, 4)))
    wild = np.zeros((8, 4, 4), dtype=f32)
    wild[:4], wild[4:] = 1e-3, 1e5
    centres = rng.uniform(0.0, 256.0, 12)
    hacc = ((centres[rng.integers(0, 12, 1001)]
             + rng.normal(0.0, 3.0, 1001)) % 256.0).astype(f32)
    adv = adversarial_block()
    # The 4-value block shapes HACC's particle arrays run through: 4,097
    # blocks of clustered positions, and velocities with zero runs.
    halos = rng.uniform(0.0, 256.0, 64)
    positions = ((halos[rng.integers(0, 64, 16386)]
                  + rng.normal(0.0, 2.0, 16386)) % 256.0).astype(f32)
    velocities = (rng.normal(0.0, 300.0, 6002)
                  * np.exp(rng.uniform(-4.0, 2.0, 6002))).astype(f32)
    for start in (0, 400, 2001, 5990):
        velocities[start:start + 4 * int(rng.integers(1, 40))] = 0.0
    velocities_f64 = (rng.normal(0.0, 300.0, 2051)
                      * np.exp(rng.uniform(-30.0, 30.0, 2051)))
    rows = [
        # name, mode, value, data
        ("rate4_1d_f32_mod1", "fixed_rate", 4.0, _smooth((129,), f32, 1)),
        ("rate16_1d_f32_mod3", "fixed_rate", 16.0, _smooth((131,), f32, 2)),
        ("rate8_2d_f32_mod3", "fixed_rate", 8.0, _smooth((19, 11), f32, 3)),
        ("rate4_3d_f32_mod1", "fixed_rate", 4.0, _smooth((9, 13, 5), f32, 4)),
        ("rate16_3d_f32_aligned", "fixed_rate", 16.0, _smooth((8, 8, 8), f32, 7)),
        ("rate8_3d_f64_ragged", "fixed_rate", 8.0, _smooth((7, 9, 6), f64, 8)),
        ("rate8_3d_f32_single_block", "fixed_rate", 8.0, _smooth((4, 4, 4), f32, 9)),
        ("rate4_3d_f32_all_zero", "fixed_rate", 4.0, np.zeros((8, 8, 4), f32)),
        ("rate8_3d_f32_mixed_zero_blocks", "fixed_rate", 8.0, mixed),
        ("rate16_2d_f64_extreme_range", "fixed_rate", 16.0, extreme),
        ("rate9_3d_f64_adversarial", "fixed_rate", 9.0, adv),
        ("precision24_3d_f64_adversarial", "fixed_precision", 24, adv),
        ("accuracy_3d_f64_adversarial", "fixed_accuracy", 1e-6, adv),
        ("precision12_3d_f32", "fixed_precision", 12, _smooth((9, 10, 11), f32, 10)),
        ("precision40_3d_f64", "fixed_precision", 40, _smooth((6, 7, 5), f64, 11)),
        ("accuracy_3d_f32", "fixed_accuracy", 1e-3, _smooth((10, 9, 7), f32, 12)),
        ("accuracy_1d_f32_hacc_like", "fixed_accuracy", 1e-2, hacc),
        ("accuracy_3d_f32_wild_range", "fixed_accuracy", 1.0, wild),
        ("accuracy_3d_f32_mixed_zero_blocks", "fixed_accuracy", 1e-2, mixed),
        ("rate8_1d_f32_hacc_positions_mod2", "fixed_rate", 8.0, positions),
        ("rate8_1d_f64_mod1", "fixed_rate", 8.0, _smooth((1029,), f64, 13)),
        ("rate4_1d_f32_velocities_zero_runs", "fixed_rate", 4.0, velocities),
        ("precision16_1d_f32_velocities", "fixed_precision", 16, velocities),
        ("accuracy_1d_f64_wide_range", "fixed_accuracy", 1e-3, velocities_f64),
        ("rate4_2d_f32_mod1", "fixed_rate", 4.0, _smooth((13, 21), f32, 14)),
    ]
    return [{"name": n, "mode": m, "value": v, "data": d} for n, m, v, d in rows]


def _symbols(freqs: np.ndarray, seed: int) -> np.ndarray:
    """A shuffled symbol array with exactly the histogram ``freqs``."""
    symbols = np.repeat(np.arange(freqs.size), freqs).astype(np.uint16)
    np.random.default_rng(seed).shuffle(symbols)
    return symbols


def huffman_fixtures() -> list[dict]:
    # Fibonacci-growing masses make the unconstrained tree a chain.  Forty
    # symbols of one chain would need 2.7e8 occurrences, so the 40-symbol
    # alphabet is 27 singletons (a 5-deep bush) under a 13-symbol chain,
    # each mass one more than the sum of all but its predecessor: 17k
    # symbols, unconstrained depth 18.
    chain = [27, 28]
    while len(chain) < 13:
        chain.append(27 + sum(chain[:-1]) + 1)
    fib40 = np.array([1] * 27 + chain, dtype=np.int64)
    geometric = np.repeat(1 << np.arange(12, dtype=np.int64), 2)
    # SZ-like: two-sided geometric around the radius, a long tail of
    # singletons, 640 of 1024 codes used.
    sz_like = np.zeros(1024, dtype=np.int64)
    offsets = np.arange(-320, 320)
    sz_like[512 + offsets] = np.maximum(
        1, np.rint(300.0 * 0.97 ** np.abs(offsets))).astype(np.int64)
    holes = np.zeros(8, dtype=np.int64)
    holes[3] = 500
    rows = [
        # name, max_len, chunk_size, freqs, reaches package-merge
        ("fib40_len8", 8, 4096, fib40, True),
        ("fib40_len12", 12, 1000, fib40, True),
        ("fib40_len16", 16, 4096, fib40, True),
        ("geometric_ties_len10", 10, 4096, geometric, True),
        ("sz_like_640_len10", 10, 512, sz_like, True),
        ("single_symbol_holes", 16, 128, holes, False),
    ]
    return [
        {"name": n, "options": {"max_len": m, "chunk_size": c},
         "alphabet_size": int(f.size), "package_merge": pm,
         "symbols": _symbols(f, seed)}
        for seed, (n, m, c, f, pm) in enumerate(rows)
    ]


def zfp_encode(row: dict, data: np.ndarray) -> tuple[bytes, np.ndarray]:
    codec = ZFPCompressor()
    buf = codec.compress(
        data, mode=row["mode"], **{ZFP_KNOBS[row["mode"]]: row["value"]})
    return buf.payload, codec.decompress(buf.payload)


def huffman_encode(row: dict, symbols: np.ndarray) -> tuple[bytes, np.ndarray, np.ndarray]:
    """``(payload, decoded symbols, code lengths)``; checks the row's
    ``package_merge`` claim against what ``huffman_lengths`` really did."""
    merged = []
    real = H.package_merge_lengths
    H.package_merge_lengths = lambda *a: merged.append(1) or real(*a)
    try:
        codec = H.HuffmanCodec(**row["options"])
        payload = codec.encode(symbols, row["alphabet_size"]).payload
        lengths = H.huffman_lengths(
            np.bincount(symbols, minlength=row["alphabet_size"]),
            row["options"]["max_len"])
    finally:
        H.package_merge_lengths = real
    assert bool(merged) == row["package_merge"], row["name"]
    return payload, codec.decode(payload), lengths


def _series(shape: tuple[int, ...], dtype, steps: int, seed: int,
            spikes: int = 0) -> np.ndarray:
    """A growing smooth field under fresh noisy patches, plus ``spikes``
    jumps per snapshot; ``_field``'s mix of regression and Lorenzo blocks
    in every frame."""
    rng = np.random.default_rng(seed)
    base = _field(shape, np.float64, seed, 1.0)
    out = []
    for t in range(steps):
        snap = base * (1.0 + 0.05 * t) + 0.5 * _field(shape, np.float64, seed + 1 + t, 0.0)
        snap.reshape(-1)[rng.integers(0, snap.size, spikes)] += 5.0
        out.append(snap.astype(dtype))
    return np.stack(out)


def temporal_fixtures() -> list[dict]:
    f32, f64 = np.float32, np.float64
    rows = [
        # name, inner, inner options, keyframe_every, mode, knob, value,
        # inner-meta keys some delta frame must show nonzero, series
        ("sz_abs_3d_f32_regression_outliers_k3", "sz", {"radius": 64}, 3,
         "abs", "error_bound", 2e-2,
         ["predictor_regression_fraction", "outlier_count"],
         _series((13, 11, 9), f32, 6, 31, spikes=3)),
        ("sz_abs_1d_f64_k3", "sz", {}, 3, "abs", "error_bound", 1e-2, [],
         _series((157,), f64, 6, 32)),
        ("sz_abs_1d_f64_lzss_k1", "sz", {"lossless": ["lzss"]}, 1, "abs",
         "error_bound", 1e-3, [], _series((61,), f64, 3, 33)),
        ("zfp_accuracy_3d_f32_k3", "zfp", {}, 3, "fixed_accuracy",
         "tolerance", 1e-2, [], _series((8, 9, 7), f32, 6, 34)),
    ]
    return [
        {"name": n, "inner": i, "inner_options": o, "keyframe_every": k,
         "mode": m, "knob": kn, "value": v, "delta_meta": dm, "series": d}
        for n, i, o, k, m, kn, v, dm, d in rows
    ]


def join_frames(frames: list[bytes]) -> bytes:
    return b"".join(len(f).to_bytes(4, "little") + f for f in frames)


def split_frames(payload: bytes) -> list[bytes]:
    frames, pos = [], 0
    while pos < len(payload):
        n = int.from_bytes(payload[pos:pos + 4], "little")
        frames.append(payload[pos + 4:pos + 4 + n])
        pos += 4 + n
    return frames


def temporal_codec(row: dict) -> TemporalCompressor:
    return TemporalCompressor(inner=row["inner"], keyframe_every=row["keyframe_every"],
                              inner_options=row["inner_options"])


def temporal_encode(row: dict, series: np.ndarray) -> tuple[bytes, np.ndarray]:
    """``(joined frames, stacked reconstructions)``.  Checks the closed
    loop (each encoder reference is the decoder's reconstruction) and the
    row's ``delta_meta`` claim."""
    codec = temporal_codec(row)
    bufs = [codec.compress(snap, mode=row["mode"], **{row["knob"]: row["value"]})
            for snap in series]
    recon = codec.decode_series(bufs)
    assert [b.meta["ref_after"] for b in bufs] == [reference_digest(r) for r in recon]
    assert not all(b.meta["keyframe"] for b in bufs) or row["keyframe_every"] == 1
    deltas = [b.meta["inner_meta"] for b in bufs if not b.meta["keyframe"]]
    for key in row["delta_meta"]:
        assert any(m[key] for m in deltas), (row["name"], key)
    return join_frames([b.payload for b in bufs]), np.stack(recon)


def _on_every_tier(encode, row: dict, source: np.ndarray) -> tuple:
    """``encode`` under each registered tier; all results must agree."""
    results = []
    for tier in TIERS:
        with kernels.use(tier):
            results.append(encode(row, source))
    first = results[0]
    for other in results[1:]:
        assert other[0] == first[0], row["name"]
        assert all(np.array_equal(a, b) for a, b in zip(first[1:], other[1:]))
    return first


def _provenance() -> dict:
    git = ["git", "-C", str(HERE)]
    if subprocess.run(git + ["status", "--porcelain", "--", "../../src"],
                      capture_output=True, text=True, check=True).stdout:
        raise SystemExit("src/ has uncommitted changes: commit before pinning")
    rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                         text=True, check=True).stdout.strip()
    for tier in TIERS:  # a pin degrades silently: insist each tier is real
        assert kernels.resolve_name("zfp.encode", tier) == tier, tier
    return {"written_at": rev, "tiers_agreed": list(reversed(TIERS))}


#: subdirectory -> (fixtures, input key, encode)
FAMILIES = {
    "sz": (sz_fixtures, "data", sz_encode),
    "zfp": (zfp_fixtures, "data", zfp_encode),
    "huffman": (huffman_fixtures, "symbols", huffman_encode),
    "temporal": (temporal_fixtures, "series", temporal_encode),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reencode-only", action="store_true")
    args = parser.parse_args()
    for family, (fixtures, key, encode) in FAMILIES.items():
        out = HERE / family
        out.mkdir(parents=True, exist_ok=True)
        manifest_path = out / "manifest.json"
        manifest = (json.loads(manifest_path.read_text())
                    if manifest_path.exists() else [])
        if args.reencode_only:
            for row in manifest:
                source = np.load(out / f"{row['name']}.npz")[key]
                payload, _, *lengths = encode(row, source)
                row["reencode_sha256"] = hashlib.sha256(payload).hexdigest()
                if lengths:
                    row["lengths_sha256"] = array_digest(lengths[0])
        else:
            stamp = _provenance()
            known = {row["name"] for row in manifest}
            for row in fixtures():
                if row["name"] in known:
                    continue
                source = row.pop(key)
                payload, recon, *lengths = _on_every_tier(encode, row, source)
                np.savez(out / f"{row['name']}.npz", **{key: source},
                         payload=np.frombuffer(payload, dtype=np.uint8))
                digest = hashlib.sha256(payload).hexdigest()
                row.update(payload_sha256=digest, recon_sha256=array_digest(recon),
                           reencode_sha256=digest)
                if lengths:
                    row["lengths_sha256"] = array_digest(lengths[0])
                manifest.append({**row, **stamp})
        manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")
        print(f"wrote {len(manifest)} manifest rows to {out}")


if __name__ == "__main__":
    main()
