"""Streaming engine speedup + bounded peak memory vs the whole-array engine.

Headline measurement: an 8-cell ZFP+SZ sweep over a 30 MB 1-D HACC
position field (200^3 particles — the paper's out-of-core case is
particle data, and a 1-D field keeps whole-array and chunked cells on
the *same* codec path so the comparison is pure engine), run both ways
with ``workers=2``:

* **baseline**: the PR 2 engine — whole-array cells, pickling transport
  (``REPRO_NO_SHM=1`` ships the full field to every worker task);
* **streaming**: chunked cells (``chunk_budget=1M``) over the zero-copy
  shared-memory transport.

Two effects stack: workers attach the published field instead of
unpickling a private copy, and the chunked kernels run over
cache-resident working sets — at 30 MB the whole-array ZFP bit-plane
matrices alone are ~15x the field and fall out of every cache level
(measured per-cell at rate=8: ZFP 52 s -> 15 s, SZ 5.6 s -> 3.4 s).  The
acceptance bar is a >= 2x end-to-end speedup, best of ``TRIALS`` runs
per path.  A third (untimed) streaming run with ``REPRO_NO_SHM=1`` pins
transport invariance: identical records either way.

The memory benchmark runs three fresh subprocesses (``--memprobe``; a
fork would inherit the parent's VmHWM high-water mark) over a GenericIO
file holding a field >= 4x the chunk budget:

* **unit**: one chunk compressed + decompressed + one full metrics
  re-block — the irreducible per-chunk working set ``W``;
* **full**: the whole field streamed through mmap chunks
  (``drop_pages=True``) — must stay under ``2 * W``, i.e. peak RSS is
  independent of field size;
* **whole**: the in-memory whole-array path, for scale (measured ~8x
  the streaming peak at these sizes).

Run standalone for the CI smoke: ``python benchmarks/bench_streaming.py
--quick`` (small field, 2-cell sweep, equality + memory assertions, no
speedup floor — tiny inputs are all fixed overhead).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:  # standalone `python benchmarks/bench_streaming.py`
    sys.path.insert(0, SRC)

from repro.foresight.cbench import CBench
from repro.foresight.config import CompressorSweep

TRIALS = 1  # each path takes minutes; the measured margin is ~2x the floor
MEMORY_SLACK = 8 << 20  # allocator + interpreter jitter on top of 2*W


def _field_hacc_200() -> np.ndarray:
    """A 30 MB 1-D particle field regardless of REPRO_PROFILE.

    The bar is fixed, and it must be a size where whole-array codec
    working sets (~10-20x the field) genuinely thrash the cache.
    """
    from repro.cosmo.hacc import make_hacc_dataset

    return make_hacc_dataset(particles_per_side=200).fields["x"]


def _sz_sweep(field: np.ndarray, n: int = 4) -> CompressorSweep:
    std = float(field.std())
    ratios = (2e-3, 1e-3, 7e-4, 5e-4)[:n]
    return CompressorSweep(
        name="sz",
        mode="abs",
        sweep={"error_bound": [round(std * r, 6) for r in ratios]},
    )


def _sweep_once(
    field: np.ndarray,
    *,
    chunk_budget: int | None,
    no_shm: bool,
    workers: int = 2,
    cells: int = 4,
) -> list:
    if no_shm:
        os.environ["REPRO_NO_SHM"] = "1"
    else:
        os.environ.pop("REPRO_NO_SHM", None)
    try:
        bench = CBench(
            {"x": field},
            keep_reconstructions=False,
            chunk_budget=chunk_budget,
        )
        zfp = CompressorSweep(
            name="zfp",
            mode="fixed_rate",
            sweep={"rate": [4.0, 8.0, 12.0, 16.0][:cells]},
        )
        return bench.run_all([zfp, _sz_sweep(field, cells)], workers=workers)
    finally:
        os.environ.pop("REPRO_NO_SHM", None)


def _rows(records: list) -> list[tuple]:
    return [
        (r.compressor, r.field, r.parameter, r.compression_ratio, r.bitrate,
         tuple(sorted(r.metrics.items())))
        for r in records
    ]


def _best_of(fn, trials: int = TRIALS) -> tuple[float, list]:
    best, records = float("inf"), None
    for _ in range(trials):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best, records = dt, out
    return best, records


# --------------------------------------------------------------------------
# speedup
# --------------------------------------------------------------------------


def test_streaming_speedup(benchmark):
    field = _field_hacc_200()
    budget = 1 << 20

    baseline_seconds, baseline_records = _best_of(
        lambda: _sweep_once(field, chunk_budget=None, no_shm=True)
    )

    t0 = time.perf_counter()
    benchmark.pedantic(
        _sweep_once,
        args=(field,),
        kwargs=dict(chunk_budget=budget, no_shm=False),
        rounds=1,
        iterations=1,
    )
    first = time.perf_counter() - t0
    rest, fast_records = _best_of(
        lambda: _sweep_once(field, chunk_budget=budget, no_shm=False),
        TRIALS - 1,
    )
    fast_seconds = min(first, rest)
    if fast_records is None:  # TRIALS == 1: only the pedantic round ran
        fast_records = _sweep_once(field, chunk_budget=budget, no_shm=False)

    # Transport invariance: the pickling fallback must reproduce the shm
    # streaming records bit-for-bit (untimed).
    fallback_records = _sweep_once(field, chunk_budget=budget, no_shm=True)
    assert _rows(fallback_records) == _rows(fast_records)
    assert len(fast_records) == len(baseline_records) == 8

    speedup = baseline_seconds / fast_seconds
    lines = [
        "streaming engine: 8-cell ZFP+SZ sweep of a 30 MB HACC position field",
        f"(workers=2, best of {TRIALS} trials per path)",
        f"baseline (whole-array cells, pickling transport): {baseline_seconds:8.3f} s",
        f"streaming (1M chunks, shared-memory transport):   {fast_seconds:8.3f} s",
        f"speedup: {speedup:.2f}x (acceptance floor: 2x)",
    ]
    write_result("streaming", "\n".join(lines))
    assert speedup >= 2.0, f"streaming engine only {speedup:.2f}x faster"


# --------------------------------------------------------------------------
# bounded peak memory
# --------------------------------------------------------------------------


def _write_probe_file(path: str, elements: int) -> None:
    from repro.io.genericio import write_genericio

    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 60.0, elements, dtype=np.float32)
    field = (np.sin(t) * 100.0 + rng.standard_normal(elements).astype(np.float32))
    write_genericio(path, {"rho": field.astype(np.float32)})


def _memprobe(mode: str, path: str, budget: int) -> dict:
    """Run one probe in a fresh interpreter (fork would inherit VmHWM)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # The streaming-vs-whole-array margin below is a contract about the
    # numpy engine's traversal (its whole-array bit-plane temporaries);
    # leaner kernel tiers (native) shrink the whole-array peak and would
    # make the ratio flap with host toolchain availability.
    env["REPRO_BACKEND"] = "numpy"
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--memprobe", mode, path,
         str(budget)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"memprobe {mode} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _run_memprobe(mode: str, path: str, budget: int) -> None:
    from repro.compressors.streaming import ChunkedCompressor
    from repro.compressors.sz.szcompressor import SZCompressor
    from repro.io.genericio import GenericIOReader
    from repro.metrics.streaming import BLOCK_ELEMENTS, StreamingDistortion
    from repro.telemetry.process import peak_rss_bytes

    reader = GenericIOReader(path, verify=False)
    chunk_elements = budget // reader.dtype("rho").itemsize
    total = reader.count("rho")
    base = peak_rss_bytes()

    if mode == "unit":
        # The irreducible working set: one chunk through the codec plus
        # one full metrics re-block (the accumulator's fixed block size).
        sz = SZCompressor()
        chunk = np.array(next(reader.iter_chunks("rho", chunk_elements)))
        buf = sz.compress(chunk, error_bound=0.5, mode="abs")
        part = sz.decompress(buf)
        acc = StreamingDistortion()
        acc.update(chunk, part)
        block = np.zeros(BLOCK_ELEMENTS, dtype=np.float32)
        acc.update(block, block)
        acc.result()
    elif mode == "full":
        chunked = ChunkedCompressor(SZCompressor(), chunk_elements)
        buf = chunked.compress_chunks(
            reader.iter_chunks("rho", chunk_elements, drop_pages=True),
            (total,), reader.dtype("rho"), error_bound=0.5, mode="abs",
        )
        acc = StreamingDistortion()
        originals = reader.iter_chunks("rho", chunk_elements, drop_pages=True)
        for part in chunked.iter_decompressed(buf):
            acc.update(next(originals), part)
        acc.result()
    elif mode == "whole":
        data = np.array(reader.view("rho"))
        sz = SZCompressor()
        buf = sz.compress(data, error_bound=0.5, mode="abs")
        recon = sz.decompress(buf)
        acc = StreamingDistortion()
        acc.update(data, recon)
        acc.result()
    else:
        raise SystemExit(f"unknown memprobe mode {mode!r}")

    print(json.dumps({"mode": mode, "delta": peak_rss_bytes() - base,
                      "field_bytes": total * 4, "budget": budget}))


def _assert_bounded_memory(
    elements: int, budget: int, whole_ratio: int = 4
) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probe.gio")
        _write_probe_file(path, elements)
        unit = _memprobe("unit", path, budget)
        full = _memprobe("full", path, budget)
        whole = _memprobe("whole", path, budget)

    field_bytes = full["field_bytes"]
    assert field_bytes >= 4 * budget, "probe field must dwarf the chunk budget"
    lines = [
        f"field {field_bytes >> 20} MB, chunk budget {budget >> 10} KB "
        f"(field = {field_bytes // budget}x budget); peak-RSS deltas:",
        f"unit  (one chunk + one metrics block): {unit['delta'] >> 20:5d} MB",
        f"full  (streamed, mmap + drop_pages):   {full['delta'] >> 20:5d} MB",
        f"whole (in-memory whole-array path):    {whole['delta'] >> 20:5d} MB",
    ]
    # The contract: streaming peak RSS is bounded by the per-chunk
    # working set, not by the field — 2x unit covers double buffering.
    assert full["delta"] <= 2 * unit["delta"] + MEMORY_SLACK, (
        f"streaming peak {full['delta']} exceeds 2x the per-chunk working "
        f"set {unit['delta']} (+{MEMORY_SLACK} slack)"
    )
    assert full["delta"] * whole_ratio <= whole["delta"], (
        f"streaming peak {full['delta']} is not well under the whole-array "
        f"peak {whole['delta']}"
    )
    return lines


def test_streaming_bounded_memory():
    lines = _assert_bounded_memory(elements=4 << 20, budget=1 << 20)
    write_result("streaming_memory", "\n".join(lines))


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

try:  # pytest collection (conftest lives beside this file)
    from conftest import write_result
except ImportError:  # standalone --quick / --memprobe
    def write_result(experiment_id: str, text: str) -> None:
        results = Path(__file__).parent / "results"
        results.mkdir(exist_ok=True)
        (results / f"{experiment_id}.txt").write_text(text + "\n")


def _quick() -> None:
    """CI smoke: tiny sizes, equality + memory assertions, no speedup bar."""
    from repro.experiments.base import hacc_for

    field = hacc_for("small").fields["x"]
    budget = 16 << 10
    t0 = time.perf_counter()
    base = _sweep_once(field, chunk_budget=None, no_shm=True, cells=1)
    fast = _sweep_once(field, chunk_budget=budget, no_shm=False, cells=1)
    fallback = _sweep_once(field, chunk_budget=budget, no_shm=True, cells=1)
    assert len(base) == len(fast) == 2
    assert _rows(fast) == _rows(fallback), "shm vs pickling records diverged"
    sweep_dt = time.perf_counter() - t0

    t0 = time.perf_counter()
    # The 4x whole-vs-streaming gap is a full-size property; on a 2 MB
    # smoke field fixed overheads compress it, so only require 2x here.
    lines = _assert_bounded_memory(
        elements=512 << 10, budget=128 << 10, whole_ratio=2
    )
    mem_dt = time.perf_counter() - t0
    print(f"quick sweep matrix ok ({sweep_dt:.1f}s); bounded memory ok "
          f"({mem_dt:.1f}s):")
    print("\n".join("  " + line for line in lines))


def main(argv: list[str]) -> None:
    if argv[:1] == ["--memprobe"]:
        _run_memprobe(argv[1], argv[2], int(argv[3]))
    elif argv[:1] == ["--quick"]:
        _quick()
    else:
        raise SystemExit("usage: bench_streaming.py --quick | "
                         "--memprobe MODE PATH BUDGET")


if __name__ == "__main__":
    main(sys.argv[1:])
