"""Where the benchmark lives and where it may write (inside the checkout)."""

from __future__ import annotations

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC_DIR = ROOT / "src"
#: Reports, traces and SUT logs (gitignored).
RESULTS_DIR = BENCH_DIR / "results"
#: Native kernel cache and temp files, kept between runs of one checkout
#: so only the first run pays the compile (gitignored).
BUILD_DIR = BENCH_DIR / ".build"
KERNEL_CACHE = BUILD_DIR / "kernels"
TMP_DIR = BUILD_DIR / "tmp"
CONTRACT_FILE = ROOT / "BENCHMARK.json"
