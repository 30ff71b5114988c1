"""Shared benchmark fixtures.

Each ``bench_*`` file regenerates one table/figure of the paper: it writes
the reproduced rows/series to ``benchmarks/results/<id>.txt`` (and CSV
series where the figure is a curve) and benchmarks the computational
kernel behind the figure with pytest-benchmark.

Run with::

    pytest benchmarks/ --benchmark-only

and inspect ``benchmarks/results/`` afterwards.  ``PROFILE`` can be
overridden via the REPRO_PROFILE environment variable ("small",
"default", "paper").
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.base import hacc_for, nyx_for

PROFILE = os.environ.get("REPRO_PROFILE", "small")

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_DIR.mkdir(exist_ok=True)


def write_result(experiment_id: str, text: str) -> None:
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def profile() -> str:
    return PROFILE


@pytest.fixture(scope="session")
def nyx():
    return nyx_for(PROFILE)


@pytest.fixture(scope="session")
def hacc():
    return hacc_for(PROFILE)
