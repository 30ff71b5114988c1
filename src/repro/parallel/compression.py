"""Per-rank independent compression — how the paper's dataset was made.

HACC's GenericIO files store each MPI rank's particles contiguously
("the HACC simulation used to generate this dataset runs with 8x8x4 MPI
processes, and each MPI process saves its own portion"), and in-situ
compression happens independently per rank.  This module reproduces that
path: scatter a particle field by rank, compress every rank's share
separately, and reassemble — validating that the global error bound
survives the decomposition (it must: ABS bounds compose trivially).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from repro.compressors.base import CompressedBuffer, Compressor
from repro.errors import DataError
from repro.parallel.decomposition import CartesianDecomposition
from repro.parallel.executor import process_map, resolve_workers
from repro.telemetry import get_telemetry


@dataclass
class DistributedCompressionResult:
    """Per-rank buffers plus global reassembly bookkeeping."""

    buffers: list[CompressedBuffer]
    owned_ids: list[np.ndarray]
    n_total: int

    @property
    def compressed_nbytes(self) -> int:
        return sum(b.compressed_nbytes for b in self.buffers)

    @property
    def original_nbytes(self) -> int:
        return sum(b.original_nbytes for b in self.buffers)

    @property
    def compression_ratio(self) -> float:
        return self.original_nbytes / max(1, self.compressed_nbytes)

    def per_rank_ratios(self) -> list[float]:
        return [b.compression_ratio for b in self.buffers]


def _compress_rank(
    compressor: Compressor,
    params: dict[str, Any],
    task: tuple[int, np.ndarray],
) -> CompressedBuffer:
    """Module-level (picklable) worker: compress one rank's particles."""
    rank, chunk = task
    with get_telemetry().span(
        "parallel.rank_compress",
        rank=rank,
        particles=int(chunk.size),
        bytes=chunk.nbytes,
    ):
        return compressor.compress(chunk, **params)


def compress_distributed(
    compressor: Compressor,
    values: np.ndarray,
    positions: np.ndarray,
    decomp: CartesianDecomposition,
    max_workers: int | None = None,
    **params: Any,
) -> DistributedCompressionResult:
    """Compress ``values`` (one per particle) rank by rank.

    ``max_workers`` resolving to > 1 compresses the ranks on worker
    *processes* (:func:`repro.parallel.executor.process_map`; ``None``
    defers to ``REPRO_WORKERS``, 0 means one per CPU).  The codec inner
    loops are pure Python/numpy holding the GIL, so the thread pool this
    module used to offer serialized them — only separate processes give
    the per-rank parallelism of the MPI processes being modelled.  Buffer
    order follows rank order either way.  Every rank is wrapped in a
    ``parallel.rank_compress`` span; worker ranks' spans reach the
    caller's tracer through ``process_map``, so the merged trace always
    shows the per-rank timeline.
    """
    values = np.asarray(values)
    if values.ndim != 1 or values.shape[0] != positions.shape[0]:
        raise DataError("values must be 1-D with one entry per particle")
    owned = decomp.scatter(positions)
    tm = get_telemetry()

    work = [(rank, values[ids]) for rank, ids in enumerate(owned) if ids.size]
    buffers = process_map(
        partial(_compress_rank, compressor, params),
        work, workers=resolve_workers(max_workers), chunk_size=1,
    )
    for (_, chunk), buf in zip(work, buffers):
        tm.count("parallel.rank_cells")
        tm.count("parallel.bytes_in", chunk.nbytes)
        tm.count("parallel.bytes_out", buf.compressed_nbytes)
    kept_ids = [ids for ids in owned if ids.size]
    return DistributedCompressionResult(
        buffers=buffers, owned_ids=kept_ids, n_total=values.shape[0]
    )


def decompress_distributed(
    compressor: Compressor,
    result: DistributedCompressionResult,
    dtype: np.dtype | None = None,
) -> np.ndarray:
    """Reassemble the global field from per-rank buffers."""
    tm = get_telemetry()
    out: np.ndarray | None = None
    for rank, (buf, ids) in enumerate(zip(result.buffers, result.owned_ids)):
        with tm.span(
            "parallel.rank_decompress",
            rank=rank,
            bytes=buf.original_nbytes,
        ):
            chunk = compressor.decompress(buf)
        if out is None:
            out = np.empty(result.n_total, dtype=dtype or chunk.dtype)
        out[ids] = chunk
    if out is None:
        raise DataError("nothing to decompress")
    return out
