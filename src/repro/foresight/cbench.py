"""CBench: the compression benchmark runner (Foresight component 1).

CBench takes fields and compressor sweeps and produces one record per
(compressor, field, configuration): compression ratio, bitrate, the full
distortion metric set, wall-clock timings of this Python implementation
(labelled as such — GPU throughput comes from :mod:`repro.gpu`), and
optionally the reconstructed array for downstream domain analyses.

Fast-path engine hooks:

* ``workers`` on :meth:`CBench.run` / :meth:`CBench.run_all` fans the
  cells out over worker *processes* (:mod:`repro.parallel.executor`);
  record order matches the serial loop, and per-cell telemetry spans
  produced in workers ride home in ``CBenchRecord.meta["telemetry"]``.
* ``cache`` on :class:`CBench` memoizes cells on disk
  (:mod:`repro.cache`): a hit skips compress/decompress/metrics entirely
  and is marked ``meta["cache"] == "hit"`` (timings are the original
  run's — records are otherwise identical).

Zero-copy / out-of-core engine hooks (this PR):

* With multiple workers, :meth:`CBench.run_all` publishes each swept
  field **once** into POSIX shared memory (:mod:`repro.parallel.shm`)
  and ships only tiny descriptors through the task pickles; workers
  attach by name and read the same physical pages.  ``REPRO_NO_SHM=1``
  restores the pickling transport (results are identical either way).
* ``chunk_budget`` (or ``REPRO_CHUNK_BUDGET``, bytes with optional
  K/M/G suffix) switches :meth:`CBench.run_one` to the *streaming*
  cell: the field is compressed chunk by chunk through
  :class:`~repro.compressors.streaming.ChunkedCompressor`'s stream
  format, with chunk N+1 compressing in a background thread while the
  main thread decompresses chunk N and feeds the
  :class:`~repro.metrics.streaming.StreamingDistortion` accumulator —
  so original + reconstruction never coexist as whole arrays and peak
  memory tracks the chunk budget, not the field size.
"""

from __future__ import annotations

import copy
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from repro import kernels
from repro.cache import ResultCache, data_digest, make_key
from repro.compressors.base import CompressedBuffer
from repro.compressors.registry import get_compressor
from repro.compressors.streaming import ChunkedCompressor
from repro.errors import ConfigError, DataError
from repro.foresight.config import CompressorSweep
from repro.metrics.error import evaluate_distortion
from repro.metrics.streaming import StreamingDistortion
from repro.parallel.executor import process_map, resolve_workers
from repro.parallel.shm import ShmDescriptor, SharedArray, attach_cached, shm_enabled
from repro.telemetry import get_telemetry, peak_rss_bytes
from repro.util.validation import parse_bytes  # noqa: F401 (historical home)

#: Environment variable supplying a default streaming chunk budget.
CHUNK_BUDGET_ENV = "REPRO_CHUNK_BUDGET"


def resolve_chunk_budget(chunk_budget: int | str | None) -> int | None:
    """Normalize a chunk-budget request (None → ``REPRO_CHUNK_BUDGET``)."""
    if chunk_budget is None:
        raw = os.environ.get(CHUNK_BUDGET_ENV, "").strip()
        if not raw:
            return None
        return parse_bytes(raw)
    return parse_bytes(chunk_budget)


@dataclass
class CBenchRecord:
    """One benchmark row."""

    compressor: str
    field: str
    mode: str
    parameter: float
    compression_ratio: float
    bitrate: float
    metrics: dict[str, float]
    compress_seconds: float
    decompress_seconds: float
    meta: dict[str, Any] = field(default_factory=dict)
    reconstruction: np.ndarray | None = None

    def to_row(self) -> dict[str, Any]:
        """Flat dict for RecordStore / Cinema (drops the reconstruction)."""
        row: dict[str, Any] = {
            "compressor": self.compressor,
            "field": self.field,
            "mode": self.mode,
            "parameter": self.parameter,
            "compression_ratio": self.compression_ratio,
            "bitrate": self.bitrate,
            "compress_seconds": self.compress_seconds,
            "decompress_seconds": self.decompress_seconds,
        }
        row.update(self.metrics)
        return row


def _run_cell(
    bench: "CBench", task: tuple[CompressorSweep, str, float]
) -> CBenchRecord:
    """Module-level (picklable) worker for one sweep cell."""
    sweep, field_name, value = task
    return bench.run_one(sweep, field_name, value)


class CBench:
    """Benchmark executor.

    >>> bench = CBench({"rho": some_field})
    >>> records = bench.run(sweep)            # doctest: +SKIP

    ``cache`` (a :class:`repro.cache.ResultCache` or a directory path)
    memoizes cells across runs; ``None`` falls back to the
    ``REPRO_CACHE_DIR`` environment variable (unset → no caching).
    """

    def __init__(
        self,
        fields: dict[str, np.ndarray],
        keep_reconstructions: bool = True,
        cache: ResultCache | Path | str | None = None,
        chunk_budget: int | str | None = None,
        backend: str | None = None,
    ) -> None:
        if not fields:
            raise DataError("CBench needs at least one field")
        self.fields = fields
        self.keep_reconstructions = keep_reconstructions
        if cache is None:
            cache = ResultCache.from_env()
        elif not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.chunk_budget = resolve_chunk_budget(chunk_budget)
        if backend is not None and backend != "auto" and backend not in kernels.TIER_ORDER:
            raise ConfigError(
                f"backend must be one of {('auto',) + kernels.TIER_ORDER}, "
                f"got {backend!r}"
            )
        #: Kernel tier every cell runs under (``None`` → process default).
        #: The bench itself is pickled to process_map workers, so the
        #: selection rides along to parallel cells too.
        self.backend = backend
        self._digests: dict[str, str] = {}

    def _field(self, name: str) -> np.ndarray:
        """Resolve a field to an array, attaching shm descriptors lazily.

        After :meth:`run_all` publishes fields to shared memory, workers
        receive a bench whose ``fields`` hold :class:`ShmDescriptor`
        values; the first access in each process attaches the segment
        (memoized) and yields the zero-copy read-only view.
        """
        if name not in self.fields:
            raise DataError(f"unknown field {name!r}")
        value = self.fields[name]
        if isinstance(value, ShmDescriptor):
            return attach_cached(value)
        return value

    def _cell_key(self, sweep: CompressorSweep, field_name: str, value: float) -> str:
        digest = self._digests.get(field_name)
        if digest is None:
            digest = self._digests[field_name] = data_digest(self._field(field_name))
        options = sweep.options
        if self.chunk_budget is not None:
            # The streaming cell's payload is the chunked stream, whose
            # bytes depend on the chunk size — a different budget must
            # miss rather than alias the whole-array entry.
            options = {**options, "_chunk_budget": int(self.chunk_budget)}
        return make_key(
            sweep.name, options, sweep.mode, sweep.knob, float(value), digest
        )

    def run_one(
        self,
        sweep: CompressorSweep,
        field_name: str,
        value: float,
    ) -> CBenchRecord:
        """Run a single (compressor, field, knob value) cell.

        With a ``chunk_budget`` configured the cell runs the streaming
        pipeline (:meth:`_run_one_streaming`) instead.  Either way the
        cell runs under this bench's kernel ``backend`` selection; the
        override is process-global, so the streaming path's background
        compress thread inherits it too.
        """
        with kernels.use(self.backend):
            if self.chunk_budget is not None:
                return self._run_one_streaming(sweep, field_name, value)
            return self._run_one_dense(sweep, field_name, value)

    def _run_one_dense(
        self,
        sweep: CompressorSweep,
        field_name: str,
        value: float,
    ) -> CBenchRecord:
        data = self._field(field_name)
        key = None
        if self.cache is not None:
            key = self._cell_key(sweep, field_name, value)
            hit = self.cache.get(key)
            if hit is not None:
                record, buf = hit
                record = replace(record, meta={**record.meta, "cache": "hit"})
                if self.keep_reconstructions:
                    compressor = get_compressor(sweep.name, **sweep.options)
                    record.reconstruction = compressor.decompress(buf)
                return record

        compressor = get_compressor(sweep.name, **sweep.options)

        tm = get_telemetry()
        # High-water mark so the cell's whole span subtree (including the
        # codec-internal stage spans) can be attached to the record below.
        mark = tm.tracer.last_span_id() if tm.enabled else 0

        kwargs: dict[str, Any] = {"mode": sweep.mode, sweep.knob: value}
        with tm.span(
            "cbench.run_one",
            compressor=sweep.name,
            field=field_name,
            mode=sweep.mode,
            parameter=float(value),
            bytes=data.nbytes,
        ):
            t0 = time.perf_counter()
            with tm.span("cbench.compress", bytes=data.nbytes, compressor=sweep.name):
                buf: CompressedBuffer = compressor.compress(data, **kwargs)
            t1 = time.perf_counter()
            with tm.span("cbench.decompress", bytes=data.nbytes, compressor=sweep.name):
                recon = compressor.decompress(buf)
            t2 = time.perf_counter()
            with tm.span("cbench.metrics", bytes=data.nbytes):
                distortion = evaluate_distortion(data, recon)

        meta = dict(buf.meta)
        meta["kernels"] = kernels.active()
        if tm.enabled:
            tm.count("cbench.cells")
            tm.count("cbench.bytes_in", data.nbytes)
            tm.count("cbench.bytes_out", buf.compressed_nbytes)
            meta["telemetry"] = {
                "spans": [s.to_dict() for s in tm.tracer.drain(mark)],
                "compression_ratio": buf.compression_ratio,
            }

        record = CBenchRecord(
            compressor=sweep.name,
            field=field_name,
            mode=sweep.mode,
            parameter=value,
            compression_ratio=buf.compression_ratio,
            bitrate=buf.bitrate,
            metrics=distortion,
            compress_seconds=t1 - t0,
            decompress_seconds=t2 - t1,
            meta=meta,
            reconstruction=recon if self.keep_reconstructions else None,
        )
        if self.cache is not None and key is not None:
            # The reconstruction is re-derivable from the buffer and the
            # telemetry subtree belongs to the original run only; cache
            # the record without them plus the compressed stream itself.
            cache_meta = {k: v for k, v in meta.items() if k != "telemetry"}
            self.cache.put(
                key, (replace(record, reconstruction=None, meta=cache_meta), buf)
            )
        return record

    def _run_one_streaming(
        self,
        sweep: CompressorSweep,
        field_name: str,
        value: float,
    ) -> CBenchRecord:
        """One cell, out-of-core: double-buffered chunk pipeline.

        Chunk N+1 compresses in a background thread while the main
        thread decompresses chunk N and folds it into the streaming
        metric accumulator, so compression and evaluation overlap and
        the working set stays ~O(chunk budget): the original is only
        ever *viewed* chunk-wise and the reconstruction exists one chunk
        at a time (unless ``keep_reconstructions`` asks for it whole).
        The assembled payload is byte-identical to
        ``ChunkedCompressor.compress`` on the materialized field with
        the same chunk size, and the metric values are byte-identical
        to ``evaluate_distortion`` on the full pair.
        """
        data = self._field(field_name)
        dtype = data.dtype
        chunk_elements = max(64, int(self.chunk_budget // max(1, dtype.itemsize)))
        chunked = ChunkedCompressor(
            get_compressor(sweep.name, **sweep.options), chunk_elements
        )

        key = None
        if self.cache is not None:
            key = self._cell_key(sweep, field_name, value)
            hit = self.cache.get(key)
            if hit is not None:
                record, buf = hit
                record = replace(record, meta={**record.meta, "cache": "hit"})
                if self.keep_reconstructions:
                    record.reconstruction = chunked.decompress(buf)
                return record

        inner = chunked.inner
        kwargs: dict[str, Any] = {"mode": sweep.mode, sweep.knob: value}
        flat = data.reshape(-1)
        n_chunks = max(1, -(-flat.size // chunk_elements))
        recon = (
            np.empty(data.shape, dtype=dtype) if self.keep_reconstructions else None
        )
        recon_flat = recon.reshape(-1) if recon is not None else None

        def compress_chunk(index: int) -> tuple[bytes, float]:
            lo = index * chunk_elements
            t0 = time.perf_counter()
            payload = inner.compress(flat[lo : lo + chunk_elements], **kwargs).payload
            return payload, time.perf_counter() - t0

        tm = get_telemetry()
        mark = tm.tracer.last_span_id() if tm.enabled else 0
        payloads: list[bytes] = []
        acc = StreamingDistortion()
        compress_seconds = 0.0
        decompress_seconds = 0.0
        with tm.span(
            "cbench.run_one",
            compressor=sweep.name,
            field=field_name,
            mode=sweep.mode,
            parameter=float(value),
            bytes=data.nbytes,
            streaming=True,
            chunks=n_chunks,
        ):
            with ThreadPoolExecutor(max_workers=1) as pool:
                future = pool.submit(compress_chunk, 0)
                for index in range(n_chunks):
                    payload, dt = future.result()
                    compress_seconds += dt
                    if index + 1 < n_chunks:
                        future = pool.submit(compress_chunk, index + 1)
                    lo = index * chunk_elements
                    hi = min(flat.size, lo + chunk_elements)
                    with tm.span(
                        "cbench.chunk", index=index, elements=hi - lo,
                        bytes=len(payload),
                    ):
                        t0 = time.perf_counter()
                        part = inner.decompress(payload)
                        decompress_seconds += time.perf_counter() - t0
                        acc.update(flat[lo:hi], part)
                        if recon_flat is not None:
                            recon_flat[lo:hi] = part
                    payloads.append(payload)
            buf = chunked.assemble(
                payloads, flat.size, data.shape, dtype, kwargs
            )
            with tm.span("cbench.metrics", bytes=data.nbytes, streaming=True):
                distortion = acc.result()

        meta = dict(buf.meta)
        meta["kernels"] = kernels.active()
        meta["streaming"] = {"chunk_elements": chunk_elements, "n_chunks": n_chunks}
        if tm.enabled:
            tm.count("cbench.cells")
            tm.count("cbench.bytes_in", data.nbytes)
            tm.count("cbench.bytes_out", buf.compressed_nbytes)
            tm.set_gauge("process.peak_rss_bytes", float(peak_rss_bytes()))
            meta["telemetry"] = {
                "spans": [s.to_dict() for s in tm.tracer.drain(mark)],
                "compression_ratio": buf.compression_ratio,
            }

        record = CBenchRecord(
            compressor=sweep.name,
            field=field_name,
            mode=sweep.mode,
            parameter=value,
            compression_ratio=buf.compression_ratio,
            bitrate=buf.bitrate,
            metrics=distortion,
            compress_seconds=compress_seconds,
            decompress_seconds=decompress_seconds,
            meta=meta,
            reconstruction=recon,
        )
        if self.cache is not None and key is not None:
            cache_meta = {k: v for k, v in meta.items() if k != "telemetry"}
            self.cache.put(
                key, (replace(record, reconstruction=None, meta=cache_meta), buf)
            )
        return record

    def _tasks(
        self, sweeps: list[CompressorSweep], fields: list[str] | None
    ) -> list[tuple[CompressorSweep, str, float]]:
        return [
            (sweep, name, value)
            for sweep in sweeps
            for name in (fields or list(self.fields))
            for value in sweep.values_for(name)
        ]

    def run(
        self,
        sweep: CompressorSweep,
        fields: list[str] | None = None,
        workers: int | None = None,
    ) -> list[CBenchRecord]:
        """Run a full sweep over the requested fields.

        ``workers`` follows :func:`repro.parallel.executor.resolve_workers`
        (``None`` → ``REPRO_WORKERS`` env, 0 → one per CPU); the record
        order is identical to the serial loop regardless.
        """
        return self.run_all([sweep], fields, workers=workers)

    def run_all(
        self,
        sweeps: list[CompressorSweep],
        fields: list[str] | None = None,
        workers: int | None = None,
    ) -> list[CBenchRecord]:
        """Run several compressor sweeps back to back (see :meth:`run`).

        With more than one worker and shared memory enabled
        (``REPRO_NO_SHM`` unset), every swept ndarray field is published
        once into a shared segment; the bench shipped to workers carries
        only descriptors, so task pickles are O(bytes of metadata)
        instead of O(bytes of field) and all workers read the same
        pages.  Segments are unlinked when the sweep returns.
        """
        tasks = self._tasks(sweeps, fields)
        published: list[SharedArray] = []
        bench = self
        if resolve_workers(workers) > 1 and len(tasks) > 1 and shm_enabled():
            swept = {name for _, name, _ in tasks}
            shm_fields: dict[str, Any] = dict(self.fields)
            for name in swept:
                arr = self.fields[name]
                if isinstance(arr, np.ndarray) and arr.nbytes > 0:
                    if self.cache is not None:
                        # Digest in the parent so workers don't re-hash.
                        self._digests.setdefault(name, data_digest(arr))
                    handle = SharedArray.publish(np.ascontiguousarray(arr))
                    published.append(handle)
                    shm_fields[name] = handle.descriptor()
            if published:
                bench = copy.copy(self)
                bench.fields = shm_fields
        try:
            return process_map(
                partial(_run_cell, bench), tasks, workers=workers
            )
        finally:
            for handle in published:
                handle.unlink()
