"""Process-based parallel execution for CPU-bound sweep work.

Every expensive unit of work in this stack — a CBench cell, a figure
experiment, a per-rank compression — is pure Python + numpy.  Thread
pools cannot speed those up: the codec inner loops hold the GIL, so
threads serialize (numpy releases it only inside individual array ops).
This module is the shared *process* executor that gives the sweeps real
CPU parallelism, the way the paper's evaluation farms CBench runs out to
cluster nodes.

Design points:

* **Deterministic ordering.**  Results always come back in task order no
  matter which worker finished first, so a parallel sweep produces the
  same record sequence as the serial loop.
* **Per-task chunking.**  Tasks are grouped into chunks (default: ~4
  chunks per worker) so per-task pickling overhead amortizes while load
  still balances.
* **One knob.**  ``workers=None`` defers to the ``REPRO_WORKERS``
  environment variable (unset/empty → serial); ``workers=0`` means
  "one per CPU".  The same convention is honored by
  :meth:`repro.foresight.cbench.CBench.run_all`,
  ``repro.experiments.runner.run_all``,
  :func:`repro.parallel.compression.compress_distributed`, and the
  ``--workers`` flags of the Foresight and experiments CLIs.
* **Serial fallback.**  With one worker (or one task) the functions run
  inline — no processes, no pickling, identical stack traces.

Workers are separate processes: the callable and every task must be
picklable (module-level functions, ``functools.partial`` over them).
When the parent's telemetry is enabled, each chunk runs under a fresh
local telemetry in its worker and its finished spans travel home with
the results; :func:`process_map` re-ingests them, so callers see worker
spans in their own tracer exactly as if the tasks had run inline.  This
is the only place spans cross a process boundary.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.errors import ConfigError
from repro.telemetry import context as trace_context
from repro.telemetry import enabled_telemetry, get_telemetry

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when ``workers`` is not given.
WORKERS_ENV = "REPRO_WORKERS"

#: Target number of chunks per worker when chunk_size is unspecified.
_CHUNKS_PER_WORKER = 4


def resolve_workers(workers: int | None = None) -> int:
    """Normalize a worker-count request to a concrete positive integer.

    ``None`` reads :data:`WORKERS_ENV` (unset or empty → 1, i.e. serial);
    ``0`` means one worker per CPU; negative values are a
    :class:`~repro.errors.ConfigError`.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from exc
    workers = int(workers)
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, workers)


def chunked(items: Sequence[T], chunk_size: int) -> list[Sequence[T]]:
    """Split ``items`` into consecutive chunks of at most ``chunk_size``."""
    if chunk_size < 1:
        raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


def _apply_chunk(
    fn: Callable[[T], R],
    chunk: Sequence[T],
    ctx: "trace_context.TraceContext | None" = None,
    backend: str | None = None,
    capture: bool = False,
) -> "list[R] | tuple[list[R], list[dict[str, Any]]]":
    """Worker entry point: apply ``fn`` to every task of one chunk.

    ``ctx`` is the submitter's trace context, re-activated here so spans
    minted by the task bodies are parented under the originating span —
    worker subtrees stitch back into the distributed trace on re-ingest.

    ``backend`` is the submitter's kernel-backend override.  Workers are
    fresh processes: they inherit ``REPRO_BACKEND`` through the
    environment, but an override installed with
    :func:`repro.kernels.use` / ``set_backend`` lives in parent memory
    only, so it is re-installed here before any codec work runs.

    ``capture`` (the submitter's telemetry is enabled) runs the chunk
    under a fresh local telemetry — a forked worker inherits the
    parent's live tracer, spans and all — and returns ``(results,
    spans)`` with the chunk's finished spans as dicts.
    """
    from repro import kernels

    with trace_context.use(ctx), kernels.use(backend):
        if not capture:
            return [fn(task) for task in chunk]
        with enabled_telemetry() as tm:
            results = [fn(task) for task in chunk]
        return results, [s.to_dict() for s in tm.tracer.finished_spans()]


def process_map(
    fn: Callable[[T], R],
    tasks: Iterable[T],
    workers: int | None = None,
    chunk_size: int | None = None,
) -> list[R]:
    """``[fn(t) for t in tasks]``, fanned out over worker processes.

    Results are returned in task order regardless of completion order.
    With ``workers`` resolving to 1 (the default when ``REPRO_WORKERS``
    is unset) — or with fewer than two tasks — this runs inline.

    ``fn`` and the tasks must be picklable; use a module-level function
    (optionally via :func:`functools.partial`).  The first worker
    exception is re-raised in the parent, and remaining chunks are
    cancelled.

    With telemetry enabled, the spans each worker chunk finished are
    ingested into the parent tracer (trace-context ids preserved), so a
    task body traces the same way whether it ran inline or remotely.
    """
    task_list = list(tasks)
    nworkers = resolve_workers(workers)
    if nworkers <= 1 or len(task_list) <= 1:
        return [fn(task) for task in task_list]

    if chunk_size is None:
        chunk_size = max(
            1, -(-len(task_list) // (nworkers * _CHUNKS_PER_WORKER))
        )
    chunks = chunked(task_list, chunk_size)
    nworkers = min(nworkers, len(chunks))
    if nworkers <= 1:
        return [fn(task) for task in task_list]

    tm = get_telemetry()
    capture = tm.enabled
    results: list[list[R] | None] = [None] * len(chunks)
    with tm.span(
        "parallel.process_map",
        tasks=len(task_list),
        chunks=len(chunks),
        workers=nworkers,
    ):
        ctx = trace_context.current()  # carried into workers (picklable)
        from repro import kernels

        backend = kernels.current_override()  # re-installed in workers
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            futures = {
                pool.submit(
                    _apply_chunk, fn, chunk, ctx, backend, capture
                ): index
                for index, chunk in enumerate(chunks)
            }
            done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
            first_error: BaseException | None = None
            for future in done:
                error = future.exception()
                if error is not None and first_error is None:
                    first_error = error
            if first_error is not None:
                for future in not_done:
                    future.cancel()
                raise first_error
            for future, index in futures.items():
                chunk_result = future.result()
                if capture:
                    chunk_result, spans = chunk_result
                    tm.tracer.ingest(spans)
                results[index] = chunk_result
    tm.count("parallel.process_map_tasks", len(task_list))
    return [result for chunk in results for result in chunk]  # type: ignore[union-attr]
