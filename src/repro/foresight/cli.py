"""Foresight command-line interface.

The real Foresight is driven as ``foresight <config.json>``; this module
is that executable: it loads the JSON config, generates (or loads) the
dataset, runs the CBench sweeps as a PAT workflow on the SLURM simulator,
executes the configured analyses, and writes a Cinema database plus a
JSON-lines record file into the output directory.

Usage::

    python -m repro.foresight.cli config.json [--nodes 4] [-v | --quiet]
                                  [--trace-out trace.jsonl]
                                  [--workers N] [--cache DIR]

Progress goes through the ``repro.foresight`` logger (stderr); only the
final result table is written to stdout.  ``--trace-out`` enables the
telemetry subsystem for the run and writes every span (CBench cells,
codec pipeline stages, PAT jobs) to a trace file readable with
``python -m repro.telemetry report``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.parallel.shm import NO_SHM_ENV
from repro.cosmo.hacc import make_hacc_dataset
from repro.cosmo.nyx import make_nyx_dataset
from repro.errors import ReproError
from repro.foresight.analysis import get_analysis
from repro.foresight.cbench import CBench
from repro.foresight.cinema import CinemaDatabase
from repro.foresight.config import ForesightConfig, load_config
from repro.foresight.pat import Job, SlurmSimulator, Workflow
from repro.foresight.visualization import format_table
from repro.io.json_records import RecordStore
from repro.telemetry.export import write_chrome, write_jsonl
from repro.telemetry.logs import configure_logging

logger = logging.getLogger("repro.foresight")


def _load_fields_from_file(cfg: ForesightConfig) -> tuple[dict[str, np.ndarray], float]:
    """Load snapshot fields from a .gio (HACC layout) or .h5l (Nyx) file."""
    from repro.io.genericio import read_genericio
    from repro.io.hdf5like import H5LikeFile

    path = cfg.input_file
    box = cfg.box_size if cfg.box_size is not None else (
        256.0 if cfg.dataset == "hacc" else 50.0
    )
    if path.suffix == ".gio":
        gio = read_genericio(path, variables=cfg.fields or None)
        return dict(gio.variables), box
    if path.suffix == ".h5l":
        h5 = H5LikeFile.load(path)
        names = cfg.fields or [k.rsplit("/", 1)[-1] for k in h5.keys()]
        fields = {}
        for name in names:
            key = next((k for k in h5.keys() if k.rsplit("/", 1)[-1] == name), None)
            if key is None:
                raise ReproError(f"dataset {name!r} not found in {path}")
            fields[name] = h5[key]
        return fields, box
    raise ReproError(f"unsupported input file type: {path.suffix!r} (.gio or .h5l)")


def _build_fields(cfg: ForesightConfig) -> tuple[dict[str, np.ndarray], float]:
    if cfg.input_file is not None:
        return _load_fields_from_file(cfg)
    if cfg.dataset == "nyx":
        ds = make_nyx_dataset(**cfg.generator)
    else:
        ds = make_hacc_dataset(**cfg.generator)
    names = cfg.fields or sorted(ds.fields)
    missing = [n for n in names if n not in ds.fields]
    if missing:
        raise ReproError(f"config names unknown fields: {missing}")
    return {n: ds.fields[n] for n in names}, ds.box_size


def run_study(
    cfg: ForesightConfig,
    nodes: int = 4,
    verbose: bool = True,
    trace_out: Path | str | None = None,
    workers: int | None = None,
    cache: Path | str | None = None,
    chunk_budget: int | str | None = None,
    no_shm: bool = False,
) -> list[dict]:
    """Execute a full Foresight study; returns the flat result rows.

    ``trace_out`` enables telemetry for the study and writes the span
    trace there afterwards — ``.json`` gets Chrome trace-event format,
    anything else JSONL.  ``workers`` fans the CBench cells out over
    worker processes (``None`` → ``REPRO_WORKERS`` env, 0 → one per
    CPU); ``cache`` memoizes cells in the given directory (``None`` →
    ``REPRO_CACHE_DIR`` env, unset → no caching).  ``chunk_budget``
    (bytes, K/M/G suffix allowed; ``None`` → ``REPRO_CHUNK_BUDGET``)
    switches CBench to the out-of-core streaming cell; ``no_shm``
    forces the pickling transport for parallel sweeps (equivalent to
    ``REPRO_NO_SHM=1``) — results are identical either way.
    """
    if no_shm:
        os.environ[NO_SHM_ENV] = "1"
    tm_prev = None
    if trace_out is not None:
        tm_prev = telemetry.set_telemetry(telemetry.Telemetry("foresight"))
    try:
        return _run_study(cfg, nodes, verbose, workers=workers, cache=cache,
                          chunk_budget=chunk_budget)
    finally:
        if tm_prev is not None:
            tm = telemetry.set_telemetry(tm_prev)
            path = Path(trace_out)
            spans = tm.tracer.finished_spans()
            if path.suffix == ".json":
                write_chrome(path, spans)
            else:
                write_jsonl(path, spans)
            logger.info("wrote telemetry trace %s (%d spans)", path, len(spans))


def _run_study(
    cfg: ForesightConfig,
    nodes: int,
    verbose: bool,
    workers: int | None = None,
    cache: Path | str | None = None,
    chunk_budget: int | str | None = None,
) -> list[dict]:
    fields, box_size = _build_fields(cfg)
    logger.info(
        "loaded %d field(s): %s", len(fields), ", ".join(sorted(fields))
    )
    bench = CBench(fields, cache=cache, chunk_budget=chunk_budget)
    state: dict = {}

    def cbench_job():
        state["records"] = bench.run_all(
            cfg.compressors, list(fields), workers=workers
        )
        if bench.cache is not None:
            logger.info("cbench cache: %s", bench.cache.stats.to_dict())
        return len(state["records"])

    def analysis_job():
        rows = []
        for rec in state["records"]:
            row = rec.to_row()
            for name in cfg.analyses:
                if name == "distortion":
                    continue  # CBench already computed it
                fn = get_analysis(name)
                out = fn(
                    fields[rec.field],
                    rec.reconstruction,
                    box_size=box_size,
                )
                for key, value in out.items():
                    if np.isscalar(value) or isinstance(value, (bool, int, float)):
                        row[f"{name}.{key}"] = value
            rows.append(row)
        state["rows"] = rows
        return len(rows)

    wf = Workflow("foresight-cli")
    wf.add_job(Job(name="cbench", action=cbench_job))
    wf.add_job(Job(name="analysis", action=analysis_job, depends_on=["cbench"]))
    SlurmSimulator(nodes=nodes).run(wf, raise_on_failure=True)

    outdir = cfg.output_directory
    outdir.mkdir(parents=True, exist_ok=True)
    RecordStore(outdir / "records.jsonl").extend(state["rows"])
    CinemaDatabase(outdir / "study").write(state["rows"])
    logger.info("wrote %s and %s", outdir / "records.jsonl", outdir / "study.cdb")
    if verbose:
        # The result table is the study's product — it stays on stdout.
        cols = [c for c in ("compressor", "field", "parameter",
                            "compression_ratio", "psnr") if any(c in r for r in state["rows"])]
        print(format_table(state["rows"], cols))
    return state["rows"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="foresight", description="Run a Foresight compression study."
    )
    parser.add_argument("config", help="JSON configuration file")
    parser.add_argument("--nodes", type=int, default=4,
                        help="simulated cluster size (default 4)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the result table and progress logging")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="debug-level progress logging")
    parser.add_argument("--log-json", action="store_true",
                        help="emit one JSON object per log record, stamped "
                             "with trace/request ids when available")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="enable telemetry; write the span trace here "
                             "(.json = Chrome trace format, else JSONL)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="CBench worker processes (default: "
                             "$REPRO_WORKERS or serial; 0 = one per CPU)")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="memoize CBench cells in this directory "
                             "(default: $REPRO_CACHE_DIR or no caching)")
    parser.add_argument("--chunk-budget", default=None, metavar="BYTES",
                        help="stream each cell chunk-by-chunk with this "
                             "per-chunk byte budget (K/M/G suffix allowed; "
                             "default: $REPRO_CHUNK_BUDGET or whole-array)")
    parser.add_argument("--no-shm", action="store_true",
                        help="disable the shared-memory field transport for "
                             "parallel sweeps (same as REPRO_NO_SHM=1)")
    args = parser.parse_args(argv)
    configure_logging(verbosity=args.verbose, quiet=args.quiet,
                      json_logs=args.log_json)
    try:
        cfg = load_config(Path(args.config))
        run_study(cfg, nodes=args.nodes, verbose=not args.quiet,
                  trace_out=args.trace_out, workers=args.workers,
                  cache=args.cache, chunk_budget=args.chunk_budget,
                  no_shm=args.no_shm)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
