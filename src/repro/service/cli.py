"""Command-line interface for the compression service.

::

    python -m repro.service serve   [--host H] [--port P] [--workers N]
                                    [--max-pending N]
                                    [--cache DIR] [--cache-max-bytes BYTES]
                                    [--timeout-s S] [--trace-out PATH]
                                    [--max-sessions N] [--session-idle-s S]
                                    [--shard-id ID] [--backend TIER]
                                    [--log-json] [-v | --quiet]
    python -m repro.service route   [--shards H:P,H:P,...] [--spawn N]
                                    [--host H] [--port P]
                                    [--hedge-after-ms MS] [--fail-after K]
                                    [--recover-after K] [--probe-interval-ms MS]
                                    [--trace-out PATH]
                                    [--workers N] [--cache DIR] ...  (the
                                    other ``serve`` flags, handed to the
                                    shards that ``--spawn`` starts)
    python -m repro.service compress INPUT.npy --compressor NAME
                                    [--mode abs] [--value 1e-3]
                                    [--out OUT.rsz] [--host H] [--port P]
    python -m repro.service stats   [--host H] [--port P]
    python -m repro.service health  [--host H] [--port P]
    python -m repro.service cluster [--host H] [--port P]

``serve`` prints ``serving on HOST:PORT`` on stdout once bound (with
``--port 0`` this is how callers learn the ephemeral port), then runs
until SIGTERM/SIGINT, draining gracefully: admitted requests finish and
receive replies, new ones are refused with a ``busy``/``draining``
frame.  ``--shard-id`` stamps the daemon's identity on every reply
header and Prometheus sample — set it when the daemon is one shard of a
cluster (``docs/CLUSTER.md``).

``route`` runs the cluster router (:mod:`repro.service.cluster`) over a
fleet of shard daemons — pre-started ones via ``--shards``, locally
spawned ones via ``--spawn N`` — and prints ``routing on HOST:PORT``
once bound.  It speaks the same MSG1 protocol as ``serve``, so
``compress``/``stats``/``health``/``cluster`` all work against it.

``compress`` writes the compressed stream to ``--out`` (default: input
path + ``.rsz``) and prints the achieved ratio — a smoke client, not a
replacement for :class:`repro.service.client.ServiceClient`.

``cluster`` dumps the router's CLUSTER op — topology, membership
states, and ring ownership shares — as JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

import numpy as np

from repro.cache import ResultCache
from repro.errors import ReproError
from repro.service.client import DEFAULT_PORT, ServiceClient
from repro.service.cluster import (
    DEFAULT_ROUTER_PORT,
    SHARD_FLAGS,
    ClusterRouter,
)
from repro.service.core import FrameServer
from repro.service.server import CompressionService
from repro.telemetry.logs import configure_logging


def _add_endpoint_args(
    parser: argparse.ArgumentParser, port: int = DEFAULT_PORT
) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=port,
                        help=f"default {port}")


def _run(server: FrameServer, verb: str) -> int:
    """Serve until drained (SIGTERM/SIGINT)."""
    async def _main() -> None:
        await server.start()
        # The bound address is the command's product: parseable by
        # wrappers that started us with --port 0.
        print(f"{verb} on {server.host}:{server.port}", flush=True)
        await server.serve()

    asyncio.run(_main())
    print("drained", flush=True)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    cache = (ResultCache(args.cache, max_bytes=args.cache_max_bytes)
             if args.cache else None)
    service = CompressionService(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        workers=args.workers,
        cache=cache,
        default_timeout_s=args.timeout_s,
        trace_out=args.trace_out,
        shard_id=args.shard_id,
        backend=args.backend,
        max_sessions=args.max_sessions,
        session_idle_s=args.session_idle_s,
    )
    return _run(service, "serving")


def _cmd_route(args: argparse.Namespace) -> int:
    shard_options = {key: getattr(args, key) for key in SHARD_FLAGS}
    shard_options["cache_dir"] = args.cache
    router = ClusterRouter(
        shards=[s for s in (args.shards or "").split(",") if s],
        spawn=args.spawn,
        host=args.host,
        port=args.port,
        shard_options={k: v for k, v in shard_options.items() if v is not None},
        hedge_after_s=(
            None if args.hedge_after_ms is None else args.hedge_after_ms / 1e3
        ),
        fail_after=args.fail_after,
        recover_after=args.recover_after,
        probe_interval_s=args.probe_interval_ms / 1e3,
        trace_out=args.trace_out,
    )

    return _run(router, "routing")


def _cmd_compress(args: argparse.Namespace) -> int:
    data = np.load(args.input)
    out = Path(args.out) if args.out else Path(args.input + ".rsz")
    with ServiceClient(host=args.host, port=args.port) as client:
        buf = client.compress(
            data, args.compressor, mode=args.mode, value=args.value
        )
    out.write_bytes(buf.payload)
    print(
        f"{args.input}: {buf.original_nbytes} -> {buf.compressed_nbytes} bytes "
        f"(ratio {buf.compression_ratio:.2f}, {buf.bitrate:.2f} bits/value) "
        f"-> {out}"
    )
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    """``stats`` / ``health`` / ``cluster``: that op's reply, as JSON."""
    with ServiceClient(host=args.host, port=args.port) as client:
        reply = getattr(client, args.command)()
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service",
        description="Compression-as-a-service daemon and client.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the daemon")
    _add_endpoint_args(serve)
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="codec slots: dispatches in flight at once, "
                            "each on a daemon thread (default or 0: one "
                            "per CPU); also the worker processes of a "
                            "SWEEP's cell fan-out (default: "
                            "$REPRO_WORKERS)")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="admission queue capacity before BUSY (default 64)")
    serve.add_argument("--cache", default=None, metavar="DIR",
                       help="result cache directory for SWEEP "
                            "(default: no cache)")
    serve.add_argument("--cache-max-bytes", default=None, metavar="BYTES",
                       help="bound the result cache (K/M/G suffix allowed)")
    serve.add_argument("--timeout-s", type=float, default=None,
                       help="default per-request deadline in seconds")
    serve.add_argument("--max-sessions", type=int, default=64, metavar="N",
                       help="bound on concurrently open temporal-compression "
                            "sessions (default 64)")
    serve.add_argument("--session-idle-s", type=float, default=300.0,
                       metavar="S",
                       help="evict a session untouched for this long "
                            "(default 300)")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="dump every span (stitched distributed traces "
                            "included) as JSONL here when the daemon drains")
    serve.add_argument("--shard-id", default=None, metavar="ID",
                       help="fleet identity: stamp replies and metrics with "
                            "shard=ID (set by the cluster router's --spawn)")
    serve.add_argument("--backend", default=None, metavar="TIER",
                       choices=("numpy", "native", "auto"),
                       help="kernel tier for codec hot paths (default: "
                            "REPRO_BACKEND, else auto)")
    serve.add_argument("--log-json", action="store_true",
                       help="JSON log records stamped with trace/request ids")
    serve.add_argument("--quiet", action="store_true")
    serve.add_argument("-v", "--verbose", action="count", default=0)
    serve.set_defaults(fn=_cmd_serve)

    route = sub.add_parser(
        "route", help="run the cluster router over N shard daemons"
    )
    _add_endpoint_args(route, DEFAULT_ROUTER_PORT)
    route.add_argument("--shards", default=None, metavar="H:P,H:P",
                       help="comma-separated pre-started shard endpoints")
    route.add_argument("--spawn", type=int, default=0, metavar="N",
                       help="spawn N local shard daemons (ephemeral ports)")
    route.add_argument("--hedge-after-ms", type=float, default=None,
                       help="duplicate a slow forward after this budget "
                            "(default: hedging off)")
    route.add_argument("--fail-after", type=int, default=3,
                       help="consecutive probe misses that drain a shard")
    route.add_argument("--recover-after", type=int, default=2,
                       help="consecutive probe hits that re-admit a shard")
    route.add_argument("--probe-interval-ms", type=float, default=250.0,
                       help="healthy-shard HEALTH probe cadence (default 250)")
    route.add_argument("--trace-out", default=None, metavar="PATH",
                       help="dump router spans as JSONL on drain")
    # Spawned-shard knobs (ignored for --shards endpoints, which were
    # configured by whoever started them).
    route.add_argument("--workers", type=int, default=None, metavar="N")
    route.add_argument("--max-pending", type=int, default=None)
    route.add_argument("--timeout-s", type=float, default=None)
    route.add_argument("--cache", default=None, metavar="DIR",
                       help="parent dir for per-shard result caches")
    route.add_argument("--cache-max-bytes", default=None, metavar="BYTES")
    route.add_argument("--backend", default=None, metavar="TIER",
                       choices=("numpy", "native", "auto"),
                       help="kernel tier for spawned shards")
    route.add_argument("--log-json", action="store_true")
    route.add_argument("--quiet", action="store_true")
    route.add_argument("-v", "--verbose", action="count", default=0)
    route.set_defaults(fn=_cmd_route)

    compress = sub.add_parser("compress", help="compress one .npy file")
    compress.add_argument("input", help="input array (.npy)")
    compress.add_argument("--compressor", required=True)
    compress.add_argument("--mode", default="abs")
    compress.add_argument("--value", type=float, default=1e-3)
    compress.add_argument("--out", default=None)
    _add_endpoint_args(compress)
    compress.set_defaults(fn=_cmd_compress)

    for name, text, port in (
        ("stats", "dump daemon statistics", DEFAULT_PORT),
        ("health", "dump daemon health", DEFAULT_PORT),
        ("cluster", "dump router topology and membership",
         DEFAULT_ROUTER_PORT),
    ):
        dump = sub.add_parser(name, help=text)
        _add_endpoint_args(dump, port)
        dump.set_defaults(fn=_cmd_dump)

    args = parser.parse_args(argv)
    if args.command in ("serve", "route"):
        configure_logging(verbosity=args.verbose, quiet=args.quiet,
                          json_logs=args.log_json)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
