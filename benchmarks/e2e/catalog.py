"""Workload and metric catalogue of the end-to-end benchmark.

The single source for names, units, directions and bounds:
``BENCHMARK.json`` at the repo root repeats it for the driver (the
harness refuses to run when the two disagree), ``README.md`` explains
it, and ``compare`` reads the bounds from here.

A bound is the share of the baseline's median by which a metric may
worsen before ``compare`` calls it a regression.  Each was set from the
spread of ten runs on ten seeds on the 2-core reference host (README,
"Noise"): three times the widest spread seen over the four workloads,
capped at the driver's limit of 0.25 — which every time-derived metric
reaches, because the same code on the same seed drifts by ~20% over
tens of minutes on that shared VM.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Paper operating points (Fig. 4): SZ ABS at 1e-3 of the field's value
#: range, SZ PW_REL 0.1, ZFP fixed-rate 4 and 8 bits/value.
ABS_RANGE_FRACTION = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line; also BENCHMARK.json's "why"
    callers: int  # closed-loop callers (threads or in-flight lanes)


WORKLOADS = (
    Workload(
        "lib_codec",
        "in-process codecs on 1 MiB Nyx/HACC fields at all four operating "
        "points: compressors/lossless/kernels do all the work, service none",
        callers=1,
    ),
    Workload(
        "svc_small",
        "one daemon, 2 blocking clients, 16 KiB inline frames: the codec is "
        "about a third of a request, protocol/batch/server the rest",
        callers=2,
    ),
    Workload(
        "svc_bulk",
        "one daemon, one pooled client with 2 requests in flight, 3.4 MiB "
        "fields over shm: codec ~80%, the data plane and pipelining the rest",
        callers=2,
    ),
    Workload(
        "routed_insitu",
        "router + 2 shards: stateless 128 KiB COMPRESS/DECOMPRESS over 16 "
        "routing keys beside one sticky temporal session stream",
        callers=2,
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    layer: str
    what: str
    bound: float | None = None  # end-to-end metrics only


#: Client-observed, tracing off.  Every one is a non-zero number on every
#: workload (the driver's contract), which is why ``failed_fraction`` and
#: ``session_step_p50_ms`` of the issue live in PER_LAYER instead.
END_TO_END = (
    Metric("throughput_mbps", "MB/s", "higher", "e2e",
           "uncompressed MB of verified ops / window seconds", 0.25),
    Metric("compress_p50_ms", "ms", "lower", "e2e",
           "median COMPRESS latency (library call or client round trip)", 0.25),
    Metric("compress_p90_ms", "ms", "lower", "e2e",
           "90th percentile COMPRESS latency", 0.25),
    Metric("decompress_p50_ms", "ms", "lower", "e2e",
           "median DECOMPRESS latency", 0.25),
    Metric("decompress_p90_ms", "ms", "lower", "e2e",
           "90th percentile DECOMPRESS latency", 0.25),
    Metric("compression_ratio", "ratio", "higher", "e2e",
           "sum bytes in / sum bytes out over the distinct cells verified "
           "in the window; exact for a seed", 0.15),
    Metric("cpu_s_per_gib", "s/GiB", "lower", "e2e",
           "user+sys CPU of harness and every SUT process per GiB processed",
           0.25),
    Metric("peak_rss_mib", "MiB", "lower", "e2e",
           "sum of VmHWM over SUT processes (the harness for lib_codec)",
           0.15),
    Metric("setup_s", "s", "lower", "e2e",
           "median of 3 cycles: spawn -> ready -> first verified reply per "
           "codec, native kernel cache pre-built", 0.25),
)

_KERNELS = (
    "sz.lorenzo", "sz.lorenzo_inverse", "huffman.encode", "huffman.decode",
    "pack.varlen", "zfp.encode", "zfp.decode", "zfp.transpose",
    "zfp.transpose_inverse",
)
OP_POINT_KEYS = ("sz.abs", "sz.pwrel", "zfp.rate4", "zfp.rate8")

#: Traced run.  A layer the workload does not run reports 0.
PER_LAYER = (
    *(Metric(f"kernels.{k}.mbps", "MB/s", "higher", "kernels",
             f"kernels.call({k!r}) on arguments captured from the "
             "workload's own fields; MB = bytes of its array arguments")
      for k in _KERNELS),
    Metric("kernels.native_count", "count", "higher", "kernels",
           "kernels resolved to the native tier (exact)"),
    *(Metric(f"compressors.{p}.{d}_ms", "ms/MiB", "lower", "compressors",
             f"library {d} p50 at {p}, per MiB of field")
      for p in OP_POINT_KEYS for d in ("compress", "decompress")),
    Metric("compressors.temporal.step_ms", "ms/MiB", "lower", "compressors",
           "library TemporalCompressor step p50, per MiB of snapshot"),
    Metric("compressors.temporal.ratio_gain", "ratio", "higher",
           "compressors",
           "temporal stream bytes vs independent frames (exact)"),
    Metric("service.protocol.frame_us", "us", "lower", "service.protocol",
           "encode_frame+decode_frame+pack_array+unpack_array on the "
           "workload's payloads, p50"),
    Metric("parallel.shm.pool_cycle_us", "us", "lower", "parallel.shm",
           "SegmentPool.acquire + copy-in + release at the workload's size"),
    Metric("parallel.shm.attach_us", "us", "lower", "parallel.shm",
           "SharedArray.attach + close of a published segment"),
    Metric("parallel.shm.pool_reuse_ratio", "ratio", "higher", "parallel.shm",
           "client pool acquires served without creating a segment"),
    Metric("service.batch.queue_wait_ms", "ms", "lower", "service.batch",
           "daemon service.queue_wait span mean (STATS delta)"),
    Metric("service.batch.dispatch_ms", "ms", "lower", "service.batch",
           "daemon dispatch mean per batch (STATS delta)"),
    Metric("service.batch.mean_batch_size", "count", "higher",
           "service.batch", "requests per dispatched batch (STATS delta)"),
    Metric("service.batch.busy_replies", "count", "lower", "service.batch",
           "requests refused with BUSY (STATS delta)"),
    Metric("service.store_rtt_ms", "ms", "lower", "service.server",
           "round trip through the store codec = transport only, p50"),
    Metric("service.overhead_ms", "ms", "lower", "service.server",
           "client COMPRESS p50 - library p50 for the identical requests"),
    Metric("service.server.latency_p50_ms", "ms", "lower", "service.server",
           "daemon-side request latency p50 (STATS window)"),
    Metric("service.wire_ms", "ms", "lower", "service.server",
           "client p50 - server p50"),
    Metric("service.server.reply_ms", "ms", "lower", "service.server",
           "daemon service.reply span mean (STATS delta)"),
    Metric("service.server.cpu_s", "s", "lower", "service.server",
           "CPU of daemon/shard processes over the window"),
    Metric("service.client.cpu_s", "s", "lower", "service.client",
           "CPU of the harness (clients + checker) over the window"),
    Metric("service.client.latency_p99_ms", "ms", "lower", "service.client",
           "client-observed p99 over all op classes"),
    Metric("service.cluster.router_overhead_us", "us", "lower",
           "service.cluster",
           "same request routed vs direct to its shard, alternating; "
           "difference of p50s"),
    Metric("service.cluster.shard_share_max", "ratio", "lower",
           "service.cluster", "busiest shard's share of forwards"),
    Metric("service.cluster.hedges", "count", "lower", "service.cluster",
           "hedged forwards (expect 0)"),
    Metric("service.cluster.failovers", "count", "lower", "service.cluster",
           "failed-over forwards (expect 0)"),
    Metric("service.cluster.router_cpu_s", "s", "lower", "service.cluster",
           "CPU of the router process over the window"),
    Metric("service.sessions.step_p50_ms", "ms", "lower", "service.sessions",
           "SESSION_STEP client p50 (the issue's session_step_p50_ms)"),
    Metric("service.sessions.step_p90_ms", "ms", "lower", "service.sessions",
           "SESSION_STEP client p90"),
    Metric("service.sessions.step_overhead_ms", "ms", "lower",
           "service.sessions", "session step p50 - library temporal step p50"),
    Metric("service.sessions.sticky_violations", "count", "lower",
           "service.sessions", "steps served by another shard than step 0"),
    Metric("service.sessions.evictions", "count", "lower",
           "service.sessions", "sessions evicted (expect 0)"),
    Metric("budget.unattributed_ms", "ms", "lower", "budget",
           "COMPRESS client p50 minus every attributed budget row"),
    Metric("telemetry.overhead_pct", "%", "lower", "telemetry",
           "throughput lost in traced slices vs interleaved untraced ones"),
    Metric("cosmo.gen_s", "s", "lower", "cosmo",
           "input generation inside set-up"),
    Metric("failed_fraction", "ratio", "lower", "checker",
           "failed, refused, timed-out, bound-violating or mismatching ops "
           "/ attempted (must be 0)"),
    Metric("leaks.procs", "count", "lower", "leaks",
           "processes of the harness session alive after teardown"),
    Metric("leaks.shm_segments", "count", "lower", "leaks",
           "/dev/shm segments not present at start"),
    Metric("leaks.fds", "count", "lower", "leaks",
           "daemon fd growth between warm-up end and window end"),
)

E2E_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def benchmark_json(run_seconds: int) -> dict:
    """The contract file's content, derived from this catalogue."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
