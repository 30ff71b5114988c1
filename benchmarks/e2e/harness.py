"""The load-generating harness: runs workloads, checks every reply,
computes every metric, audits leaks.  Started by ``run.py`` in its own
session; never run it directly when teardown guarantees matter.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

import numpy as np

import paths
import probes
import stats
import sut
import workloads as wl
from catalog import (
    END_TO_END, PER_LAYER, WORKLOAD_NAMES, benchmark_json,
)
from inputs import SERIES_LENGTH, schedule_digest
from repro.service.protocol import SHM_MIN_BYTES
from tracing import NAME as SPAN_NAME
from tracing import layers_traced, self_time_rows
from workloads import CELL, CLASS, NBYTES, NBYTES_OUT, OK, T0, T1

GIB = float(1 << 30)
SETUP_CYCLES = 3
WARMUP_S = 3.0
#: A traced run spends this share of ``--seconds`` in its window of
#: alternating traced/untraced slices; the probes get the rest.
TRACED_WINDOW_SHARE = 0.5
#: untraced, traced, traced, untraced: linear drift cancels, and each
#: slice stays long against the slowest workload's 100 ms ops
TRACED_SLICES = (False, True, True, False)
#: Hard stop for one workload run: set-up + warm-up + window + probes
#: never legitimately take this long beyond the window itself.
WATCHDOG_EXTRA_S = 100.0


class Interrupted(BaseException):
    """SIGTERM/SIGINT/watchdog; BaseException so that no ``except
    Exception`` in the library (kernel tier fallback) can swallow it."""


def _on_signal(signum: int, _frame: Any) -> None:
    raise Interrupted(signum)


# -- observation -------------------------------------------------------------------


def _flatten(metrics: dict) -> dict[str, float]:
    """Counters and histogram sums/counts of one STATS ``metrics`` map."""
    flat = {}
    for name, m in metrics.items():
        if m.get("type") == "histogram":
            flat[name + "#sum"] = float(m["sum"])
            flat[name + "#count"] = float(m["count"])
        elif m.get("type") == "counter":
            flat[name] = float(m["value"])
    return flat


class Sample:
    """CPU clocks and STATS counters at one instant."""

    def __init__(self, run: wl.WorkloadRun) -> None:
        self.host_jiffies = sut.host_jiffies()
        self.harness_cpu = time.process_time()
        self.server_cpu = sum(map(sut.cpu_seconds, run.server_pids()))
        self.router_cpu = sum(map(sut.cpu_seconds, run.router_pids()))
        reply = run.stats()
        self.servers: dict[str, dict[str, float]] = {}
        self.router: dict[str, float] = {}
        self.sessions_evicted = 0
        self.server_p50_ms = 0.0
        if reply is None:
            return
        if reply.get("role") == "router":
            self.router = _flatten(reply.get("metrics") or {})
            shard_replies = reply["fleet"]["shards"]
        else:
            shard_replies = {"daemon": reply}
        p50s = []
        for sid, shard in shard_replies.items():
            self.servers[sid] = _flatten(shard.get("metrics") or {})
            self.sessions_evicted += int(
                (shard.get("sessions") or {}).get("evictions", 0))
            if "p50_ms" in (shard.get("latency") or {}):
                p50s.append(shard["latency"]["p50_ms"])
        self.server_p50_ms = stats.median(p50s) if p50s else 0.0


class Delta:
    """Difference of two samples, with the lookups the metrics need."""

    def __init__(self, a: Sample, b: Sample) -> None:
        total, steal = (y - x for x, y in zip(a.host_jiffies, b.host_jiffies))
        self.steal_pct = 100.0 * steal / total if total else 0.0
        self.harness_cpu = b.harness_cpu - a.harness_cpu
        self.server_cpu = b.server_cpu - a.server_cpu
        self.router_cpu = b.router_cpu - a.router_cpu
        self.sessions_evicted = b.sessions_evicted - a.sessions_evicted
        self.server_p50_ms = b.server_p50_ms
        self.per_server = {
            sid: {k: v - a.servers.get(sid, {}).get(k, 0.0)
                  for k, v in flat.items()}
            for sid, flat in b.servers.items()
        }
        self.router = {k: v - a.router.get(k, 0.0)
                       for k, v in b.router.items()}

    def server(self, key: str) -> float:
        """A counter's growth summed over daemons/shards."""
        return sum(flat.get(key, 0.0) for flat in self.per_server.values())

    def server_mean(self, total: str, count: str, scale: float = 1.0) -> float:
        n = self.server(count)
        return self.server(total) / n * scale if n else 0.0


def _window_records(run: wl.WorkloadRun, start: float, end: float) -> list[tuple]:
    return [r for c in run.callers for r in c.records
            if start <= r[T0] and r[T1] <= end]


def _latencies_ms(records: list[tuple], op_class: str) -> list[float]:
    return [(r[T1] - r[T0]) * 1e3 for r in records
            if r[OK] and r[CLASS] == op_class]


def _tracing_overhead_pct(plain: list[tuple], traced: list[tuple]) -> float:
    """Throughput a closed loop loses to tracing, like ops against like.

    Slices see different stretches of the schedule, and cells differ in
    cost, so raw slice throughputs mostly compare op mixes.  This takes
    the mean latency of each (cell, class) seen in both kinds of slice
    and compares the time the same ops took.
    """
    def mean_by_op(records: list[tuple]) -> dict[tuple, float]:
        sums: dict[tuple, list[float]] = {}
        for r in records:
            if r[OK]:
                sums.setdefault((r[CELL], r[CLASS]), []).append(r[T1] - r[T0])
        return {k: sum(v) / len(v) for k, v in sums.items()}

    off, on = mean_by_op(plain), mean_by_op(traced)
    common = off.keys() & on.keys()
    if not common:
        return 0.0
    return 100.0 * (1.0 - sum(off[k] for k in common)
                    / sum(on[k] for k in common))


def _compression_ratio(records: list[tuple]) -> tuple[float, int]:
    """Over the distinct verified cells: (ratio, number of cells)."""
    cells = {r[CELL]: (r[NBYTES], r[NBYTES_OUT]) for r in records
             if r[OK] and r[NBYTES_OUT]}
    bytes_in = sum(v[0] for v in cells.values())
    bytes_out = sum(v[1] for v in cells.values())
    return (bytes_in / bytes_out if bytes_out else 0.0), len(cells)


def _peak_rss_mib(run: wl.WorkloadRun) -> float:
    pids = run.server_pids() + run.router_pids() or [os.getpid()]
    return sum(map(sut.vm_hwm_mib, pids))


def _fd_total(run: wl.WorkloadRun) -> int:
    """Open fds over all SUT processes, once they have gone quiet.

    The short sleep lets a daemon finish what follows its last reply:
    dropping the STATS connection, unmapping the request's segment.
    """
    pids = run.server_pids() + run.router_pids()
    if pids:
        time.sleep(0.05)
    return sum(map(sut.fd_count, pids))


# -- one workload run -----------------------------------------------------------------


def execute(workload: str, seed: int, seconds: float, traced: bool,
            *, warmup_s: float = WARMUP_S, cycles: int = SETUP_CYCLES,
            fixed_passes: int = 0, corrupt_reply: bool = False,
            bound_scale: float = 1.0) -> dict:
    """Set up, warm up, measure, probe (traced), tear down, audit.

    ``fixed_passes`` replaces the timed window by that many whole passes
    of every caller's schedule (the selftest's determinism check).
    """
    shm_before = sut.shm_snapshot()
    sut.reset_own_peak_rss()
    log_dir = paths.RESULTS_DIR / "logs" / workload
    watchdog = threading.Timer(
        seconds + WATCHDOG_EXTRA_S, os.kill, (os.getpid(), signal.SIGTERM)
    )
    watchdog.daemon = True
    watchdog.start()
    run = wl.RUNS[workload](seed, traced, log_dir, corrupt_reply=corrupt_reply)
    result: dict[str, Any] = {}
    try:
        # References first: they also build the native kernel cache,
        # untimed, before any daemon or cold start needs it.
        captured: dict[str, tuple] = {}
        with probes.capture_kernel_args(captured) if traced else nullcontext():
            run.prepare(bound_scale)
        setup_times = []
        for cycle in range(cycles):
            if cycle:
                run.teardown_cycle()
            setup_times.append(run.setup_cycle(cycle))
        run.connect()
        if fixed_passes:
            result = _measure_fixed(run, fixed_passes)
        elif traced:
            result = _measure_traced(run, seconds, warmup_s, captured)
        else:
            result = _measure(run, seconds, warmup_s)
        result["end_to_end"]["setup_s"] = stats.median(setup_times)
        result["setup_cycles_s"] = setup_times
        result["schedule_digest"] = schedule_digest(
            run.inputs, run.schedules,
            with_series=any(isinstance(c, wl.SessionCaller)
                            for c in run.callers))
        result["errors"] = run.errors
    finally:
        watchdog.cancel()
        run.close()
        leaks = sut.audit_leaks(shm_before, os.getpid())
    leaks["fds"] = result.pop("fd_growth", 0)
    result["leaks"] = leaks
    result["per_layer"].update({f"leaks.{k}": float(v) for k, v in leaks.items()})
    if run.recorder is not None:
        trace_path = paths.RESULTS_DIR / f"trace-{workload}.json"
        trace_path.write_text(json.dumps(run.recorder.to_json()))
    return result


def _summarize(run: wl.WorkloadRun, records: list[tuple], window_s: float,
               delta: Delta) -> dict:
    """End-to-end metrics and bookkeeping of one window's records."""
    ok_bytes = sum(r[NBYTES] for r in records if r[OK])
    ratio, cells = _compression_ratio(records)
    e2e = {
        "throughput_mbps": ok_bytes / 1e6 / window_s,
        "compression_ratio": ratio,
        "cpu_s_per_gib": (delta.harness_cpu + delta.server_cpu
                          + delta.router_cpu) / (ok_bytes / GIB)
        if ok_bytes else 0.0,
        "peak_rss_mib": _peak_rss_mib(run),
    }
    samples = {}
    for op_class in ("compress", "decompress", "session_step"):
        lat = _latencies_ms(records, op_class)
        samples[op_class] = len(lat)
        if lat and op_class != "session_step":
            e2e[f"{op_class}_p50_ms"] = stats.percentile(lat, 50)
            e2e[f"{op_class}_p90_ms"] = stats.percentile(lat, 90)
    failed = sum(not r[OK] for r in records)
    return {
        "end_to_end": e2e,
        "per_layer": {"failed_fraction": failed / max(1, len(records))},
        "attempted": len(records),
        "failed": failed,
        "samples": samples,
        "cells_verified": cells,
        "window_s": window_s,
        "host_steal_pct": delta.steal_pct,
    }


def _baseline(run: wl.WorkloadRun) -> tuple[Sample, int]:
    """Counters and daemon fd total at the start of a window.

    fds are counted after the first STATS: a router opens its control
    channels to the shards on that call and keeps them, which is not a
    leak.
    """
    sample = Sample(run)
    return sample, _fd_total(run)


def _measure(run: wl.WorkloadRun, seconds: float, warmup_s: float) -> dict:
    wl.run_phase(run, warmup_s)
    before, fds = _baseline(run)
    start, end = wl.run_phase(run, seconds)
    fd_growth = max(0, _fd_total(run) - fds)
    result = _summarize(run, _window_records(run, start, end), end - start,
                        Delta(before, Sample(run)))
    result["fd_growth"] = fd_growth
    return result


def _measure_fixed(run: wl.WorkloadRun, passes: int) -> dict:
    before = Sample(run)
    start = time.perf_counter()
    for caller in run.callers:  # sequential: op counts must not race
        steps = (len(caller.order) or SERIES_LENGTH) * passes
        for _ in range(steps):
            caller.step()
    end = time.perf_counter()
    return _summarize(run, _window_records(run, start, end), end - start,
                      Delta(before, Sample(run)))


def _measure_traced(run: wl.WorkloadRun, seconds: float, warmup_s: float,
                    captured: dict[str, tuple]) -> dict:
    wl.run_phase(run, warmup_s)
    before, fds = _baseline(run)
    slice_s = seconds * TRACED_WINDOW_SHARE / len(TRACED_SLICES)
    slices: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
    for on in TRACED_SLICES:
        run.tracing = on
        with layers_traced(run.recorder) if on else nullcontext():
            slices[on].append(wl.run_phase(run, slice_s))
    run.tracing = False
    fd_growth = max(0, _fd_total(run) - fds)
    delta = Delta(before, Sample(run))

    def of(on: bool) -> tuple[list[tuple], float]:
        recs = [r for s, e in slices[on] for r in _window_records(run, s, e)]
        return recs, sum(e - s for s, e in slices[on])

    traced_recs, traced_s = of(True)
    plain_recs, plain_s = of(False)
    records = plain_recs + traced_recs
    result = _summarize(run, records, plain_s + traced_s, delta)
    result["fd_growth"] = fd_growth
    layer = result["per_layer"]
    layer["telemetry.overhead_pct"] = _tracing_overhead_pct(
        plain_recs, traced_recs)
    layer["cosmo.gen_s"] = run.inputs.gen_s
    probe_s = max(2.0, seconds * (1.0 - TRACED_WINDOW_SHARE) - 2.0)
    _layer_metrics(run, layer, records, delta, captured, probe_s)
    result["budget"] = _budget(run, result, traced_recs, delta)
    layer["budget.unattributed_ms"] = \
        result["budget"]["compress"]["rows"]["unattributed"]
    return result


# -- per-layer metrics -------------------------------------------------------------------


def _layer_metrics(run: wl.WorkloadRun, layer: dict, records: list[tuple],
                   delta: Delta, captured: dict[str, tuple],
                   probe_s: float) -> None:
    inputs = run.inputs
    service = run.fleet is not None
    all_lat = [(r[T1] - r[T0]) * 1e3 for r in records if r[OK]]
    compress_p50 = stats.percentile(_latencies_ms(records, "compress"), 50)

    layer.update(probes.kernel_rates(captured, probe_s * 0.2))
    if service:
        library = probes.library_latencies(run, probe_s * 0.4)
    else:
        library = records
    layer.update(probes.compressor_metrics(library))
    if inputs.series:
        mib = inputs.series[0].nbytes / probes.MIB
        layer["compressors.temporal.step_ms"] = \
            stats.median(inputs.series_step_s) * 1e3 / mib
        layer["compressors.temporal.ratio_gain"] = \
            inputs.independent_nbytes_out / sum(inputs.series_nbytes_out)
    if not service:
        return

    layer["service.protocol.frame_us"] = probes.framing_us(run, probe_s * 0.1)
    first = inputs.cells[0].data
    if first.nbytes >= SHM_MIN_BYTES:  # the workload's payloads ride shm
        layer.update(probes.shm_metrics(first, probe_s * 0.1))
        names = [s[SPAN_NAME] for s in run.recorder.spans]
        acquires = names.count("parallel.shm.acquire")
        if acquires:
            layer["parallel.shm.pool_reuse_ratio"] = \
                1.0 - names.count("parallel.shm.create") / acquires
    layer["service.store_rtt_ms"] = probes.store_rtt_ms(run, probe_s * 0.1)
    library_p50 = stats.percentile(_latencies_ms(library, "compress"), 50)
    layer["service.overhead_ms"] = compress_p50 - library_p50

    layer["service.batch.queue_wait_ms"] = delta.server_mean(
        'spans.seconds{name="service.queue_wait"}',
        'spans.count{name="service.queue_wait"}', 1e3)
    layer["service.batch.dispatch_ms"] = delta.server_mean(
        'service.dispatch_ms{op="compress"}#sum',
        'service.dispatch_ms{op="compress"}#count')
    layer["service.batch.mean_batch_size"] = delta.server_mean(
        "service.batched_requests", "service.batches")
    layer["service.batch.busy_replies"] = delta.server("service.rejected_busy")
    layer["service.server.latency_p50_ms"] = delta.server_p50_ms
    layer["service.wire_ms"] = stats.percentile(all_lat, 50) - delta.server_p50_ms
    layer["service.server.reply_ms"] = delta.server_mean(
        'spans.seconds{name="service.reply"}',
        'spans.count{name="service.reply"}', 1e3)
    layer["service.server.cpu_s"] = delta.server_cpu
    layer["service.client.cpu_s"] = delta.harness_cpu
    layer["service.client.latency_p99_ms"] = stats.percentile(all_lat, 99)

    if run.router_pids():
        layer["service.cluster.router_overhead_us"] = \
            probes.router_overhead_us(run, pairs=40)
        forwards = [sum(v for k, v in flat.items()
                        if k.startswith("service.requests.")
                        and k.rsplit(".", 1)[1] in
                        ("compress", "decompress", "session_step"))
                    for flat in delta.per_server.values()]
        layer["service.cluster.shard_share_max"] = \
            max(forwards) / sum(forwards) if sum(forwards) else 0.0
        layer["service.cluster.hedges"] = delta.router.get("router.hedges", 0.0)
        layer["service.cluster.failovers"] = \
            delta.router.get("router.failovers", 0.0)
        layer["service.cluster.router_cpu_s"] = delta.router_cpu
    steps = _latencies_ms(records, "session_step")
    if steps:
        step_p50 = stats.percentile(steps, 50)
        layer["service.sessions.step_p50_ms"] = step_p50
        layer["service.sessions.step_p90_ms"] = stats.percentile(steps, 90)
        layer["service.sessions.step_overhead_ms"] = \
            step_p50 - stats.median(inputs.series_step_s) * 1e3
        layer["service.sessions.sticky_violations"] = \
            float(run.session_caller.sticky_violations)
        layer["service.sessions.evictions"] = float(delta.sessions_evicted)


def _budget(run: wl.WorkloadRun, result: dict, records: list[tuple],
            delta: Delta) -> dict:
    """Per op class: rows (ms) that sum to the client p50 of the traced
    slices' ``records``.

    Layer rows are means per request (only means add up over a class
    that mixes codecs and fields): client-side ones from the bench's
    spans, the split of the socket wait from the daemon's own STATS over
    the same window.  ``unattributed`` is the client mean minus every
    layer row, ``skew`` the p50 minus the mean, so the table totals p50.
    """
    budget = {}
    layer = result["per_layer"]
    for op in ("compress", "decompress", "session_step"):
        lat = _latencies_ms(records, op)
        if not lat:
            continue
        p50, mean = stats.percentile(lat, 50), sum(lat) / len(lat)
        rows, n = self_time_rows(run.recorder.spans, op)
        rows = {k: v * 1e3 for k, v in rows.items()}
        wait = rows.pop("wait", None)
        if wait is None and run.fleet is not None:
            # pooled client: the reader thread owns the socket and the
            # caller's root span waits on a future instead
            wait, rows["service.client"] = rows["service.client"], 0.0
        if wait is not None:
            server = delta.server_mean(
                f'service.latency_ms{{op="{op}"}}#sum',
                f'service.latency_ms{{op="{op}"}}#count')
            reply = layer.get("service.server.reply_ms", 0.0)
            if op == "session_step":
                # steps bypass the batcher; the codec share is the library's
                queue = 0.0
                codec = stats.median(run.inputs.series_step_s) * 1e3
                rows["service.sessions.step(codec, library p50)"] = codec
            else:
                queue = layer.get("service.batch.queue_wait_ms", 0.0)
                codec = delta.server_mean(
                    f'service.dispatch_ms{{op="{op}"}}#sum',
                    f'service.dispatch_ms{{op="{op}"}}#count')
                rows["service.batch.dispatch(codec)"] = codec
                if queue:
                    rows["service.batch.queue_wait"] = queue
            rows["service.server.reply"] = reply
            # without a trace context (pooled client) the daemon records
            # no queue_wait span, and the queueing stays in this row
            other = "service.server.other" if queue or op == "session_step" \
                else "service.server.other+queue_wait"
            rows[other] = server - queue - codec - reply
            router = layer.get("service.cluster.router_overhead_us", 0.0) / 1e3
            if router:
                rows["service.cluster.router"] = router
            rows["wire"] = wait - server - router
        rows["unattributed"] = mean - sum(rows.values())
        rows["skew(p50-mean)"] = p50 - mean
        budget[op] = {"rows": rows, "p50": p50, "mean": mean,
                      "requests_traced": n}
    return budget


# -- documents and reports ----------------------------------------------------------------


def fingerprint() -> dict:
    from repro import kernels
    from repro.kernels import native

    commit = "unknown"
    if (paths.ROOT / ".git").exists():  # the driver's checkout has none
        try:
            commit = subprocess.run(
                ["git", "-C", str(paths.ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    tiers = kernels.active()
    try:
        flavor = native.flavor()
    except Exception:  # no native tier at all on this host
        flavor = "none"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_flavor": flavor,
        "kernel_tiers": tiers,
        "degraded": any(
            t != "native" for k, t in tiers.items()
            if k not in ("huffman.canonical", "huffman.package_merge")
        ),
        "loadavg_1m": os.getloadavg()[0],
    }


def _metric_cells(values: dict[str, float], catalogue) -> dict:
    """{name: {"value", "unit"}} for every catalogue metric (0 if absent)."""
    return {m.name: {"value": float(values.get(m.name, 0.0)), "unit": m.unit}
            for m in catalogue}


def contract_line(result: dict, traced: bool) -> str:
    """The driver's last stdout line for one run."""
    block = _metric_cells(result["per_layer"], PER_LAYER) if traced \
        else _metric_cells(result["end_to_end"], END_TO_END)
    leaks = result["leaks"]
    clean = not any(leaks.values())
    return json.dumps({
        "correct": result["failed"] == 0 and clean,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": block,
    })


def print_result(workload: str, result: dict, traced: bool) -> None:
    kind = "traced" if traced else "untraced"
    print(f"== {workload} ({kind}) schedule {result['schedule_digest']} "
          f"window {result['window_s']:.2f}s attempted {result['attempted']} "
          f"failed {result['failed']} samples {result['samples']} "
          f"cells {result['cells_verified']} "
          f"host steal {result['host_steal_pct']:.1f}%")
    print(f"   leaks {result['leaks']}")
    for name, count in result["errors"].items():
        print(f"   error x{count}: {name}")
    catalogue, values = (PER_LAYER, result["per_layer"]) if traced \
        else (END_TO_END, result["end_to_end"])
    for m in catalogue:
        if m.name in values:
            print(f"   {m.name:<44} {values[m.name]:>14.4f} {m.unit}")
    for op_class, table in result.get("budget", {}).items():
        print(f"   budget {op_class}: client p50 {table['p50']:.3f} ms, mean "
              f"{table['mean']:.3f} ms, {table['requests_traced']} traced "
              "requests")
        for row, ms in table["rows"].items():
            print(f"      {row:<44} {ms:>10.3f} ms "
                  f"{ms / table['p50'] * 100:>6.1f}%")


def run_all(seed: int, seconds: float, quick: bool, traced_pass: bool) -> dict:
    """Every workload, untraced then traced; one result document."""
    opts = dict(warmup_s=0.5, cycles=1) if quick else {}
    doc = {"schema": 1, "seed": seed, "seconds": seconds, "quick": quick,
           "fingerprint": fingerprint(), "workloads": {}}
    doc["degraded"] = doc["fingerprint"]["degraded"]
    for workload in WORKLOAD_NAMES:
        result = execute(workload, seed, seconds, False, **opts)
        print_result(workload, result, False)
        if traced_pass:
            traced = execute(workload, seed, seconds, True, **opts)
            print_result(workload, traced, True)
            result["per_layer"] = traced["per_layer"]
            result["budget"] = traced["budget"]
            for key in traced["leaks"]:
                result["leaks"][key] += traced["leaks"][key]
            result["failed"] += traced["failed"]
        doc["workloads"][workload] = {
            **result,
            "end_to_end": _metric_cells(result["end_to_end"], END_TO_END),
        }
    return doc


def _doc_clean(doc: dict) -> bool:
    return all(w["failed"] == 0 and not any(w["leaks"].values())
               for w in doc["workloads"].values())


def print_summary(runs: list[dict]) -> None:
    table = stats.summarize(runs)
    print(f"{'workload':<14} {'metric':<20} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>8}  unit (n={len(runs)})")
    for workload, metrics in table.items():
        for m in END_TO_END:
            cell = metrics[m.name]
            print(f"{workload:<14} {m.name:<20} {cell['q1']:>12.4f} "
                  f"{cell['median']:>12.4f} {cell['q3']:>12.4f} "
                  f"{stats.spread(cell['values']) * 100:>7.2f}%  {m.unit}")


# -- selftest --------------------------------------------------------------------------------


def selftest(seed: int) -> int:
    """The checker can fail, and a seed fixes the run."""
    problems = []
    fixed = dict(traced=False, cycles=1, fixed_passes=1)
    a = execute("svc_small", seed, 0.0, **fixed)
    b = execute("svc_small", seed, 0.0, **fixed)
    for key in ("schedule_digest", "attempted", "samples", "cells_verified"):
        if a[key] != b[key]:
            problems.append(f"same seed, different {key}: {a[key]} vs {b[key]}")
    ratio = [r["end_to_end"]["compression_ratio"] for r in (a, b)]
    if ratio[0] != ratio[1] or not ratio[0]:
        problems.append(f"same seed, different compression_ratio: {ratio}")
    if a["failed"] or b["failed"]:
        problems.append("clean runs report failures")
    other = execute("svc_small", seed + 1, 0.0, **fixed)
    if other["schedule_digest"] == a["schedule_digest"]:
        problems.append("another seed gave the same schedule digest")
    flipped = execute("svc_small", seed, 0.0, corrupt_reply=True, **fixed)
    if flipped["failed"] != 1:
        problems.append(
            f"one corrupted reply byte gave failed={flipped['failed']}, want 1")
    tight = execute("svc_small", seed, 0.0, bound_scale=1e-3, **fixed)
    if not tight["per_layer"]["failed_fraction"] > 0:
        problems.append("a violated bound was not counted as failed")
    for r in (a, b, other, flipped, tight):
        if any(r["leaks"].values()):
            problems.append(f"leaks: {r['leaks']}")
    print(f"selftest: digest {a['schedule_digest']} ops {a['attempted']} "
          f"ratio {ratio[0]:.6f}; corrupted reply -> failed "
          f"{flipped['failed']}/{flipped['attempted']}; violated bound -> "
          f"failed_fraction {tight['per_layer']['failed_fraction']:.3f}")
    for p in problems:
        print("selftest FAILED:", p)
    return 1 if problems else 0


# -- entry -----------------------------------------------------------------------------------


def read_contract() -> dict:
    """BENCHMARK.json, which must repeat the catalogue or numbers get
    misread."""
    on_disk = json.loads(paths.CONTRACT_FILE.read_text())
    if on_disk != benchmark_json(on_disk.get("run_seconds", 0)):
        raise SystemExit(
            "BENCHMARK.json disagrees with benchmarks/e2e/catalog.py; "
            "regenerate it with: run.py --write-contract"
        )
    return on_disk


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=20200518)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--result-file", default=None)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    contract = read_contract()
    paths.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds if args.seconds is not None else (
        2.0 if args.quick else float(contract["run_seconds"]))
    try:
        if args.selftest:
            return selftest(args.seed)
        if args.workload:
            result = execute(args.workload, args.seed, seconds, bool(args.trace))
            print_result(args.workload, result, bool(args.trace))
            line = contract_line(result, bool(args.trace))
            if args.result_file:
                Path(args.result_file).write_text(line)
            else:
                print(line)
            return 0 if not any(result["leaks"].values()) else 3
        runs = []
        for i in range(args.repeat):
            # traced pass once: it informs, the repeats measure noise
            runs.append(run_all(args.seed, seconds, args.quick, i == 0))
        if args.repeat > 1:
            print_summary(runs)
        out = Path(args.out) if args.out else \
            paths.RESULTS_DIR / f"e2e-{time.strftime('%Y%m%dT%H%M%S')}.json"
        out.write_text(json.dumps({"runs": runs}, indent=1))
        print(f"wrote {out}")
        return 0 if all(map(_doc_clean, runs)) else 3
    except Interrupted as exc:
        print(f"interrupted by signal {exc.args[0]}; torn down",
              file=sys.stderr)
        return 128 + int(exc.args[0])


if __name__ == "__main__":
    sys.exit(main())
