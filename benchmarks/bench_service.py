"""Daemon throughput vs per-call subprocess dispatch.

Headline measurement: 64 small-field COMPRESS requests (a 16^3 Nyx
baryon-density field, SZ at one absolute bound), served two ways:

* **baseline**: the pre-service workflow — every request pays a fresh
  ``python -m repro.foresight`` process (interpreter + numpy import +
  dataset + one-cell sweep), run sequentially as an in situ caller
  without the daemon would;
* **daemon**: one resident :class:`repro.service.server.ServiceThread`,
  hammered by 8 concurrent :class:`~repro.service.client.ServiceClient`
  threads; each request is one dispatch on one of the daemon's codec
  slots, and arrivals beyond the slots queue in arrival order.

The daemon amortizes exactly what the baseline pays per request —
process start-up and codec warm-up — which is the operational point of
compression-as-a-service for in situ use.  Acceptance floor: **>= 3x**
request throughput.  Every daemon reply is additionally checked
byte-identical to a direct ``get_compressor(...).compress(...)`` call,
so the speed never comes at the cost of drift.

Reported per path: wall seconds, requests/s, and client-observed
p50/p99 latency (the daemon also reports its server-side percentiles
from STATS).

Run standalone for the CI smoke: ``python benchmarks/bench_service.py
--quick`` (8 requests, same 3x floor — subprocess start-up dominates at
any request count, so the floor holds even on the smallest run).

**Cluster saturation** (the multi-node fabric, ``docs/CLUSTER.md``):
an offered-load sweep against a :class:`repro.service.cluster.ClusterThread`
fleet of 1 vs N locally spawned shard daemons, requests spread over
distinct fields so consistent-hash placement uses the whole ring.
Acceptance: at saturating load the N-shard fleet must beat the 1-shard
fleet's throughput.  **Availability**: a steady request stream during
which one spawned shard is SIGKILLed mid-run — every accepted request
must still be answered (the router fails the orphaned forwards over to
the surviving shard), i.e. zero client-visible losses.

CI smoke for the fleet: ``python benchmarks/bench_service.py --quick
--shards 2``.

**Data plane** (``--data-plane``): the zero-copy transport matrix.  A
round trip through the ``store`` passthrough codec moves the payload
out and an equal-sized reply back with essentially zero compute, so
the sweep isolates transport cost: {inline TCP, shm handoff} × {1
in-flight (blocking client), N in-flight (pipelined PooledClient)}
across payload sizes.  Acceptance floor: shm+pipelined must reach
**>= 2x** the inline blocking round-trip throughput on >= 8 MiB
same-host payloads, every reply byte-identical either way.  Each run
appends to the ``BENCH_dataplane.json`` trajectory.  CI smoke:
``--data-plane --quick`` (small payloads, bit-exactness enforced, no
throughput floor — CI machines are too noisy to gate on a ratio).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:  # standalone `python benchmarks/bench_service.py`
    sys.path.insert(0, SRC)

from repro.compressors.registry import get_compressor
from repro.cosmo.nyx import make_nyx_dataset
from repro.service import (
    ClusterThread,
    PooledClient,
    ServiceClient,
    ServiceThread,
)

GRID = 16
COMPRESSOR = "sz"
ERROR_BOUND = 0.5
CLIENTS = 8
SPEEDUP_FLOOR = 3.0

#: Saturation sweep: bigger fields (32^3, ~10 ms of SZ per request) so
#: shard CPU — not router overhead — is what saturates.
SAT_GRID = 32
#: Distinct fields cycled across requests: distinct routing keys, so
#: placement spreads the load over the whole ring.
SAT_FIELDS = 16
#: N-shard fleet must beat 1 shard by at least this at saturating load.
CLUSTER_FLOOR = 1.1
#: Shard scaling needs hardware parallelism: on a single-core host two
#: compressing processes time-slice one core, so the scaling acceptance
#: is waived (the sweep still runs and the fabric-overhead floor below
#: still applies — routing must never *halve* throughput).
MULTI_CORE = (os.cpu_count() or 1) >= 2
OVERHEAD_FLOOR = 0.5


def _field() -> np.ndarray:
    return make_nyx_dataset(grid_size=GRID).fields["baryon_density"]


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


# --------------------------------------------------------------------------
# baseline: one foresight process per request
# --------------------------------------------------------------------------


def _baseline_config(out_dir: str) -> dict:
    return {
        "input": {
            "dataset": "nyx",
            "generator": {"grid_size": GRID},
            "fields": ["baryon_density"],
        },
        "compressors": [{
            "name": COMPRESSOR,
            "mode": "abs",
            "sweep": {"error_bound": [ERROR_BOUND]},
        }],
        "analyses": [],
        "output": {"directory": out_dir},
    }


def _run_baseline(requests: int) -> tuple[float, list[float]]:
    """Sequential per-request subprocesses; returns (seconds, latencies)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    latencies: list[float] = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "one-cell.json")
        t0 = time.perf_counter()
        for i in range(requests):
            out_dir = os.path.join(tmp, f"run-{i}")
            Path(cfg_path).write_text(json.dumps(_baseline_config(out_dir)))
            r0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "repro.foresight", cfg_path,
                 "--quiet", "--workers", "1"],
                capture_output=True,
                text=True,
                env=env,
                timeout=600,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"baseline request {i} failed:\n{proc.stderr}"
                )
            latencies.append(time.perf_counter() - r0)
        return time.perf_counter() - t0, latencies


# --------------------------------------------------------------------------
# daemon: 8 concurrent clients against one resident service
# --------------------------------------------------------------------------


def _run_daemon(
    requests: int, field: np.ndarray, expected_payload: bytes
) -> tuple[float, list[float], dict]:
    """Concurrent clients; returns (seconds, latencies, server stats)."""
    per_client, remainder = divmod(requests, CLIENTS)
    counts = [per_client + (1 if c < remainder else 0) for c in range(CLIENTS)]
    latencies: list[float] = []
    failures: list[str] = []
    lock = threading.Lock()

    with ServiceThread(max_pending=max(64, requests)) as st:
        def worker(cid: int) -> None:
            mine: list[float] = []
            with ServiceClient(port=st.port, seed=cid) as client:
                for i in range(counts[cid]):
                    r0 = time.perf_counter()
                    buf = client.compress(
                        field, COMPRESSOR, mode="abs", value=ERROR_BOUND
                    )
                    mine.append(time.perf_counter() - r0)
                    if buf.payload != expected_payload:
                        with lock:
                            failures.append(f"client {cid} request {i}")
            with lock:
                latencies.extend(mine)

        threads = [
            threading.Thread(target=worker, args=(c,)) for c in range(CLIENTS)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(600)
        elapsed = time.perf_counter() - t0
        with ServiceClient(port=st.port) as client:
            stats = client.stats()

    if failures:
        raise AssertionError(
            f"daemon replies diverged from the direct library call: {failures}"
        )
    return elapsed, latencies, stats


# --------------------------------------------------------------------------
# cluster: saturation sweep and kill-a-shard availability
# --------------------------------------------------------------------------


def _sat_fields() -> list[np.ndarray]:
    return [
        make_nyx_dataset(grid_size=SAT_GRID, seed=seed)
        .fields["baryon_density"]
        for seed in range(SAT_FIELDS)
    ]


def _run_cluster_load(
    port: int,
    clients: int,
    requests: int,
    fields: list[np.ndarray],
    on_request_done=None,
) -> tuple[float, list[float], list[str]]:
    """Closed-loop load: ``clients`` threads hammer the router at ``port``.

    Returns (wall seconds, per-request latencies, failure descriptions).
    """
    per_client, remainder = divmod(requests, clients)
    counts = [per_client + (1 if c < remainder else 0) for c in range(clients)]
    latencies: list[float] = []
    failures: list[str] = []
    lock = threading.Lock()

    def worker(cid: int) -> None:
        mine: list[float] = []
        with ServiceClient(port=port, seed=cid,
                           request_timeout_s=120.0) as client:
            for i in range(counts[cid]):
                field = fields[(cid + i * clients) % len(fields)]
                r0 = time.perf_counter()
                try:
                    buf = client.compress(
                        field, COMPRESSOR, mode="abs", value=ERROR_BOUND
                    )
                    if buf.compressed_nbytes <= 0:
                        raise RuntimeError("empty reply payload")
                except Exception as exc:  # noqa: BLE001 - count every loss
                    with lock:
                        failures.append(f"client {cid} request {i}: {exc}")
                else:
                    mine.append(time.perf_counter() - r0)
                if on_request_done is not None:
                    on_request_done()
        with lock:
            latencies.extend(mine)

    threads = [
        threading.Thread(target=worker, args=(c,)) for c in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(600)
    return time.perf_counter() - t0, latencies, failures


def _saturation(
    shard_counts: tuple[int, ...],
    loads: tuple[int, ...],
    requests: int,
) -> tuple[list[str], dict[int, float]]:
    """Offered-load sweep per fleet size; returns (report, peak rps)."""
    fields = _sat_fields()
    lines = [
        f"cluster saturation: {requests} {SAT_GRID}^3 f4 "
        f"{COMPRESSOR.upper()} requests per load level, "
        f"{SAT_FIELDS} distinct fields (consistent-hash spread)",
    ]
    peaks: dict[int, float] = {}
    for n_shards in shard_counts:
        with ClusterThread(spawn=n_shards,
                           shard_options={"max_pending": 256}) as cluster:
            # Warm every shard (codec paths, connection pool) so the
            # timed levels measure steady state, not first-touch costs.
            _, _, warm_failures = _run_cluster_load(
                cluster.port, 4, 2 * SAT_FIELDS, fields
            )
            if warm_failures:
                raise AssertionError(f"warmup failed: {warm_failures[:3]}")
            lines.append(f"{n_shards} shard(s):")
            for clients in loads:
                elapsed, lat, failures = _run_cluster_load(
                    cluster.port, clients, requests, fields
                )
                if failures:
                    raise AssertionError(
                        f"{len(failures)} request(s) lost at "
                        f"{clients} clients / {n_shards} shard(s): "
                        f"{failures[:3]}"
                    )
                rps = len(lat) / elapsed
                peaks[n_shards] = max(peaks.get(n_shards, 0.0), rps)
                lines.append(
                    f"  {clients:3d} clients  {elapsed:7.2f} s  "
                    f"{rps:8.2f} req/s  "
                    f"p50 {_percentile(lat, 50) * 1e3:7.1f} ms  "
                    f"p99 {_percentile(lat, 99) * 1e3:7.1f} ms"
                )
    return lines, peaks


def _availability(requests: int, clients: int = 4) -> list[str]:
    """Kill one of two spawned shards mid-run; count client-visible losses."""
    fields = _sat_fields()
    done = threading.Event()
    progress = {"n": 0}
    lock = threading.Lock()

    def tick() -> None:
        with lock:
            progress["n"] += 1
            if progress["n"] >= requests // 3:
                done.set()

    with ClusterThread(spawn=2, probe_interval_s=0.05, fail_after=2,
                       recover_after=1,
                       shard_options={"max_pending": 256}) as cluster:
        victim = cluster.router.shard_handles["s1"].proc

        killer_fired = threading.Event()

        def killer() -> None:
            done.wait(timeout=120)
            victim.kill()  # SIGKILL: no drain, orphaned forwards and all
            killer_fired.set()

        k = threading.Thread(target=killer)
        k.start()
        elapsed, lat, failures = _run_cluster_load(
            cluster.port, clients, requests, fields, on_request_done=tick
        )
        k.join(120)
        with ServiceClient(port=cluster.port) as client:
            serving = client.health()["serving"]

    assert killer_fired.is_set(), "the kill never happened"
    assert not failures, (
        f"{len(failures)} accepted request(s) lost after the shard kill: "
        f"{failures[:5]}"
    )
    return [
        f"cluster availability: {requests} requests over {clients} clients, "
        f"shard s1 SIGKILLed after ~{requests // 3} completions",
        f"  {elapsed:7.2f} s  {len(lat) / elapsed:8.2f} req/s  "
        f"p99 {_percentile(lat, 99) * 1e3:7.1f} ms",
        f"  losses: 0 of {requests}; serving after kill: {serving}",
    ]


# --------------------------------------------------------------------------
# data plane: {inline, shm} x {blocking, pipelined} transport matrix
# --------------------------------------------------------------------------

DATAPLANE_TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_dataplane.json"
#: shm+pipelined vs inline+blocking round-trip throughput on >= 8 MiB.
DATAPLANE_FLOOR = 2.0
DATAPLANE_FLOOR_MIB = 8
DATAPLANE_SIZES_MIB = (1, 8, 16)
DATAPLANE_QUICK_SIZES_MIB = (0.25, 1)
#: Outstanding requests in the pipelined configurations.  Two per
#: connection keeps the wire busy while the previous reply is consumed;
#: deeper pipelines only add memory pressure on a CPU-bound host.
IN_FLIGHT = 2
#: Timed passes per configuration; the fastest is reported.  Thread
#: scheduling on a loaded single-core host is bimodal enough that a
#: single pass can read 2x slow — best-of-N measures the transport,
#: not the scheduler's mood.
TRIALS = 3


def _append_dataplane(entry: dict) -> None:
    import datetime

    history = []
    if DATAPLANE_TRAJECTORY.exists():
        try:
            history = json.loads(DATAPLANE_TRAJECTORY.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=DATAPLANE_TRAJECTORY.parent,
            capture_output=True, text=True, timeout=10,
        )
        commit = out.stdout.strip() or None if out.returncode == 0 else None
    except OSError:
        commit = None
    history.append({
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        **entry,
    })
    DATAPLANE_TRAJECTORY.write_text(
        json.dumps(history, indent=2, sort_keys=True) + "\n"
    )


def _dataplane_reps(nbytes: int, quick: bool) -> int:
    """Enough reps to move ~128 MiB (quick: ~16 MiB) per configuration."""
    budget = (16 if quick else 128) << 20
    return max(4, min(32, budget // max(1, nbytes)))


def _time_blocking(port: int, shm: bool, data: np.ndarray,
                   expected: bytes, reps: int) -> float:
    with ServiceClient(port=port, shm=shm) as client:
        for _ in range(2):  # warm: connection, caps, segment pool pages
            client.compress(data, "store", mode="abs", value=0.0)
        elapsed = math.inf
        for _ in range(TRIALS):
            t0 = time.perf_counter()
            for _ in range(reps):
                buf = client.compress(data, "store", mode="abs", value=0.0)
            elapsed = min(elapsed, time.perf_counter() - t0)
        if buf.payload != expected:
            raise AssertionError(
                f"store round trip diverged (shm={shm}, blocking)"
            )
    return elapsed


def _time_pipelined(port: int, shm: bool, data: np.ndarray,
                    expected: bytes, reps: int) -> float:
    from collections import deque

    with PooledClient(port=port, connections=2, shm=shm) as client:
        # Warm with a full pipeline's worth of overlapping calls so every
        # pooled shm segment the steady state needs is created and its
        # pages faulted in before the clock starts.
        warm = [
            client.compress_async(data, "store", mode="abs", value=0.0)
            for _ in range(IN_FLIGHT + 1)
        ]
        for fut in warm:
            fut.result(timeout=300)
        elapsed = math.inf
        for _ in range(TRIALS):
            pending: deque = deque()
            buf = None
            t0 = time.perf_counter()
            for _ in range(reps):
                pending.append(
                    client.compress_async(data, "store", mode="abs", value=0.0)
                )
                if len(pending) >= IN_FLIGHT:
                    buf = pending.popleft().result(timeout=300)
            while pending:
                buf = pending.popleft().result(timeout=300)
            elapsed = min(elapsed, time.perf_counter() - t0)
        if buf.payload != expected:
            raise AssertionError(
                f"store round trip diverged (shm={shm}, pipelined)"
            )
    return elapsed


def _run_dataplane(quick: bool = False) -> tuple[list[str], dict]:
    """The transport matrix; returns (report lines, trajectory entry)."""
    sizes = DATAPLANE_QUICK_SIZES_MIB if quick else DATAPLANE_SIZES_MIB
    rng = np.random.default_rng(7)
    configs = (
        ("inline_blocking", False, _time_blocking),
        ("shm_blocking", True, _time_blocking),
        ("inline_pipelined", False, _time_pipelined),
        ("shm_pipelined", True, _time_pipelined),
    )
    lines = [
        "service data plane: STORE round trips (payload out + equal-sized "
        "reply back), same host",
        f"configs: inline vs shm transport, 1 vs {IN_FLIGHT} in-flight "
        f"({'quick' if quick else 'full'} run)",
    ]
    sweep: dict[str, dict] = {}
    with ServiceThread(max_pending=256) as st:
        for mib in sizes:
            nbytes = int(mib * (1 << 20))
            data = rng.standard_normal(
                nbytes // 4, dtype=np.float32
            ).reshape(-1)
            expected = data.tobytes()
            reps = _dataplane_reps(data.nbytes, quick)
            row: dict[str, float] = {}
            for name, shm, timer in configs:
                elapsed = timer(st.port, shm, data, expected, reps)
                row[name] = reps * data.nbytes / elapsed / (1 << 20)
            ratio = row["shm_pipelined"] / row["inline_blocking"]
            sweep[f"{mib}MiB"] = {
                "payload_bytes": data.nbytes,
                "reps": reps,
                "mibps": {k: round(v, 1) for k, v in row.items()},
                "speedup_shm_pipelined_vs_inline_blocking": round(ratio, 2),
            }
            lines.append(
                f"  {mib:>5} MiB x{reps:<3d} "
                + "  ".join(
                    f"{name} {row[name]:7.1f} MiB/s" for name, _, _ in configs
                )
                + f"  -> {ratio:.2f}x"
            )
    entry = {
        "source": "bench_service",
        "mode": "data_plane",
        "quick": quick,
        "in_flight": IN_FLIGHT,
        "floor": DATAPLANE_FLOOR,
        "sweep": sweep,
    }
    _append_dataplane(entry)
    return lines, entry


def test_data_plane():
    lines, entry = _run_dataplane(quick=False)
    write_result("service_dataplane", "\n".join(lines))
    floors = {
        size: cell["speedup_shm_pipelined_vs_inline_blocking"]
        for size, cell in entry["sweep"].items()
        if cell["payload_bytes"] >= DATAPLANE_FLOOR_MIB << 20
    }
    assert floors, "sweep never reached the >= 8 MiB acceptance sizes"
    assert all(v >= DATAPLANE_FLOOR for v in floors.values()), (
        f"zero-copy data plane below the {DATAPLANE_FLOOR:.0f}x floor: "
        f"{floors}"
    )


# --------------------------------------------------------------------------
# the benchmark
# --------------------------------------------------------------------------


def _report(requests: int) -> tuple[list[str], float]:
    field = _field()
    expected = get_compressor(COMPRESSOR).compress(
        field, mode="abs", error_bound=ERROR_BOUND
    ).payload

    base_s, base_lat = _run_baseline(requests)
    daemon_s, daemon_lat, stats = _run_daemon(requests, field, expected)

    base_rps = requests / base_s
    daemon_rps = requests / daemon_s
    speedup = daemon_rps / base_rps
    lines = [
        f"compression service: {requests} small-field ({GRID}^3 f4) "
        f"{COMPRESSOR.upper()} requests",
        f"baseline (one `python -m repro.foresight` process per request, "
        f"sequential):",
        f"  {base_s:8.2f} s  {base_rps:8.2f} req/s  "
        f"p50 {_percentile(base_lat, 50) * 1e3:7.1f} ms  "
        f"p99 {_percentile(base_lat, 99) * 1e3:7.1f} ms",
        f"daemon ({CLIENTS} concurrent clients, batched dispatch):",
        f"  {daemon_s:8.2f} s  {daemon_rps:8.2f} req/s  "
        f"p50 {_percentile(daemon_lat, 50) * 1e3:7.1f} ms  "
        f"p99 {_percentile(daemon_lat, 99) * 1e3:7.1f} ms",
        f"server-side p99: "
        f"{stats.get('latency', {}).get('p99_ms', float('nan')):.1f} ms; "
        f"every reply byte-identical to the direct library call",
        f"speedup: {speedup:.1f}x (acceptance floor: {SPEEDUP_FLOOR:.0f}x)",
    ]
    return lines, speedup


def test_service_throughput():
    lines, speedup = _report(requests=64)
    write_result("service", "\n".join(lines))
    assert speedup >= SPEEDUP_FLOOR, (
        f"daemon only {speedup:.2f}x the per-process baseline"
    )


def test_cluster_saturation():
    lines, peaks = _saturation(
        shard_counts=(1, 2), loads=(4, 12), requests=96
    )
    gain = peaks[2] / peaks[1]
    if MULTI_CORE:
        lines.append(
            f"2-shard peak / 1-shard peak: {gain:.2f}x "
            f"(floor: {CLUSTER_FLOOR:.2f}x)"
        )
    else:
        lines.append(
            f"2-shard peak / 1-shard peak: {gain:.2f}x "
            f"(single-core host: scaling acceptance waived, "
            f"overhead floor {OVERHEAD_FLOOR:.2f}x applies)"
        )
    write_result("service_cluster", "\n".join(lines))
    if MULTI_CORE:
        assert gain >= CLUSTER_FLOOR, (
            f"2 shards only {gain:.2f}x of 1 shard at saturation"
        )
    else:
        assert gain >= OVERHEAD_FLOOR, (
            f"routing fabric overhead out of bounds: {gain:.2f}x"
        )


def test_cluster_availability():
    lines = _availability(requests=96)
    write_result("service_availability", "\n".join(lines))


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

try:  # pytest collection (conftest lives beside this file)
    from conftest import write_result
except ImportError:  # standalone --quick
    def write_result(experiment_id: str, text: str) -> None:
        results = Path(__file__).parent / "results"
        results.mkdir(exist_ok=True)
        (results / f"{experiment_id}.txt").write_text(text + "\n")


def _quick() -> None:
    """CI smoke: 8 requests, same floor (start-up costs dominate)."""
    lines, speedup = _report(requests=8)
    print("\n".join(lines))
    assert speedup >= SPEEDUP_FLOOR, (
        f"daemon only {speedup:.2f}x the per-process baseline"
    )


def _quick_cluster(shards: int) -> None:
    """CI smoke for the fleet: small saturation sweep + kill-a-shard."""
    lines, peaks = _saturation(
        shard_counts=(1, shards), loads=(8,), requests=48
    )
    gain = peaks[shards] / peaks[1]
    lines.append(
        f"{shards}-shard peak / 1-shard peak: {gain:.2f}x"
        + ("" if MULTI_CORE else " (single-core host)")
    )
    print("\n".join(lines))
    floor = 1.0 if MULTI_CORE else OVERHEAD_FLOOR
    assert gain > floor, (
        f"{shards}-shard fleet at {gain:.2f}x of 1 shard "
        f"(floor {floor:.2f}x)"
    )
    print("\n".join(_availability(requests=48)))


def main(argv: list[str]) -> None:
    usage = (
        "usage: bench_service.py --quick [--shards N] | "
        "--data-plane [--quick]"
    )
    if "--data-plane" in argv:
        rest = [a for a in argv if a != "--data-plane"]
        quick = rest == ["--quick"]
        if rest and not quick:
            raise SystemExit(usage)
        lines, entry = _run_dataplane(quick=quick)
        print("\n".join(lines))
        if not quick:
            floors = {
                size: cell["speedup_shm_pipelined_vs_inline_blocking"]
                for size, cell in entry["sweep"].items()
                if cell["payload_bytes"] >= DATAPLANE_FLOOR_MIB << 20
            }
            assert floors and all(
                v >= DATAPLANE_FLOOR for v in floors.values()
            ), (
                f"zero-copy data plane below the {DATAPLANE_FLOOR:.0f}x "
                f"floor: {floors}"
            )
    elif argv and argv[0] == "--quick":
        rest = argv[1:]
        if rest[:1] == ["--shards"] and len(rest) == 2:
            _quick_cluster(int(rest[1]))
        elif not rest:
            _quick()
        else:
            raise SystemExit(usage)
    else:
        raise SystemExit(usage)


if __name__ == "__main__":
    main(sys.argv[1:])
