"""``repro-top``: a live terminal dashboard for the compression daemon.

``python -m repro.telemetry top`` polls a running daemon's STATS op and
redraws a one-screen summary on an interval — the ``top(1)`` view of a
compression service: request rate, queue depth, in-flight count,
loop/pool dispatches, latency percentiles, cache hit rate, and the hottest pipeline
stages by self-time (from the daemon's span harvest, see
``CompressionService._harvest_spans``).

Rendering is ANSI, not curses: a frame is one plain string and the
screen refresh is ``ESC[2J ESC[H`` + frame.  That keeps
:func:`render_frame` a pure function of two STATS snapshots — trivially
testable, and ``--once`` prints a single frame for scripts and CI.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro.telemetry.exposition import parse_metric_key

__all__ = ["render_frame", "run_top"]

#: ANSI "clear screen, cursor home" prefix used between live frames.
CLEAR = "\x1b[2J\x1b[H"

#: How many rows the stage table shows.
TOP_STAGES = 12


def _fmt_rate(value: float) -> str:
    return f"{value:8.1f}"


def _fmt_ms(value: Any) -> str:
    return f"{float(value):7.2f}" if value is not None else "      –"


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024 or unit == "TiB":
            return f"{n:7.1f} {unit}"
        n /= 1024
    return f"{n:.1f} TiB"


def _counter(metrics: Mapping[str, Any], name: str) -> float:
    snap = metrics.get(name)
    return float(snap.get("value", 0.0)) if isinstance(snap, dict) else 0.0


def _stage_rows(metrics: Mapping[str, Any]) -> list[tuple[str, float, float, float]]:
    """(stage, self_s, total_s, count) rows sorted by self-time, hottest first."""
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    count: dict[str, float] = {}
    for key, snap in metrics.items():
        if not isinstance(snap, dict) or snap.get("type") != "counter":
            continue
        base, labels = parse_metric_key(key)
        stage = labels.get("name")
        if stage is None:
            continue
        if base == "spans_self_seconds":
            self_s[stage] = float(snap["value"])
        elif base == "spans_seconds":
            total_s[stage] = float(snap["value"])
        elif base == "spans_count":
            count[stage] = float(snap["value"])
    rows = [
        (stage, s, total_s.get(stage, s), count.get(stage, 0.0))
        for stage, s in self_s.items()
    ]
    rows.sort(key=lambda r: r[1], reverse=True)
    return rows


def render_frame(
    stats: Mapping[str, Any],
    prev: Mapping[str, Any] | None = None,
    dt: float | None = None,
    endpoint: str = "",
) -> str:
    """One dashboard frame from a STATS reply (rates need ``prev`` + ``dt``)."""
    metrics = stats.get("metrics") or {}
    latency = stats.get("latency") or {}
    lines: list[str] = []

    uptime = float(stats.get("uptime_s", 0.0))
    lines.append(
        f"repro service {endpoint}  up {uptime:8.1f}s"
        f"  requests {int(stats.get('requests_total', 0)):>8d}"
    )

    qps = busy_rate = None
    if prev is not None and dt and dt > 0:
        qps = (
            float(stats.get("requests_total", 0))
            - float(prev.get("requests_total", 0))
        ) / dt
        prev_metrics = prev.get("metrics") or {}
        busy_rate = (
            _counter(metrics, "service.rejected_busy")
            - _counter(prev_metrics, "service.rejected_busy")
        ) / dt
    lines.append(
        "qps "
        + (_fmt_rate(qps) if qps is not None else "       –")
        + f"   inflight {int(stats.get('requests_inflight', 0)):>4d}"
        + f"   queue {int(stats.get('queue_depth', 0)):>4d}"
        + "   busy/s "
        + (_fmt_rate(busy_rate) if busy_rate is not None else "       –")
    )

    loop = _counter(metrics, 'service.dispatches{path="loop"}')
    pool = _counter(metrics, 'service.dispatches{path="pool"}')
    if loop or pool:
        lines.append(f"dispatches  loop {int(loop):>6d}   pool {int(pool):>6d}")

    lines.append(
        "latency ms  p50 " + _fmt_ms(latency.get("p50_ms"))
        + "   p99 " + _fmt_ms(latency.get("p99_ms"))
        + "   mean " + _fmt_ms(latency.get("mean_ms"))
        + f"   (n={int(latency.get('window_n', 0))})"
    )

    bytes_in = _counter(metrics, "service.bytes_in")
    bytes_out = _counter(metrics, "service.bytes_out")
    lines.append(
        "bytes in " + _fmt_bytes(bytes_in) + "   out " + _fmt_bytes(bytes_out)
    )

    cache = stats.get("cache")
    if isinstance(cache, dict):
        hits = float(cache.get("hits", 0))
        misses = float(cache.get("misses", 0))
        total = hits + misses
        rate = (hits / total * 100.0) if total else 0.0
        lines.append(
            f"cache hits {int(hits):>6d} / {int(total):>6d}  ({rate:5.1f}%)"
        )

    sessions = stats.get("sessions")
    if isinstance(sessions, dict) and (
        sessions.get("open") or sessions.get("evictions")
        or _counter(metrics, "service.session_steps")
    ):
        lines.append(
            f"sessions {int(sessions.get('open', 0)):>4d}"
            f" /{int(sessions.get('max', 0)):>4d} open"
            f"   steps {int(_counter(metrics, 'service.session_steps')):>7d}"
            f"   evicted {int(sessions.get('evictions', 0)):>5d}"
            + "   in " + _fmt_bytes(
                _counter(metrics, "service.session_bytes_in"))
            + "   out " + _fmt_bytes(
                _counter(metrics, "service.session_bytes_out"))
        )

    stages = _stage_rows(metrics)
    if stages:
        lines.append("")
        lines.append(
            f"{'stage':<28} {'self s':>9} {'total s':>9} {'count':>8}"
        )
        for stage, self_s, total_s, n in stages[:TOP_STAGES]:
            lines.append(
                f"{stage[:28]:<28} {self_s:9.3f} {total_s:9.3f} {int(n):8d}"
            )
    return "\n".join(lines) + "\n"


def run_top(
    host: str = "127.0.0.1",
    port: int | None = None,
    interval_s: float = 1.0,
    once: bool = False,
    iterations: int | None = None,
) -> int:
    """Poll STATS and redraw until interrupted (or ``once``/``iterations``)."""
    from repro.service.client import DEFAULT_PORT, ServiceClient

    port = DEFAULT_PORT if port is None else port
    endpoint = f"{host}:{port}"
    prev: dict[str, Any] | None = None
    prev_t = 0.0
    drawn = 0
    try:
        with ServiceClient(host=host, port=port) as client:
            while True:
                stats = client.stats()
                now = time.monotonic()
                frame = render_frame(
                    stats,
                    prev,
                    (now - prev_t) if prev is not None else None,
                    endpoint=endpoint,
                )
                if once:
                    print(frame, end="")
                    return 0
                print(CLEAR + frame, end="", flush=True)
                drawn += 1
                if iterations is not None and drawn >= iterations:
                    return 0
                prev, prev_t = stats, now
                time.sleep(interval_s)
    except KeyboardInterrupt:
        print()
        return 0
