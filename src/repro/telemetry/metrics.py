"""Metrics: counters, gauges, and fixed-bucket histograms.

The registry is the numeric side of the telemetry subsystem — the
quantities the paper's analysis reads off a run besides stage times:
bytes in/out, quantization outlier counts, Huffman alphabet/table sizes,
ZFP bit-plane truncation statistics.

All instruments are thread-safe (single lock per instrument; the hot
update path is one lock + one add).  Histograms use *fixed* upper-bound
buckets fixed at creation time: ``observe(v)`` lands in the first bucket
with ``v <= bound``, or in the implicit ``+Inf`` overflow bucket.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_BIT_BUCKETS",
]

#: Power-of-4 byte buckets: 64 B .. 1 GiB (payload/outlier-section sizes).
DEFAULT_BYTE_BUCKETS: tuple[float, ...] = tuple(float(4**k) * 64 for k in range(13))

#: Power-of-2 bit buckets: 1 .. 65536 (per-block bit budgets, table sizes).
DEFAULT_BIT_BUCKETS: tuple[float, ...] = tuple(float(2**k) for k in range(17))


class Counter:
    """Monotonically increasing sum."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with cumulative-free per-bucket counts.

    ``bounds`` are inclusive upper edges in increasing order; observations
    above the last bound count in the overflow bucket.  ``sum``/``count``
    let a reader recover the mean without the raw stream.
    """

    __slots__ = ("name", "bounds", "_lock", "_counts", "_sum", "_count")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges or any(nxt <= prev for nxt, prev in zip(edges[1:], edges)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds = edges
        self._lock = threading.Lock()
        self._counts = np.zeros(len(edges) + 1, dtype=np.int64)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        # bisect on the tuple is np.searchsorted(side="left") without the
        # per-call tuple -> array conversion; NaN sorts last there too.
        idx = (
            bisect_left(self.bounds, value) if value == value
            else len(self.bounds)
        )
        with self._lock:
            self._counts[idx] += 1
            self._sum += float(value)
            self._count += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Vectorized :meth:`observe` (one lock acquisition total)."""
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                         dtype=np.float64)
        if arr.size == 0:
            return
        idx = np.searchsorted(self.bounds, arr, side="left")
        add = np.bincount(idx, minlength=len(self.bounds) + 1)
        with self._lock:
            self._counts += add
            self._sum += float(arr.sum())
            self._count += int(arr.size)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> list[int]:
        """Per-bucket counts; the final entry is the overflow bucket."""
        with self._lock:
            return [int(c) for c in self._counts]

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "type": "histogram",
                "bounds": list(self.bounds),
                "counts": [int(c) for c in self._counts],
                "sum": self._sum,
                "count": self._count,
            }


class MetricsRegistry:
    """Name-keyed instrument store with get-or-create semantics.

    The convenience one-liners (:meth:`count`, :meth:`observe`,
    :meth:`set_gauge`) are what the instrumented hot paths call; they cost
    one dict lookup when telemetry is enabled and nothing when the active
    telemetry is the null implementation (which overrides them).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, factory) -> Any:
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = factory()
            return inst

    def counter(self, name: str) -> Counter:
        inst = self._get_or_create(name, lambda: Counter(name))
        if not isinstance(inst, Counter):
            raise TypeError(f"metric {name!r} already registered as {type(inst).__name__}")
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._get_or_create(name, lambda: Gauge(name))
        if not isinstance(inst, Gauge):
            raise TypeError(f"metric {name!r} already registered as {type(inst).__name__}")
        return inst

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BIT_BUCKETS) -> Histogram:
        inst = self._get_or_create(name, lambda: Histogram(name, bounds))
        if not isinstance(inst, Histogram):
            raise TypeError(f"metric {name!r} already registered as {type(inst).__name__}")
        return inst

    # -- one-liner update paths (overridden to no-ops by NullTelemetry) ----

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = DEFAULT_BIT_BUCKETS) -> None:
        self.histogram(name, bounds).observe(value)

    def observe_many(self, name: str, values: Iterable[float],
                     bounds: Sequence[float] = DEFAULT_BIT_BUCKETS) -> None:
        self.histogram(name, bounds).observe_many(values)

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All instruments as plain JSON-ready dicts."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: inst.snapshot() for name, inst in sorted(instruments.items())}

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()
