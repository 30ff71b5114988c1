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
    "Bound",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_BIT_BUCKETS",
    "DEFAULT_MS_BUCKETS",
]

#: Power-of-4 byte buckets: 64 B .. 1 GiB (payload/outlier-section sizes).
DEFAULT_BYTE_BUCKETS: tuple[float, ...] = tuple(float(4**k) * 64 for k in range(13))

#: Power-of-2 bit buckets: 1 .. 65536 (per-block bit budgets, table sizes).
DEFAULT_BIT_BUCKETS: tuple[float, ...] = tuple(float(2**k) for k in range(17))

#: Millisecond buckets, 50 µs .. 5 s: request latencies and dispatch
#: times; a small request is served in well under a millisecond.
DEFAULT_MS_BUCKETS: tuple[float, ...] = (
    0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000,
)


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

    __slots__ = ("name", "bounds", "_edges", "_lock", "_counts", "_sum", "_count")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges or any(nxt <= prev for nxt, prev in zip(edges[1:], edges)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds = edges
        self._edges = np.array(edges)
        self._lock = threading.Lock()
        self._counts = [0] * (len(edges) + 1)
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
        idx = np.searchsorted(self._edges, arr, side="left")
        add = np.bincount(idx, minlength=len(self._counts)).tolist()
        total = float(arr.sum())
        with self._lock:
            self._counts = [c + a for c, a in zip(self._counts, add)]
            self._sum += total
            self._count += arr.size

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
            return list(self._counts)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "type": "histogram",
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


class MetricsRegistry:
    """Name-keyed instrument store with get-or-create semantics.

    The convenience one-liners (:meth:`count`, :meth:`observe`,
    :meth:`set_gauge`) are what the instrumented hot paths call.  An
    instrument is created once per name, under the registry lock; every
    later update finds it with one lock-free dict lookup, so the hot path
    takes only the instrument's own lock.  The null telemetry overrides
    the one-liners with no-ops.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        #: Bumped by :meth:`clear`; a :class:`Bound` binding older than
        #: that rebinds.
        self.generation = 0

    def _get_or_create(self, name: str, kind: type, *args: Any) -> Any:
        inst = self._instruments.get(name)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(name)
                if inst is None:
                    inst = self._instruments[name] = kind(name, *args)
        if not isinstance(inst, kind):
            raise TypeError(f"metric {name!r} already registered as {type(inst).__name__}")
        return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BIT_BUCKETS) -> Histogram:
        return self._get_or_create(name, Histogram, bounds)

    # -- one-liner update paths (overridden to no-ops by NullTelemetry) ----

    def count(self, name: str, amount: float = 1.0) -> None:
        inst = self._instruments.get(name)
        if inst.__class__ is not Counter:
            inst = self.counter(name)
        inst.inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        inst = self._instruments.get(name)
        if inst.__class__ is not Gauge:
            inst = self.gauge(name)
        inst.set(value)

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = DEFAULT_BIT_BUCKETS) -> None:
        inst = self._instruments.get(name)
        if inst.__class__ is not Histogram:
            inst = self.histogram(name, bounds)
        inst.observe(value)

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
            self.generation += 1


class Bound:
    """What ``make(registry, key)`` builds — an instrument or a tuple of
    them — bound once per key on one registry, and rebound when a
    different registry is live or this one was cleared.  A hot path
    keyed by a label pays one lookup, not a name format and a registry
    lookup per update.

    >>> hits = Bound(lambda m, op: m.counter(f"hits.{op}"))
    >>> registry = MetricsRegistry()
    >>> hits(registry, "get").inc()
    >>> hits(registry, "get") is registry.counter("hits.get")
    True
    """

    __slots__ = ("_make", "_state")

    def __init__(self, make: Any) -> None:
        self._make = make
        #: ``(registry, its generation, {key: binding})``, swapped whole.
        self._state: tuple[Any, int, dict] = (None, -1, {})

    def __call__(self, registry: MetricsRegistry, key: Any = None) -> Any:
        bound_to, generation, bound = self._state
        if bound_to is not registry or generation != registry.generation:
            bound = {}
            self._state = (registry, registry.generation, bound)
        inst = bound.get(key)
        if inst is None:
            inst = bound[key] = self._make(registry, key)
        return inst
