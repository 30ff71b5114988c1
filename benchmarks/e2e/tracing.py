"""Bench-side spans around every call into a layer, and the budget.

Nothing under ``src/`` changes for the benchmark: in a traced slice the
public functions of each layer are wrapped from here (module and class
attributes are swapped, then restored), every request runs under one
root span, and spans are kept in memory until the run ends.  A layer's
self time is its span minus the part its children cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable

# span tuple layout
ID, PARENT, REQUEST, NAME, START, END = range(6)


class SpanRecorder:
    """In-memory span store; one stack per thread gives parents."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic under the GIL

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, name: str, request: str | None = None):
        stack = self._stack()
        sid = next(self._ids)
        parent, req = (stack[-1] if stack else (None, request))
        if request is not None:
            req = request
        stack.append((sid, req))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, req, name, start, end))

    def wrap(self, name: str | Callable[..., str], fn: Callable) -> Callable:
        """``fn`` recorded as a span; ``name`` may be computed from args."""
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            with self.span(label):
                return fn(*args, **kwargs)
        return traced

    def to_json(self) -> list[dict]:
        return [
            {"id": s[ID], "parent": s[PARENT], "request": s[REQUEST],
             "name": s[NAME], "start": s[START], "end": s[END]}
            for s in self.spans
        ]


def _targets() -> list[tuple[Any, str, str | Callable[..., str]]]:
    """(owner, attribute, span name) for every wrapped layer entry point."""
    from repro import kernels
    from repro.compressors.sz import SZCompressor
    from repro.compressors.temporal import TemporalCompressor
    from repro.compressors.zfp import ZFPCompressor
    from repro.lossless.huffman import HuffmanCodec
    from repro.parallel.shm import SegmentPool, SharedArray
    from repro.service import protocol

    return [
        # every dispatch path (kernels.call, module-level aliases of it)
        # ends in the process registry's bound method
        (kernels.REGISTRY, "call", lambda kernel, *a, **k: f"kernels.{kernel}"),
        (SZCompressor, "compress", "compressors.sz.compress"),
        (SZCompressor, "decompress", "compressors.sz.decompress"),
        (ZFPCompressor, "compress", "compressors.zfp.compress"),
        (ZFPCompressor, "decompress", "compressors.zfp.decompress"),
        (TemporalCompressor, "compress", "compressors.temporal.step"),
        (HuffmanCodec, "encode", "lossless.huffman.encode"),
        (HuffmanCodec, "decode", "lossless.huffman.decode"),
        (protocol, "write_frame_sock", "service.protocol.write_frame"),
        (protocol, "read_frame_sock", "wait.read_frame"),
        (protocol, "encode_header", "service.protocol.encode_header"),
        (protocol, "decode_header", "service.protocol.decode_header"),
        (protocol, "pack_array", "service.protocol.pack_array"),
        (protocol, "unpack_array", "service.protocol.unpack_array"),
        (SegmentPool, "acquire", "parallel.shm.acquire"),
        (SegmentPool, "release", "parallel.shm.release"),
        (SharedArray, "create", "parallel.shm.create"),
    ]


@contextmanager
def layers_traced(recorder: SpanRecorder):
    """Wrap every layer entry point for the block, then restore them."""
    saved = []
    try:
        for owner, attr, name in _targets():
            raw = vars(owner).get(attr)  # None: the registry's bound method
            saved.append((owner, attr, raw))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(recorder.wrap(name, raw.__func__))
            else:
                wrapped = recorder.wrap(name, getattr(owner, attr))
            setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, raw in saved:
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


# -- budget --------------------------------------------------------------------

#: Span-name prefix -> budget row.  Root spans are named ``client.<class>``.
_ROWS = (
    ("kernels.", None),  # one row per kernel, keeps its own name
    ("lossless.", "lossless"),
    ("compressors.", "compressors"),
    ("service.protocol.", "service.protocol"),
    ("parallel.shm.", "parallel.shm"),
    ("wait.", "wait"),
    ("client.", "service.client"),
)


def _row_of(name: str) -> str:
    for prefix, row in _ROWS:
        if name.startswith(prefix):
            return row or name
    return name


def self_time_rows(spans: list[tuple], op_class: str) -> tuple[dict, int]:
    """Mean per-request self time by budget row, for one op class.

    Means, because a class mixes codecs and sizes and only means add up.

    Only spans below a ``client.<op_class>`` root count; spans recorded
    on other threads (the pooled client's reader) have no such ancestor.
    Returns ({row: seconds}, number of requests).
    """
    by_id = {s[ID]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) \
                + (s[END] - s[START])
    root_of: dict[int, int | None] = {}

    def root(sid: int) -> int | None:
        if sid not in root_of:
            s = by_id[sid]
            root_of[sid] = (
                (sid if s[NAME] == f"client.{op_class}" else None)
                if s[PARENT] is None else root(s[PARENT])
            )
        return root_of[sid]

    per_request: dict[int, dict[str, float]] = {}
    for s in spans:
        r = root(s[ID])
        if r is None:
            continue
        row = _row_of(s[NAME])
        self_s = (s[END] - s[START]) - child_time.get(s[ID], 0.0)
        rows = per_request.setdefault(r, {})
        rows[row] = rows.get(row, 0.0) + self_s
    totals: dict[str, float] = {}
    for rows in per_request.values():
        for row, seconds in rows.items():
            totals[row] = totals.get(row, 0.0) + seconds
    n = len(per_request)
    return {row: totals[row] / n for row in sorted(totals)}, n
