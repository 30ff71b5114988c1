"""Per-layer probes of the traced run: each times calls into one layer's
public functions, from outside, on the workload's own inputs."""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

import inputs as inp
from catalog import OP_POINT_KEYS
from repro import kernels
from repro.parallel.shm import SegmentPool, SharedArray
from repro.service import protocol
from stats import median, percentile
from workloads import (
    CELL, CLASS, NBYTES, OK, T0, T1, CodecCaller, Library, WorkloadRun,
)

MIB = float(1 << 20)


def _timed(fn: Callable[[], Any]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _p50(fn: Callable[[], Any], budget_s: float, min_reps: int = 5,
         max_reps: int = 200) -> float:
    """Median seconds of ``fn`` over as many calls as ``budget_s`` allows."""
    times = [_timed(fn)]
    reps = int(min(max_reps, max(min_reps, budget_s / max(times[0], 1e-7))))
    times += [_timed(fn) for _ in range(reps - 1)]
    return median(times)


# -- kernels -----------------------------------------------------------------------


@contextmanager
def capture_kernel_args(store: dict[str, tuple]):
    """Keep (a copy of) the first call's arguments of each kernel."""
    original = kernels.REGISTRY.call

    def capturing(kernel: str, *args: Any, **kwargs: Any):
        if kernel not in store:
            store[kernel] = (
                tuple(a.copy() if isinstance(a, np.ndarray) else a
                      for a in args),
                dict(kwargs),
            )
        return original(kernel, *args, **kwargs)

    # an instance attribute shadows the bound method every dispatch path
    # (kernels.call and module-level aliases of it) ends in
    kernels.REGISTRY.call = capturing
    try:
        yield
    finally:
        del kernels.REGISTRY.call


def kernel_rates(captured: dict[str, tuple], budget_s: float) -> dict[str, float]:
    """``kernels.<k>.mbps`` for every captured kernel (+ native_count)."""
    captured = dict(captured)
    if "huffman.encode" in captured and "pack.varlen" not in captured:
        # The native Huffman encoder packs bits itself; give the packing
        # kernel the same per-symbol codes it would have been handed.
        (symbols, codes, lengths, _), _ = captured["huffman.encode"]
        captured["pack.varlen"] = ((
            np.ascontiguousarray(codes[symbols], dtype=np.uint64),
            lengths[symbols].astype(np.int64),
        ), {})
    out = {}
    for name, (args, kwargs) in captured.items():
        nbytes = sum(
            a.nbytes if isinstance(a, np.ndarray) else len(a)
            for a in args if isinstance(a, (np.ndarray, bytes))
        )
        seconds = _p50(lambda: kernels.call(name, *args, **kwargs),
                       budget_s / max(1, len(captured)), min_reps=3)
        out[f"kernels.{name}.mbps"] = nbytes / 1e6 / seconds
    out["kernels.native_count"] = float(
        sum(tier == "native" for tier in kernels.active().values())
    )
    return out


# -- compressors -----------------------------------------------------------------------


def library_latencies(run: WorkloadRun, budget_s: float) -> list[tuple]:
    """Records of whole passes over the workload's cells, in process."""
    caller = CodecCaller(run, list(range(len(run.inputs.cells))), Library())
    deadline = time.perf_counter() + budget_s
    while True:
        for _ in run.inputs.cells:
            caller.step()
        if time.perf_counter() >= deadline or run.stop.is_set():
            return caller.records


def compressor_metrics(records: list[tuple]) -> dict[str, float]:
    """``compressors.<point>.<direction>_ms`` per MiB from library records."""
    out = {}
    for key in OP_POINT_KEYS:
        for direction in ("compress", "decompress"):
            samples = [
                (r[T1] - r[T0]) * 1e3 / (r[NBYTES] / MIB) for r in records
                if r[OK] and r[CLASS] == direction
                and r[CELL].endswith("@" + key)
            ]
            if samples:
                out[f"compressors.{key}.{direction}_ms"] = median(samples)
    return out


# -- protocol and shm -------------------------------------------------------------------


def framing_us(run: WorkloadRun, budget_s: float) -> float:
    """encode_frame + decode_frame + pack_array + unpack_array, p50 us."""
    cells = run.inputs.cells

    def one(cell: inp.Cell) -> None:
        header = {"op": "compress", "compressor": cell.op.compressor,
                  "mode": cell.op.mode, "value": cell.value, "options": {},
                  "id": 1, **protocol.array_fields(cell.data)}
        frame = protocol.encode_frame(header, protocol.pack_array(cell.data))
        head, payload = protocol.decode_frame(frame)
        protocol.unpack_array(head, payload)

    per_cell = [
        _p50(lambda c=c: one(c), budget_s / len(cells), min_reps=3)
        for c in cells[:: max(1, len(cells) // 6)]
    ]
    return median(per_cell) * 1e6


def shm_metrics(data: np.ndarray, budget_s: float) -> dict[str, float]:
    """Pool cycle and attach cost at ``data``'s size."""
    arr = np.ascontiguousarray(data)
    with SegmentPool() as pool:
        def cycle() -> None:
            seg = pool.acquire(arr.nbytes)
            seg.view(arr.shape, arr.dtype)[...] = arr
            pool.release(seg)

        cycle_s = _p50(cycle, budget_s / 2)
    with SharedArray.publish(arr) as seg:
        desc = seg.descriptor()
        attach_s = _p50(lambda: SharedArray.attach(desc).close(), budget_s / 2)
    return {"parallel.shm.pool_cycle_us": cycle_s * 1e6,
            "parallel.shm.attach_us": attach_s * 1e6}


# -- service ------------------------------------------------------------------------------


def store_rtt_ms(run: WorkloadRun, budget_s: float) -> float:
    """Round trip of the workload's payload through the identity codec."""
    data = run.inputs.cells[0].data
    with run.client() as client:
        def trip() -> None:
            buf = client.compress(data, "store", mode="abs", value=0.0)
            if len(buf.payload) != data.nbytes:
                raise RuntimeError("store codec changed the payload size")

        return _p50(trip, budget_s) * 1e3


def router_overhead_us(run: WorkloadRun, pairs: int) -> float:
    """The same COMPRESS routed and direct to a shard, alternating."""
    cell = run.inputs.cells[0]
    routed: list[float] = []
    direct: list[float] = []
    with run.client() as via_router, \
            run.client(run.shard_ports[0]) as shard0, \
            run.client(run.shard_ports[1]) as shard1:
        def call(client) -> float:
            return _timed(lambda: client.compress(
                cell.data, cell.op.compressor, mode=cell.op.mode,
                value=cell.value))

        for i in range(pairs):
            shard = shard0 if i % 2 == 0 else shard1
            if i % 2 == 0:
                routed.append(call(via_router))
                direct.append(call(shard))
            else:
                direct.append(call(shard))
                routed.append(call(via_router))
    return (percentile(routed, 50) - percentile(direct, 50)) * 1e6
