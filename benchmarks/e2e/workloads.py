"""The four closed-loop workloads: SUT set-up, clients and callers.

Closed loop everywhere: a caller is a simulation rank that blocks on
each call, so its next request leaves only when the previous reply has
been checked.  At most two callers run (the host has two cores).  The
single caller of ``lib_codec`` runs on the harness's main thread — the
same SZ call is ~1.5x slower on a non-main thread of the same process
(malloc arena), which would measure the embedding, not the codec.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs as inp
import paths
from catalog import WORKLOADS
from repro.compressors import get_compressor
from repro.errors import ReproError
from repro.service.client import PooledClient, ServiceClient
from repro.telemetry import context as trace_context
from sut import Fleet, SutError
from tracing import SpanRecorder

#: Socket wait bound per request; far above any healthy reply, far below
#: the driver's 180 s cap so a hung daemon fails ops instead of the run.
REQUEST_TIMEOUT_S = 20.0

# record tuple layout
CLASS, T0, T1, NBYTES, OK, CELL, NBYTES_OUT = range(7)


class Caller:
    """One closed-loop caller; ``step`` is one pass of its inner loop."""

    def __init__(self, run: "WorkloadRun", order: list[int]) -> None:
        self.run = run
        self.order = order
        self.pos = 0
        self.records: list[tuple] = []

    def next_cell(self) -> inp.Cell:
        cell = self.run.inputs.cells[self.order[self.pos % len(self.order)]]
        self.pos += 1
        return cell

    def timed(self, op_class: str, nbytes: int, cell_key: str,
              call: Callable[[], Any], check: Callable[[Any], bool],
              size_out: Callable[[Any], int]) -> Any:
        """Run one op, time it, then verify it outside the timed region."""
        recorder = self.run.recorder if self.run.tracing else None
        out = None
        t0 = time.perf_counter()
        try:
            if recorder is None:
                out = call()
            else:
                with trace_context.start_trace() as ctx, \
                        recorder.span(f"client.{op_class}", ctx.trace_id):
                    out = call()
        except (ReproError, OSError) as exc:
            self.run.note_error(op_class, exc)
        t1 = time.perf_counter()
        ok = out is not None and check(out)
        self.records.append((
            op_class, t0, t1, nbytes, ok, cell_key,
            size_out(out) if ok else 0,
        ))
        return out if ok else None

    def step(self) -> None:
        raise NotImplementedError

    def run_until(self, deadline: float) -> None:
        while time.perf_counter() < deadline and not self.run.stop.is_set():
            self.step()


class CodecCaller(Caller):
    """COMPRESS a cell, then DECOMPRESS the reply.

    ``target`` is anything with the blocking client call surface:
    a ``ServiceClient``, a ``PooledClient`` or the in-process library.
    """

    def __init__(self, run: "WorkloadRun", order: list[int],
                 target: Any) -> None:
        super().__init__(run, order)
        self.target = target

    def step(self) -> None:
        cell = self.next_cell()
        target = self.target
        buf = self.timed(
            "compress", cell.data.nbytes, cell.key,
            lambda: target.compress(cell.data, cell.op.compressor,
                                    mode=cell.op.mode, value=cell.value),
            lambda b: inp.check_compress(cell, self.run.corrupt(b)),
            lambda b: len(b.payload),
        )
        if buf is None:
            return
        self.timed(
            "decompress", cell.data.nbytes, cell.key,
            lambda: target.decompress(buf),
            lambda a: inp.check_decompress(cell, a),
            lambda a: 0,
        )


class Library:
    """The in-process codecs behind the client call surface."""

    def __init__(self) -> None:
        self._codecs: dict[str, Any] = {}

    def _codec(self, name: str):
        if name not in self._codecs:
            self._codecs[name] = get_compressor(name)
        return self._codecs[name]

    _KNOB = {p.mode: p.knob for p in inp.OP_POINTS.values()}

    def compress(self, data: np.ndarray, compressor: str, mode: str,
                 value: float):
        buf = self._codec(compressor).compress(
            data, mode=mode, **{self._KNOB[mode]: value}
        )
        buf.meta["compressor"] = compressor
        return buf

    def decompress(self, buf) -> np.ndarray:
        return self._codec(buf.meta["compressor"]).decompress(buf)


class SessionCaller(Caller):
    """One temporal SESSION_STEP stream over the cyclic snapshot series."""

    def __init__(self, run: "WorkloadRun", client: ServiceClient) -> None:
        super().__init__(run, [])
        self.client = client
        self.session = None
        self.opened = 0
        self.home_shard: str | None = None
        self.sticky_violations = 0

    def open(self) -> None:
        self.opened += 1
        self.session = self.client.session_open(
            "sz", mode="abs", value=self.run.inputs.series_value,
            keyframe_every=inp.KEYFRAME_EVERY,
            session_id=f"e2e-{self.run.seed}-{self.opened}",
        )

    def step(self) -> None:
        inputs = self.run.inputs
        step = self.pos
        snap = inputs.series[step % inp.SERIES_LENGTH]
        self.pos += 1
        out = self.timed(
            "session_step", snap.nbytes, f"series@{step % inp.SERIES_LENGTH}",
            lambda: self.session.step(snap),
            lambda r: inp.check_step(inputs, step, r[1]),
            # the reference size: a live frame grows with the digits of
            # its step counter, which would make the ratio depend on time
            lambda r: inputs.series_nbytes_out[step % inp.SERIES_LENGTH],
        )
        if out is None:
            # The stream is broken (failed or mismatching step): reopen, so
            # one fault costs one op and not every later one.
            self.pos = 0
            self.open()
            return
        shard = out[0].get("shard")
        if self.home_shard is None:
            self.home_shard = shard
        elif shard != self.home_shard:
            self.sticky_violations += 1

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


# -- workload runs ---------------------------------------------------------------


class WorkloadRun:
    """One workload's SUT, clients, callers and records for one run."""

    name = ""
    #: Daemon flags beyond the defaults: the ephemeral port only.
    SERVE = ["serve", "--port", "0", "--quiet"]

    def __init__(self, seed: int, traced: bool, log_dir: Path,
                 corrupt_reply: bool = False) -> None:
        self.seed = seed
        self.traced = traced
        self.log_dir = log_dir
        self.spec = next(w for w in WORKLOADS if w.name == self.name)
        self.inputs = inp.generate(self.name, seed, with_series=self.needs_series)
        self.schedules: list[list[int]] = []
        self.fleet: Fleet | None = None
        self.callers: list[Caller] = []
        self.recorder = SpanRecorder() if traced else None
        self.tracing = False  # flipped per slice by the harness
        self.stop = threading.Event()
        self.threads: list[threading.Thread] = []  # of the phase in flight
        self.errors: dict[str, int] = {}
        self._closers: list[Callable[[], None]] = []
        self._corrupt_next = corrupt_reply
        self.front_port = 0

    @property
    def needs_series(self) -> bool:
        return False

    # -- selftest hook and error log ------------------------------------------

    def corrupt(self, buf):
        """Selftest: flip one byte of exactly one reply; else identity."""
        if self._corrupt_next:
            self._corrupt_next = False
            payload = bytearray(buf.payload)
            payload[len(payload) // 2] ^= 0x01
            buf.payload = bytes(payload)
        return buf

    def note_error(self, op_class: str, exc: Exception) -> None:
        key = f"{op_class}: {type(exc).__name__}: {exc}"[:200]
        self.errors[key] = self.errors.get(key, 0) + 1

    # -- references and schedule --------------------------------------------------

    def prepare(self, bound_scale: float = 1.0) -> None:
        inp.compute_references(self.inputs, bound_scale)
        self.schedules = inp.make_schedules(
            self.inputs, self.name, self.seed, self.spec.callers
        )

    @property
    def first_cells(self) -> list[inp.Cell]:
        """The first cell of each codec: one verified reply per codec."""
        seen: dict[str, inp.Cell] = {}
        for cell in self.inputs.cells:
            seen.setdefault(cell.op.compressor, cell)
        return list(seen.values())

    # -- SUT --------------------------------------------------------------------------

    def spawn(self) -> None:
        """Start this workload's processes into ``self.fleet``."""
        raise NotImplementedError

    def setup_cycle(self, cycle: int) -> float:
        """spawn -> ready -> first verified reply per codec; seconds."""
        log_dir = self.log_dir / f"cycle{cycle}"
        log_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        self.fleet = Fleet(log_dir)
        self.spawn()
        with self.client() as client:
            for cell in self.first_cells:
                buf = client.compress(cell.data, cell.op.compressor,
                                      mode=cell.op.mode, value=cell.value)
                if buf.payload != cell.buf.payload:
                    raise SutError(f"first reply for {cell.key} is wrong")
        return time.perf_counter() - t0

    def teardown_cycle(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None

    def client(self, port: int | None = None) -> ServiceClient:
        return ServiceClient(port=port or self.front_port,
                             request_timeout_s=REQUEST_TIMEOUT_S,
                             seed=self.seed)

    def connect(self) -> None:
        """Create the clients and callers of the measured phases."""
        raise NotImplementedError

    def owned(self, client):
        """Register ``client`` for closing at teardown; returns it."""
        self._closers.append(client.close)
        return client

    def close(self) -> None:
        """Stop callers' streams, close clients, stop the SUT.  Idempotent."""
        self.stop.set()
        for thread in self.threads:
            # a caller finishes the op it is in; closing its client under
            # it would interleave frames on the socket
            thread.join(timeout=REQUEST_TIMEOUT_S)
        closers, self._closers = self._closers[::-1], []
        for close in closers:
            try:
                close()
            except (ReproError, OSError):
                pass
        self.teardown_cycle()

    # -- observation --------------------------------------------------------------------

    def server_pids(self) -> list[int]:
        return self.fleet.pids("daemon") + self.fleet.pids("shard") \
            if self.fleet else []

    def router_pids(self) -> list[int]:
        return self.fleet.pids("router") if self.fleet else []

    def stats(self) -> dict | None:
        """The front door's STATS reply (None for the library workload)."""
        if self.fleet is None or not self.front_port:
            return None
        with self.client() as client:
            return client.stats()


class LibCodec(WorkloadRun):
    name = "lib_codec"

    @property
    def needs_series(self) -> bool:
        return self.traced  # only the traced run's temporal probe steps it

    def setup_cycle(self, cycle: int) -> float:
        """Cold start of the library: a fresh interpreter imports repro,
        loads the native kernels and makes one verified call per codec."""
        paths.TMP_DIR.mkdir(parents=True, exist_ok=True)
        npz = paths.TMP_DIR / f"cold-{self.name}.npz"
        cells = self.first_cells
        if cycle == 0:
            np.savez(npz, **{f"a{i}": c.data for i, c in enumerate(cells)})
        spec = [[c.op.compressor, c.op.mode, c.op.knob, c.value] for c in cells]
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(paths.BENCH_DIR / "cold_start.py"),
             str(npz), json.dumps(spec)],
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise SutError(f"library cold start failed: {done.stderr[-500:]}")
        want = [hashlib.blake2b(c.buf.payload, digest_size=16).hexdigest()
                for c in cells]
        if done.stdout.split() != want:
            raise SutError("library cold start produced other bytes")
        return elapsed

    def connect(self) -> None:
        self.callers = [CodecCaller(self, self.schedules[0], Library())]


class SvcSmall(WorkloadRun):
    name = "svc_small"

    def spawn(self) -> None:
        self.front_port = self.fleet.spawn("daemon", self.SERVE).wait_ready()

    def connect(self) -> None:
        self.callers = [
            CodecCaller(self, order, self.owned(self.client()))
            for order in self.schedules
        ]


class SvcBulk(SvcSmall):
    name = "svc_bulk"

    def connect(self) -> None:
        pool = self.owned(PooledClient(
            port=self.front_port, connections=1,
            request_timeout_s=REQUEST_TIMEOUT_S, seed=self.seed,
        ))
        self.callers = [CodecCaller(self, order, pool)
                        for order in self.schedules]


class RoutedInsitu(WorkloadRun):
    name = "routed_insitu"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.shard_ports: list[int] = []
        self.session_caller: SessionCaller | None = None

    @property
    def needs_series(self) -> bool:
        return True

    def spawn(self) -> None:
        shards = [
            self.fleet.spawn(f"shard{i}", [*self.SERVE, "--shard-id", f"shard{i}"])
            for i in range(2)
        ]
        self.shard_ports = [s.wait_ready() for s in shards]
        endpoints = ",".join(f"127.0.0.1:{p}" for p in self.shard_ports)
        self.front_port = self.fleet.spawn(
            "router", ["route", "--shards", endpoints, "--port", "0", "--quiet"]
        ).wait_ready()

    def setup_cycle(self, cycle: int) -> float:
        t0 = time.perf_counter()
        super().setup_cycle(cycle)
        with self.client() as client:
            probe = SessionCaller(self, client)
            probe.open()
            probe.step()
            probe.close()
            if probe.home_shard is None:
                raise SutError(f"first session step failed: {self.errors}")
        return time.perf_counter() - t0

    def connect(self) -> None:
        self.session_caller = SessionCaller(self, self.owned(self.client()))
        self.session_caller.open()
        self._closers.append(self.session_caller.close)
        self.callers = [
            CodecCaller(self, self.schedules[0], self.owned(self.client())),
            self.session_caller,
        ]


RUNS = {cls.name: cls for cls in (LibCodec, SvcSmall, SvcBulk, RoutedInsitu)}


# -- phases ------------------------------------------------------------------------------


def run_phase(run: WorkloadRun, seconds: float) -> tuple[float, float]:
    """Drive every caller for ``seconds``; returns (start, end) of the phase.

    A caller finishes the op it has started, so the phase ends a little
    after the deadline; no op is cut and none starts after it.
    """
    start = time.perf_counter()
    deadline = start + seconds
    if len(run.callers) == 1:
        run.callers[0].run_until(deadline)
    else:
        failures: list[BaseException] = []

        def body(caller: Caller) -> None:
            try:
                caller.run_until(deadline)
            except BaseException as exc:  # re-raised on the main thread
                failures.append(exc)
                run.stop.set()

        run.threads = [threading.Thread(target=body, args=(c,), daemon=True)
                       for c in run.callers]
        for t in run.threads:
            t.start()
        for t in run.threads:
            while t.is_alive():
                t.join(timeout=0.2)  # short joins keep signals deliverable
        if failures:
            raise failures[0]
    if run.fleet is not None:
        run.fleet.check_alive()
    return start, time.perf_counter()
