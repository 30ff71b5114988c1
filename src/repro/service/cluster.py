"""The cluster router: N compression daemons behaving as one service.

A :class:`ClusterRouter` speaks the daemon's MSG1 protocol, so any
client points at it unchanged, and adds what one process cannot have:

* **placement** — COMPRESS/DECOMPRESS/SWEEP route by a consistent hash
  of their cache identity (:func:`routing_key` →
  :class:`~repro.service.ring.HashRing`), so a repeat sweep lands on
  the shard whose :class:`~repro.cache.ResultCache` is warm;
* **membership** — per-shard HEALTH probes feed the
  :class:`~repro.service.membership.MembershipTable`; ``fail_after``
  missed probes drain a shard from the ring (its arcs fail over to ring
  neighbours), ``recover_after`` clean ones re-admit it;
* **hedging / failover** — a failed forward moves to the key's next
  preference; a slow one is hedged after ``hedge_after_s`` (first reply
  wins; the loser's late reply is drained off the shard's pipelined
  channel, never delivered);
* **fleet observability** — STATS merges shard snapshots, METRICS
  re-labels each shard's exposition with ``shard="..."`` (the router as
  ``shard="router"``), CLUSTER dumps topology, membership and ring
  shares.

The client-facing half is :class:`repro.service.core.FrameServer`; a
client CANCEL of a stateless routed request abandons its forwards and
is answered ``cancelled``.  Shards are **addressed** (``host:port``) or
**spawned** (``spawn=N`` local subprocesses via
:class:`repro.parallel.daemons.DaemonProcess`, drained with the router).
A traced request stays one tree across the hop: ``router.request`` /
``router.forward`` spans under the client's, and the forwarded header
carries the router's context (``docs/OBSERVABILITY.md``).

The routing key is deterministic and cheap (one blake2b over the
header's cache identity plus the payload):

>>> import numpy as np
>>> from repro.service import protocol
>>> arr = np.zeros(8, dtype=np.float32)
>>> h = {"op": "compress", "compressor": "sz", "mode": "abs",
...      "value": 0.1, **protocol.array_fields(arr)}
>>> k1 = routing_key(h, protocol.pack_array(arr))
>>> k1 == routing_key(dict(h), protocol.pack_array(arr))  # deterministic
True
>>> routing_key({"op": "health"}, b"") is None            # control plane
True

See ``docs/CLUSTER.md`` for the operator's handbook.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import logging
import os
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any

from repro.errors import ProtocolError, ServiceError
from repro.parallel.shm import shm_enabled
from repro.service import protocol
from repro.service.core import Connection, FrameServer, Reply, ServerThread
from repro.service.membership import MembershipTable
from repro.service.ring import HashRing
from repro.telemetry import get_telemetry
from repro.telemetry import context as trace_context

logger = logging.getLogger("repro.service.cluster")

__all__ = [
    "DEFAULT_ROUTER_PORT",
    "ClusterRouter",
    "ClusterThread",
    "routing_key",
]

#: Default router port (one above the daemon's 9461 family).
DEFAULT_ROUTER_PORT = 9470

#: Budget for dialing a shard and completing the HELLO exchange.
CONNECT_TIMEOUT_S = 5.0

#: Budget for one forwarded request (a shard-side SWEEP can be long).
FORWARD_TIMEOUT_S = 300.0

#: Budget for one HEALTH probe or fleet STATS/METRICS fan-out leg.
PROBE_TIMEOUT_S = 2.0


def routing_key(header: dict[str, Any], payload: bytes) -> bytes | None:
    """The consistent-hash key of one request, or ``None`` for keyless ops.

    The key covers exactly the request's *cache identity* — the fields
    that make two requests interchangeable work (compressor, options,
    mode, knob value, dtype/shape for COMPRESS; the sweep spec for
    SWEEP) plus the payload bytes — so equal work hashes to the same
    shard and its warm :class:`~repro.cache.ResultCache` entry, while
    ids, deadlines, and trace headers never perturb placement.
    """
    op = str(header.get("op", "")).lower()
    if op.startswith("session"):
        # Session ops hash the session id and *nothing else* — not the
        # payload, not the reference digest — so every step of one
        # session lands on the shard whose session table holds its
        # reference snapshot (shard-sticky placement, docs/INSITU.md).
        sid = header.get(protocol.SESSION_FIELD)
        if sid is None:
            return None
        h = hashlib.blake2b(digest_size=16)
        h.update(b"session:")
        h.update(str(sid).encode())
        return h.digest()
    if op == "compress":
        ident = [op, header.get("compressor"), header.get("options") or {},
                 header.get("mode"), header.get("value"),
                 header.get("dtype"), header.get("shape")]
    elif op == "decompress":
        ident = [op, header.get("compressor"), header.get("options") or {},
                 header.get("mode"), header.get("parameter"),
                 header.get("dtype"), header.get("shape")]
    elif op == "sweep":
        ident = [op, header.get("field"), header.get("sweeps")]
    else:
        return None
    # Zero-copy requests carry their bulk data as a shared-memory
    # descriptor and an empty frame payload — fold the descriptor into
    # the identity so placement stays deterministic for them too.
    shm = header.get(protocol.SHM_FIELD)
    if shm is not None:
        ident.append(shm)
    h = hashlib.blake2b(digest_size=16)
    h.update(json.dumps(ident, sort_keys=True, default=str).encode())
    h.update(payload)
    return h.digest()


class ShardChannel:
    """One pipelined connection to a shard, multiplexed by request id.

    The router assigns its *own* per-channel ids (replies come back
    without one; the front-end restores the client's ``id``), writes
    frames under a send lock, and
    a reader task completes per-request futures as replies arrive — in
    any order.  Cancelling a waiter (hedge loser, timeout) just forgets
    its id: when the shard's reply eventually lands, the reader drops
    it by id and the connection stays open — no socket churn, and a
    late duplicate reply can never reach a client.
    """

    def __init__(self, shard_id: str, host: str, port: int) -> None:
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._send_lock = asyncio.Lock()
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._reader_task: asyncio.Task | None = None
        self._closed = False
        #: Late replies dropped by id with the connection kept open.
        self.drains = 0

    @property
    def closed(self) -> bool:
        return self._closed

    async def open(self) -> None:
        """Dial and HELLO; a shard that does not grant ``pipeline`` (no
        daemon of this codebase) is a :class:`ProtocolError`."""
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
            await protocol.write_frame(
                self._writer,
                {"op": "hello", protocol.CAPS_FIELD: [protocol.CAP_PIPELINE]},
            )
            frame = await protocol.read_frame(self._reader)
            if frame is None:
                raise ProtocolError(
                    f"shard {self.shard_id} closed during HELLO"
                )
            caps = frame[0].get(protocol.CAPS_FIELD)
            if not isinstance(caps, list) or protocol.CAP_PIPELINE not in caps:
                raise ProtocolError(
                    f"shard {self.shard_id} does not grant "
                    f"{protocol.CAP_PIPELINE!r}"
                )
        except BaseException:
            self.close()
            raise
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    async def _send(
        self, header: dict[str, Any], payload: bytes = b""
    ) -> tuple[int, asyncio.Future]:
        """Write one frame under a fresh id; ``(id, reply future)``."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        async with self._send_lock:
            if self._closed:
                raise ProtocolError(f"channel to {self.shard_id} is closed")
            self._next_id += 1
            rid = self._next_id
            self._pending[rid] = future
            try:
                await protocol.write_frame(
                    self._writer, {**header, "id": rid}, payload
                )
            except OSError:
                self._pending.pop(rid, None)
                self._fail(ProtocolError(
                    f"channel to {self.shard_id} broke mid-send"
                ))
                raise
        return rid, future

    async def request(
        self, header: dict[str, Any], payload: bytes, timeout_s: float
    ) -> tuple[dict[str, Any], bytes]:
        """One multiplexed round trip; safe to cancel at any point.  The
        reply comes back without the channel's id — the front-end stamps
        the client's own on what it sends on."""
        rid, future = await self._send(header, payload)
        try:
            return await asyncio.wait_for(future, timeout=timeout_s)
        except (asyncio.CancelledError, asyncio.TimeoutError):
            # Abandon the id; the reader will drain the late reply and
            # keep the connection.  Tell the shard not to bother if the
            # request is still queued over there.
            if self._pending.pop(rid, None) is not None:
                asyncio.get_running_loop().create_task(self._cancel(rid))
            raise

    async def _cancel(self, target: int) -> None:
        """Best-effort CANCEL for an abandoned id (fire and forget)."""
        with contextlib.suppress(OSError, ProtocolError, asyncio.CancelledError):
            _, future = await self._send({"op": "cancel", "cancel_id": target})
            # Nobody awaits the answer; consume it so asyncio stays quiet.
            future.add_done_callback(lambda f: f.cancelled() or f.exception())

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await protocol.read_frame(self._reader)
                if frame is None:
                    self._fail(ProtocolError(
                        f"shard {self.shard_id} closed the channel"
                    ))
                    return
                reply, body = frame
                future = self._pending.pop(reply.pop("id", None), None)
                if future is None:
                    # A hedge loser's (or timed-out) reply — drained.
                    self.drains += 1
                    get_telemetry().count("router.hedge_drains")
                    continue
                if not future.done():
                    future.set_result((reply, body))
        except (OSError, ProtocolError) as exc:
            self._fail(exc)

    def _fail(self, exc: Exception) -> None:
        self._closed = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)
        if self._writer is not None:
            with contextlib.suppress(Exception):
                self._writer.close()

    def close(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None
        self._fail(ProtocolError(f"channel to {self.shard_id} closed"))


class ShardHandle:
    """One shard endpoint: identity, optional subprocess, data path.

    Every forward (and probe) multiplexes over the shard's one
    :class:`ShardChannel`, redialed on demand after it broke; hedge
    losers are drained by id with the connection kept.
    """

    def __init__(self, shard_id: str, host: str, port: int, proc=None) -> None:
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.proc = proc  # DaemonProcess for spawned shards, else None
        self.channel: ShardChannel | None = None
        self._channel_lock = asyncio.Lock()

    async def get_channel(self) -> ShardChannel:
        """The live pipelined channel (dialing it if need be)."""
        if self.channel is not None and not self.channel.closed:
            return self.channel
        async with self._channel_lock:
            if self.channel is None or self.channel.closed:
                channel = ShardChannel(self.shard_id, self.host, self.port)
                await asyncio.wait_for(channel.open(), CONNECT_TIMEOUT_S)
                self.channel = channel
            return self.channel

    def close(self) -> None:
        if self.channel is not None:
            self.channel.close()
            self.channel = None

    def to_dict(self) -> dict[str, Any]:
        out = {"shard": self.shard_id, "host": self.host, "port": self.port}
        if self.proc is not None:
            out["pid"] = self.proc.pid
            out["spawned"] = True
        if self.channel is not None:
            out["pipelined"] = not self.channel.closed
            out["drains"] = self.channel.drains
        return out


#: ``shard_options`` keys that map onto a same-named ``serve`` flag.
SHARD_FLAGS = (
    "workers", "max_pending", "timeout_s", "cache_max_bytes", "backend",
)


def _spawn_argv(
    index: int, shard_options: dict[str, Any]
) -> tuple[list[str], dict[str, str]]:
    """Command line + environment for one locally spawned shard."""
    import repro

    argv = [
        sys.executable, "-u", "-m", "repro.service", "serve",
        "--host", "127.0.0.1", "--port", "0",
        "--shard-id", f"s{index}",
    ]
    opts = dict(shard_options)
    cache_dir = opts.pop("cache_dir", None)
    if cache_dir is not None:
        # Per-shard cache subdirectories: consistent-hash placement makes
        # each shard's warm set disjoint, so sharing one directory would
        # only share lock traffic, not hits.
        argv += ["--cache", str(Path(cache_dir) / f"s{index}")]
    unknown = set(opts) - set(SHARD_FLAGS)
    if unknown:
        raise ServiceError(f"unknown shard option(s): {sorted(unknown)}")
    for key in SHARD_FLAGS:
        if opts.get(key) is not None:
            argv += ["--" + key.replace("_", "-"), str(opts[key])]
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return argv, env


class ClusterRouter(FrameServer):
    """MSG1 front-end over N daemon shards (see module docstring).

    ``shards`` is a list of ``"host:port"`` endpoints to address;
    ``spawn`` asks the router to launch that many local shard daemons
    itself (``shard_options`` maps onto ``serve`` CLI flags:
    ``workers``, ``max_pending``, ``timeout_s``, ``cache_dir``,
    ``cache_max_bytes``, ``backend``).
    At least one shard must come from somewhere.

    ``hedge_after_s=None`` disables hedging (failover on hard errors
    still happens); see ``docs/CLUSTER.md`` for how to pick a budget.
    """

    role = "router"
    ns = "router"
    #: Ops the router answers itself (also while draining); everything
    #: else is forwarded.
    control_ops = frozenset({"health", "stats", "metrics", "cluster"})
    #: In-flight forwards get this long (the shard fleet is still up).
    drain_grace_s = 5.0

    def __init__(
        self,
        shards: list[str] | None = None,
        *,
        spawn: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_options: dict[str, Any] | None = None,
        probe_interval_s: float = 0.25,
        fail_after: int = 3,
        recover_after: int = 2,
        hedge_after_s: float | None = None,
        trace_out: str | None = None,
    ) -> None:
        if not shards and spawn <= 0:
            raise ServiceError(
                "a cluster needs shards: pass host:port endpoints or spawn=N"
            )
        super().__init__(host, port, trace_out)
        self.spawn = spawn
        self.shard_options = dict(shard_options or {})
        self.hedge_after_s = hedge_after_s
        self.ring = HashRing()
        self.membership = MembershipTable(
            fail_after=fail_after,
            recover_after=recover_after,
            probe_interval_s=probe_interval_s,
        )
        self.shard_handles: dict[str, ShardHandle] = {}
        self._addressed = list(shards or [])
        self._spawned: list[Any] = []  # every DaemonProcess we created
        self._probe_tasks: list[asyncio.Task] = []
        self._rr = 0  # round-robin cursor for keyless forwards

    # -- what the connection core asks of a front-end ----------------------

    def _caps(self) -> list[str]:
        """What this router can honor for its clients.

        ``pipeline`` always (dispatch is concurrent per connection).
        ``shm`` only when every shard is a same-host loopback peer —
        then a client's request segment is attachable by whichever
        shard the ring picks, and the router can pass descriptors
        through untouched.
        """
        caps = [protocol.CAP_PIPELINE]
        if shm_enabled() and self.shard_handles and all(
            protocol.is_loopback(h.host) for h in self.shard_handles.values()
        ):
            caps.append(protocol.CAP_SHM)
        return caps

    async def _open(self) -> None:
        """Register/spawn the shards and start their probe loops."""
        for endpoint in self._addressed:
            host, _, port_s = endpoint.rpartition(":")
            try:
                self._register(ShardHandle(endpoint, host, int(port_s)))
            except ValueError as exc:
                raise ServiceError(
                    f"bad shard endpoint {endpoint!r} (want host:port)"
                ) from exc
        if self.spawn > 0:
            await self._spawn_shards()
        loop = asyncio.get_running_loop()
        for shard_id in self.shard_handles:
            self._probe_tasks.append(
                loop.create_task(self._probe_loop(shard_id))
            )

    async def _close(self) -> None:
        for task in self._probe_tasks:
            task.cancel()
        if self._probe_tasks:
            await asyncio.gather(*self._probe_tasks, return_exceptions=True)
        for handle in self.shard_handles.values():
            handle.close()
        # Spawned shards drain gracefully (SIGTERM) — concurrently, each
        # on its own executor thread, since terminate() blocks.
        if self._spawned:
            loop = asyncio.get_running_loop()
            await asyncio.gather(*(
                loop.run_in_executor(None, p.terminate) for p in self._spawned
            ))

    async def _spawn_shards(self) -> None:
        from repro.parallel.daemons import DaemonProcess

        loop = asyncio.get_running_loop()
        for i in range(self.spawn):
            argv, env = _spawn_argv(i, self.shard_options)
            self._spawned.append(DaemonProcess(
                argv,
                ready_pattern=r"serving on ([\d.]+):(\d+)",
                name=f"s{i}",
                env=env,
            ))
        # DaemonProcess.start blocks on the child's ready line; numpy
        # import dominates shard start-up, so bring the fleet up in
        # parallel on executor threads.  Wait for all of them even if
        # one fails: _close() must not race a shard that is still
        # starting.
        matches = await asyncio.gather(
            *(loop.run_in_executor(None, p.start) for p in self._spawned),
            return_exceptions=True,
        )
        for match in matches:
            if isinstance(match, BaseException):
                raise match
        for i, (proc, match) in enumerate(zip(self._spawned, matches)):
            self._register(ShardHandle(
                f"s{i}", match.group(1), int(match.group(2)), proc=proc
            ))

    def _register(self, handle: ShardHandle) -> None:
        if handle.shard_id in self.shard_handles:
            raise ServiceError(f"duplicate shard id {handle.shard_id!r}")
        self.shard_handles[handle.shard_id] = handle
        if self.membership.add(handle.shard_id) == "admit":
            self.ring.add(handle.shard_id)
        self._update_up_gauge()

    # -- membership (probe loop + forward evidence) ------------------------

    def _update_up_gauge(self) -> None:
        get_telemetry().set_gauge(
            "router.shards_up", float(len(self.membership.serving()))
        )

    def _apply(self, verdict: str | None, shard_id: str) -> None:
        if verdict == "drain":
            self.ring.remove(shard_id)
            get_telemetry().count("router.shards_drained")
            logger.warning("shard %s drained from the ring", shard_id)
        elif verdict == "admit" and shard_id not in self.ring:
            self.ring.add(shard_id)
            get_telemetry().count("router.shards_admitted")
            logger.info("shard %s re-admitted to the ring", shard_id)
        if verdict:
            self._update_up_gauge()

    def _observe(self, shard_id: str, ok: bool, error: str = "") -> None:
        if ok:
            self._apply(self.membership.record_success(shard_id), shard_id)
        else:
            self._apply(
                self.membership.record_failure(shard_id, error), shard_id
            )

    async def _probe_loop(self, shard_id: str) -> None:
        tm = get_telemetry()
        while not self.draining:
            await asyncio.sleep(self.membership.probe_delay(shard_id))
            tm.count("router.probes")
            reply, _ = await self._ask(shard_id, "health")
            # A draining shard answers ok but refuses new work — gate
            # it out just like a dead one; it re-admits if it returns.
            ok = reply.get("status") == "ok" and not reply.get("draining")
            error = "" if ok else (
                reply.get("error") or f"draining={reply.get('draining')}"
            )
            if not ok:
                tm.count("router.probe_failures")
            self._observe(shard_id, ok, error)

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(
        self, conn: Connection, op: str, header: dict[str, Any],
        payload: bytes, reply: Reply,
    ) -> None:
        if op == "health":
            await reply(self._health())
        elif op == "cluster":
            await reply(self._cluster())
        elif op == "stats":
            await reply(await self._fleet_stats())
        elif op == "metrics":
            text, ctype = await self._fleet_metrics()
            await reply(
                {"status": "ok", "content_type": ctype}, text.encode("utf-8")
            )
        else:
            fwd = header
            if protocol.REPLY_SHM_FIELD in fwd:
                # Reply segments are single-writer; hedged or failed-over
                # attempts could land on two shards, so the router always
                # asks shards to reply inline.  Request-side segments
                # pass through — concurrent readers are harmless.
                fwd = {
                    k: v for k, v in fwd.items()
                    if k != protocol.REPLY_SHM_FIELD
                }
                get_telemetry().count("router.reply_shm_stripped")
            # A client CANCEL abandons the forwards (each chases its
            # shard with a CANCEL of its own).  Session ops stay out of
            # reach: the shard would finish the step regardless and the
            # client's reference digest would fall behind.
            sticky = op.startswith("session")
            route = asyncio.ensure_future(self._route(op, fwd, payload, sticky))
            with conn.cancellable(None if sticky else header.get("id"), route):
                h, body, shard_id = await route
            h.setdefault(protocol.SHARD_FIELD, shard_id)
            await reply(h, body)

    # -- routing (placement + hedging + failover) --------------------------

    def _preferences(
        self, header: dict[str, Any], payload: bytes
    ) -> list[str]:
        """Candidate shards for one request, best first."""
        serving = self.membership.serving()
        if not serving:
            raise ServiceError(
                "no shards available (all drained)", code="routing"
            )
        key = routing_key(header, payload)
        if key is None:
            # Keyless forwards (LIST, unknown ops) spread round-robin.
            self._rr += 1
            start = self._rr % len(serving)
            return serving[start:] + serving[:start]
        eligible = set(serving)
        prefs = [
            s for s in self.ring.preference(key, len(self.ring))
            if s in eligible
        ]
        return prefs or serving

    async def _route(
        self, op: str, header: dict[str, Any], payload: bytes, sticky: bool
    ) -> tuple[dict[str, Any], bytes, str]:
        """Dispatch one request with failover and (optional) hedging.

        Returns ``(reply_header, body, shard_id)`` of the first shard
        whose reply arrived.  Losing hedge attempts are cancelled, which
        just abandons their request id — the late reply is drained by
        the channel's reader (connection kept, a best-effort CANCEL
        chases the queued work).  The duplicate-suppression guarantee: a
        reply is only delivered to a waiter the router still has, and it
        keeps at most one winner.

        ``sticky`` (session ops): the primary shard holds the session's
        reference snapshot, so hedging or failing over to another shard
        could only yield a no_session error — or worse, bytes from a
        different stream.  One candidate, no hedge; if the primary is
        down the client gets a clean session_lost to reopen from.
        """
        tm = get_telemetry()
        candidates = deque(self._preferences(header, payload))
        if sticky:
            candidates = deque(list(candidates)[:1])
        total = len(candidates)
        pending: dict[asyncio.Task, tuple[str, bool]] = {}
        errors: list[str] = []

        def launch(hedge: bool) -> None:
            shard_id = candidates.popleft()
            task = asyncio.ensure_future(
                self._forward_traced(shard_id, header, payload, hedge)
            )
            pending[task] = (shard_id, hedge)
            tm.count(f'router.forwards{{shard="{shard_id}"}}')
            if hedge:
                tm.count("router.hedges")
                logger.info(
                    "hedging %s to %s after %.0f ms budget",
                    op, shard_id, (self.hedge_after_s or 0) * 1e3,
                )

        try:
            launch(hedge=False)
            while True:
                can_hedge = bool(candidates) and self.hedge_after_s is not None
                done, _ = await asyncio.wait(
                    set(pending),
                    timeout=self.hedge_after_s if can_hedge else None,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:  # budget elapsed: duplicate to the next shard
                    launch(hedge=True)
                    continue
                for task in done:
                    shard_id, was_hedge = pending.pop(task)
                    try:
                        reply, body = task.result()
                    except (OSError, ProtocolError,
                            asyncio.TimeoutError) as exc:
                        error = f"{type(exc).__name__}: {exc}"
                        self._observe(shard_id, ok=False, error=error)
                        errors.append(f"{shard_id}: {error}")
                        tm.count("router.forward_errors")
                        logger.warning(
                            "forward of %s to %s failed: %s",
                            op, shard_id, error,
                        )
                        continue
                    self._observe(shard_id, ok=True)
                    if was_hedge:
                        tm.count("router.hedge_wins")
                    return reply, body, shard_id
                if pending:
                    continue  # a hedge partner is still running
                if candidates:  # hard failover: next preference, immediately
                    tm.count("router.failovers")
                    launch(hedge=False)
                    continue
                if sticky:
                    raise ServiceError(
                        f"session shard unavailable for {op}: "
                        + "; ".join(errors)
                        + " — the daemon-side session state is gone; "
                        "reopen the session and re-send from its last "
                        "keyframe",
                        code="session_lost",
                    )
                raise ServiceError(
                    f"all {total} shard(s) failed for {op}: "
                    + "; ".join(errors),
                    code="routing",
                )
        finally:
            for task in pending:  # duplicate suppression
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    async def _forward_traced(
        self, shard_id: str, header: dict[str, Any], payload: bytes,
        hedge: bool,
    ) -> tuple[dict[str, Any], bytes]:
        with get_telemetry().span("router.forward", shard=shard_id, hedge=hedge):
            # Inject *inside* the span: the shard's service.request then
            # parents under this forward attempt, so a hedged request
            # shows both racing subtrees in one stitched trace.
            return await self._forward_to(
                shard_id, trace_context.inject(header), payload
            )

    async def _forward_to(
        self,
        shard_id: str,
        header: dict[str, Any],
        payload: bytes,
        timeout_s: float = FORWARD_TIMEOUT_S,
    ) -> tuple[dict[str, Any], bytes]:
        """One logical request to one shard, one reply back (without an
        ``id``), multiplexed over the shard's :class:`ShardChannel`;
        cancellation drains the late reply by id and keeps the
        connection."""
        channel = await self.shard_handles[shard_id].get_channel()
        return await channel.request(header, payload, timeout_s)

    # -- control plane (router-served ops) ---------------------------------

    def _health(self) -> dict[str, Any]:
        serving = self.membership.serving()
        return {
            "status": "ok",
            "role": "router",
            "draining": self.draining,
            "uptime_s": time.perf_counter() - self._started,
            "requests_total": self._requests_total,
            "shards_total": len(self.shard_handles),
            "shards_serving": len(serving),
            "serving": serving,
        }

    def _cluster(self) -> dict[str, Any]:
        """The CLUSTER op: topology, membership, and ring shares."""
        return {
            "status": "ok",
            "role": "router",
            "uptime_s": time.perf_counter() - self._started,
            "requests_total": self._requests_total,
            "hedge_after_s": self.hedge_after_s,
            "shards": [
                {**h.to_dict(),
                 **self.membership.shard(h.shard_id).to_dict()}
                for h in (self.shard_handles[k]
                          for k in sorted(self.shard_handles))
            ],
            "membership": self.membership.to_dict(),
            "ring": {
                "replicas": self.ring.replicas,
                "nodes": self.ring.nodes,
                "shares": self.ring.shares(1024),
            },
        }

    async def _ask(
        self, shard_id: str, op: str
    ) -> tuple[dict[str, Any], bytes]:
        """One control op to one shard; a loss becomes an error reply."""
        try:
            return await self._forward_to(
                shard_id, {"op": op}, b"", timeout_s=PROBE_TIMEOUT_S
            )
        except (OSError, ProtocolError, asyncio.TimeoutError) as exc:
            return (
                {"status": "error", "error": f"{type(exc).__name__}: {exc}"},
                b"",
            )

    async def _shard_control(
        self, op: str
    ) -> dict[str, tuple[dict[str, Any], bytes]]:
        """Fan one control op out to every serving shard; tolerate losses."""
        serving = self.membership.serving()
        frames = await asyncio.gather(*(self._ask(s, op) for s in serving))
        return dict(zip(serving, frames))

    async def _fleet_stats(self) -> dict[str, Any]:
        """STATS, fleet-wide: per-shard snapshots plus merged totals."""
        per_shard = {
            shard_id: header
            for shard_id, (header, _) in (await self._shard_control("stats")).items()
        }
        fleet_requests = sum(
            int(s.get("requests_total", 0)) for s in per_shard.values()
        )
        tm = get_telemetry()
        return {
            "status": "ok",
            "role": "router",
            "uptime_s": time.perf_counter() - self._started,
            "requests_total": self._requests_total,
            "requests_inflight": max(0, self._inflight - 1),  # excl. STATS
            "latency": self._latency_summary(),
            "fleet": {
                "shards_serving": len(per_shard),
                "requests_total": fleet_requests,
                "shards": per_shard,
            },
            "metrics": tm.metrics.snapshot() if tm.enabled else {},
        }

    async def _fleet_metrics(self) -> tuple[str, str]:
        """METRICS, fleet-wide: every shard's exposition + the router's.

        Each shard's samples gain a ``shard="<id>"`` label; the router's
        own registry is rendered with ``shard="router"`` — one scrape of
        the router is one consistent picture of the whole fleet.
        """
        from repro.telemetry.exposition import (
            PROM_CONTENT_TYPE,
            relabel_exposition,
            render_prometheus,
        )

        tm = get_telemetry()
        parts = [render_prometheus(
            tm.metrics if tm.enabled else None,
            extra_gauges={
                "router_uptime_seconds":
                    time.perf_counter() - self._started,
                "router_shards_serving_now":
                    float(len(self.membership.serving())),
            },
            extra_labels={"shard": "router"},
        )]
        for shard_id, (header, body) in sorted(
            (await self._shard_control("metrics")).items()
        ):
            if header.get("status") != "ok":
                continue
            parts.append(relabel_exposition(
                body.decode("utf-8"), {"shard": shard_id}
            ))
        # Shards share metric families; keep one # TYPE line per family
        # across the concatenated parts (the format allows it only once).
        lines: list[str] = []
        typed: set[str] = set()
        for line in "".join(parts).splitlines():
            if line.startswith("# TYPE "):
                if line in typed:
                    continue
                typed.add(line)
            lines.append(line)
        text = "\n".join(lines) + ("\n" if lines else "")
        return text, PROM_CONTENT_TYPE


class ClusterThread(ServerThread):
    """Run a :class:`ClusterRouter` (and its fleet) on a background thread.

    The embedding entry point for tests and benchmarks::

        with ClusterThread(spawn=2, hedge_after_s=0.5) as cluster:
            with ServiceClient(port=cluster.port) as client:
                ...

    Context exit drains the router, which SIGTERM-drains any spawned
    shards.
    """

    server_class = ClusterRouter
    router = property(lambda self: self.server, doc="The embedded router.")
