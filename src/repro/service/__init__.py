"""Compression-as-a-service: daemon, wire protocol, and client library.

This package turns the library into a long-lived system under load —
the operational end state the paper's in situ guideline points at: a
simulation (or many) calls into one resident daemon instead of paying
process start-up and codec warm-up per field.

* :mod:`repro.service.protocol` — MSG1, the length-prefixed binary
  frame format (stdlib-JSON header + raw ndarray payload).
* :mod:`repro.service.batch` — bounded admission queue (backpressure),
  deadline expiry, and dispatch in arrival order, one request at a time
  per slot, on the daemon's codec threads.
* :mod:`repro.service.core` — the one connection core of both
  front-ends (:class:`~repro.service.core.FrameServer`: accept/read
  loop, pipelined dispatch, request accounting, error replies, HELLO,
  CANCEL, graceful drain on SIGTERM) and the one thread embedder.
* :mod:`repro.service.server` — the daemon, a ``FrameServer`` that
  answers COMPRESS/DECOMPRESS/SWEEP/SESSION_*/LIST/HEALTH/STATS/
  METRICS; :class:`ServiceThread` embeds it.
* :mod:`repro.service.client` — one pipelined transport (connect/busy
  retry with jittered backoff, per-call deadlines, one reading thread
  per connection at a time): :class:`ServiceClient` pins it to one connection, the
  multiplexing :class:`PooledClient` spreads calls over several.
* :mod:`repro.service.cluster` — the multi-node fabric: a
  :class:`ClusterRouter`, a ``FrameServer`` that spreads requests over
  N daemon shards by consistent hash (:mod:`repro.service.ring`), with
  health-gated membership (:mod:`repro.service.membership`), hedging/
  failover, and fleet-wide STATS/METRICS; :class:`ClusterThread`
  embeds it.
* ``python -m repro.service serve|route|compress|stats|health|cluster``
  — the CLI.

See ``docs/SERVICE.md`` for the protocol specification and deployment
tuning, and ``docs/CLUSTER.md`` for the cluster operator's handbook.
"""

from repro.service.client import (
    DEFAULT_PORT,
    PooledClient,
    ServiceClient,
    ServiceSession,
)
from repro.service.cluster import (
    DEFAULT_ROUTER_PORT,
    ClusterRouter,
    ClusterThread,
    routing_key,
)
from repro.service.server import CompressionService, ServiceThread
from repro.service.sessions import Session, SessionTable

__all__ = [
    "DEFAULT_PORT",
    "DEFAULT_ROUTER_PORT",
    "PooledClient",
    "ServiceClient",
    "ServiceSession",
    "Session",
    "SessionTable",
    "ClusterRouter",
    "ClusterThread",
    "CompressionService",
    "ServiceThread",
    "routing_key",
]
