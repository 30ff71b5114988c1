"""Shared fixtures: small deterministic datasets, reused across the suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import kernels
from repro.cosmo.hacc import make_hacc_dataset
from repro.cosmo.nyx import make_nyx_dataset

#: Every trip of the process kernel registry seen after a test of a
#: ``REPRO_BACKEND=native`` run; ``kernels.reset()``, which some tests
#: call, would forget them.  Tests that trip a kernel on purpose do it in
#: private ``KernelRegistry`` instances.
_NATIVE_TRIPS: dict = {}


def _native_pinned() -> bool:
    return os.environ.get(kernels.BACKEND_ENV, "").strip().lower() == "native"


@pytest.fixture(autouse=True)
def _collect_native_trips():
    yield
    if _native_pinned():
        _NATIVE_TRIPS.update(kernels.REGISTRY.tripped())


def pytest_sessionfinish(session, exitstatus):
    """Under ``auto`` a native kernel that raises is served by numpy and
    every parity test still passes; a native-pinned run fails instead."""
    if not _native_pinned():
        return
    _NATIVE_TRIPS.update(kernels.REGISTRY.tripped())
    if _NATIVE_TRIPS:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.ensure_newline()
            for (backend, kernel), reason in sorted(_NATIVE_TRIPS.items()):
                reporter.write_line(
                    f"kernel {kernel} tripped on the {backend} tier: {reason}",
                    red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def smooth_field3d() -> np.ndarray:
    """A 32^3 smooth-plus-noise float32 field (compresses well)."""
    x, y, z = np.meshgrid(*[np.linspace(0, 4, 32)] * 3, indexing="ij")
    r = np.random.default_rng(0)
    return (np.sin(x) * np.cos(y) + 0.1 * z**2 + 0.01 * r.standard_normal(x.shape)).astype(
        np.float32
    )


@pytest.fixture(scope="session")
def rough_field3d() -> np.ndarray:
    """A 16^3 white-noise float32 field (compresses poorly)."""
    return np.random.default_rng(1).standard_normal((16, 16, 16)).astype(np.float32)


@pytest.fixture(scope="session")
def nyx_small():
    return make_nyx_dataset(grid_size=32, seed=42)


@pytest.fixture(scope="session")
def hacc_small():
    return make_hacc_dataset(particles_per_side=24, seed=7)


def ulp_tolerance(data: np.ndarray) -> float:
    """One float32 ulp at the data's magnitude — the documented slack on
    error bounds introduced by casting reconstructions to float32."""
    return float(np.spacing(np.abs(np.asarray(data, dtype=np.float32)).max()))


@pytest.fixture
def front_end():
    """Factory for a running MSG1 front-end: ``front_end("daemon", **kw)``
    is one embedded daemon, ``front_end("router", **kw)`` a router over
    two such daemons.  A context manager yielding the embedder thread
    (``.port``, ``.loop``, ``.server``) — suites whose cases must hold
    for *both* front-ends are written once against it."""
    import contextlib

    from repro.service import ClusterThread, ServiceThread

    @contextlib.contextmanager
    def start(kind: str, **daemon_kwargs):
        if kind == "daemon":
            with ServiceThread(**daemon_kwargs) as daemon:
                yield daemon
            return
        with ServiceThread(**daemon_kwargs) as a, \
                ServiceThread(**daemon_kwargs) as b:
            shards = [f"127.0.0.1:{a.port}", f"127.0.0.1:{b.port}"]
            with ClusterThread(shards=shards) as router:
                yield router

    return start


@pytest.fixture
def fake_peer():
    """Factory for a scripted one-connection MSG1 peer on a thread:
    ``fake_peer(handle)`` grants the client's HELLO ``pipeline``, then
    runs ``handle(conn)`` on the accepted socket until it returns or the
    client hangs up.  A context manager yielding the port; ``rcvbuf``
    pins the peer's socket receive buffer to that many bytes."""
    import contextlib
    import socket
    import threading

    from repro.errors import ProtocolError
    from repro.service import protocol

    @contextlib.contextmanager
    def start(handle, rcvbuf: int | None = None):
        server = socket.create_server(("127.0.0.1", 0))
        if rcvbuf:
            server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)

        def run():
            try:
                conn, _ = server.accept()
            except OSError:
                return  # closed before a client dialed
            with conn:
                try:
                    protocol.read_frame_sock(conn)
                    protocol.write_frame_sock(conn, {
                        "status": "ok",
                        protocol.CAPS_FIELD: [protocol.CAP_PIPELINE],
                    })
                    handle(conn)
                except (OSError, ProtocolError):
                    pass  # the client hung up

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            yield server.getsockname()[1]
        finally:
            server.close()
            thread.join(timeout=5)

    return start
