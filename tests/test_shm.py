"""Tests for the zero-copy shared-memory field transport."""

import numpy as np
import pytest

from repro.errors import DataError
from repro.parallel.shm import (
    NO_SHM_ENV,
    SharedArray,
    ShmDescriptor,
    attach_cached,
    detach_all,
    shm_enabled,
)


@pytest.fixture(autouse=True)
def _clean_attachments():
    yield
    detach_all()


class TestSharedArray:
    def test_publish_attach_round_trip(self):
        data = np.arange(1000, dtype=np.float32).reshape(10, 100)
        with SharedArray.publish(data) as pub:
            desc = pub.descriptor()
            assert desc.shape == (10, 100)
            assert desc.nbytes == data.nbytes
            remote = SharedArray.attach(desc)
            try:
                assert np.array_equal(remote.array, data)
                assert not remote.array.flags.writeable
            finally:
                remote.close()

    def test_attach_sees_published_bytes_not_a_copy(self):
        data = np.zeros(64, dtype=np.float64)
        pub = SharedArray.publish(data)
        try:
            remote = SharedArray.attach(pub.descriptor())
            try:
                # Same physical pages: the publisher's view and the
                # attachment alias one buffer.
                assert remote.array[0] == 0.0
                assert np.shares_memory(pub.array, pub.array)
            finally:
                remote.close()
        finally:
            pub.unlink()

    def test_empty_array_rejected(self):
        with pytest.raises(DataError):
            SharedArray.publish(np.empty(0, dtype=np.float32))

    def test_closed_handle_rejects_access(self):
        pub = SharedArray.publish(np.ones(8))
        pub.close()
        with pytest.raises(DataError):
            pub.array

    def test_refcounting_closes_at_zero(self):
        pub = SharedArray.publish(np.ones(16))
        pub.addref()
        pub.release()
        pub.array  # still open: one reference left
        pub.release()
        with pytest.raises(DataError):
            pub.array

    def test_unlink_removes_segment(self):
        pub = SharedArray.publish(np.ones(32))
        desc = pub.descriptor()
        pub.unlink()
        with pytest.raises(FileNotFoundError):
            SharedArray.attach(desc)

    def test_size_mismatch_detected(self):
        pub = SharedArray.publish(np.ones(16, dtype=np.float32))
        try:
            bad = ShmDescriptor(
                name=pub.name, shape=(1 << 20,), dtype="<f8"
            )
            with pytest.raises(DataError, match="bytes"):
                SharedArray.attach(bad)
        finally:
            pub.unlink()

    def test_attach_cached_memoizes(self):
        pub = SharedArray.publish(np.arange(10.0))
        try:
            desc = pub.descriptor()
            first = attach_cached(desc)
            second = attach_cached(desc)
            assert first is second
            assert detach_all() == 1
        finally:
            pub.unlink()


_CONCURRENT_ATTACH = """
import sys, threading
from multiprocessing import resource_tracker
from repro.parallel.shm import SharedArray, ShmDescriptor

descs = [ShmDescriptor(name, (1024,), "|u1") for name in sys.argv[1:]]
failures = []

def attach_loop(desc):
    try:
        for _ in range(300):
            SharedArray.attach(desc).close()
    except BaseException as exc:
        failures.append(repr(exc))

old = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=attach_loop, args=(descs[i % len(descs)],))
               for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
finally:
    sys.setswitchinterval(old)
alive = [t for t in threads if t.is_alive()]
print("failures", failures, "alive", len(alive),
      "tracker_pid", resource_tracker._resource_tracker._pid)
"""


class TestConcurrentAttach:
    def test_threads_attaching_never_start_a_resource_tracker(self):
        """Executor threads of one daemon attach client segments at once.
        A tracked attach launches this process's resource tracker, which
        unlinks the *client's* segments when the daemon exits — so a
        process that only ever attaches must never own a tracker child."""
        import os
        import subprocess
        import sys

        owners = [SharedArray.create(1024) for _ in range(2)]
        try:
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
            proc = subprocess.run(
                [sys.executable, "-c", _CONCURRENT_ATTACH]
                + [o.name for o in owners],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == (
                "failures [] alive 0 tracker_pid None"
            ), proc.stdout + proc.stderr
            # ...and the publisher's segments survived the attacher's exit.
            for owner in owners:
                SharedArray.attach(owner.descriptor()).close()
        finally:
            for owner in owners:
                owner.close()


_FORK_WHILE_LOCKED = """
import sys, threading, time
from repro.parallel import shm
from repro.parallel.executor import process_map

desc = shm.ShmDescriptor(sys.argv[1], (8,), "<f8")
held = threading.Event()

def hold():
    with shm._REGISTER_LOCK:
        held.set()
        time.sleep(1.0)

holder = threading.Thread(target=hold)
holder.start()
held.wait()
views = process_map(shm.attach_cached, [desc, desc], workers=2, chunk_size=1)
print([float(v.sum()) for v in views])
holder.join()
"""


class TestForkSafety:
    def test_fork_while_another_thread_holds_the_register_lock(self):
        """A worker forked while another thread holds the register lock
        (a codec thread attaching a segment) must still be able to
        attach: the child never sees that thread release it."""
        import os
        import signal
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        with SharedArray.publish(np.arange(8.0)) as pub:
            proc = subprocess.Popen(
                [sys.executable, "-c", _FORK_WHILE_LOCKED, pub.name],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env, start_new_session=True,
            )
            try:
                out, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # the hung workers too
                proc.communicate()
                pytest.fail("process_map hung on a register lock held at fork")
        assert proc.returncode == 0, err
        assert out.strip() == "[28.0, 28.0]", out + err


class TestShmEnabled:
    def test_default_enabled(self, monkeypatch):
        monkeypatch.delenv(NO_SHM_ENV, raising=False)
        assert shm_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "YES", "on"])
    def test_opt_out_values(self, monkeypatch, value):
        monkeypatch.setenv(NO_SHM_ENV, value)
        assert not shm_enabled()

    @pytest.mark.parametrize("value", ["", "0", "off"])
    def test_non_opt_out_values(self, monkeypatch, value):
        monkeypatch.setenv(NO_SHM_ENV, value)
        assert shm_enabled()
