"""Zero-copy shared-memory transport for dataset fields.

The PR 2 parallel sweep pickles the *entire* field dict to every worker
chunk — for the paper's 1.07e9-particle HACC fields that serialization
dominates end-to-end cost.  This module is the zero-copy replacement:
the parent **publishes** each array once into a POSIX shared-memory
segment (:class:`SharedArray`), ships only a tiny :class:`ShmDescriptor`
(name, shape, dtype) through the task pickle, and workers **attach** the
segment by name, getting a read-only numpy view backed by the same
physical pages — no copies, no serialization, O(1) per task.

Lifecycle contract:

* The publisher owns the segment.  ``publish`` copies the array in once;
  ``unlink`` (or dropping the last reference) removes it.  Handles are
  refcounted — ``addref``/``release`` let several consumers share one
  attachment, and the backing segment is only closed when the count
  reaches zero.
* Workers attach via :func:`attach_cached`, which memoizes one
  attachment per segment per process (repeated cells on one worker cost
  a dict lookup).  Attachments are deliberately *not* registered with
  ``multiprocessing.resource_tracker`` — on CPython < 3.13 attaching
  registers the segment a second time, and the worker's tracker would
  unlink it at exit while the publisher still owns it.
* ``REPRO_NO_SHM=1`` disables the transport globally
  (:func:`shm_enabled`); callers fall back to the pickling path.

Telemetry: ``shm.bytes_published`` / ``shm.segments_published`` count on
the publisher side, ``shm.bytes_attached`` / ``shm.segments_attached``
on the attaching side (visible when telemetry is enabled in that
process).
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Iterator

import numpy as np

from repro.errors import DataError
from repro.telemetry import get_telemetry

#: Environment variable disabling the shared-memory transport.
NO_SHM_ENV = "REPRO_NO_SHM"


def shm_enabled() -> bool:
    """True unless ``REPRO_NO_SHM`` requests the pickling fallback."""
    return os.environ.get(NO_SHM_ENV, "").strip().lower() not in (
        "1", "true", "yes", "on",
    )


@dataclass(frozen=True)
class ShmDescriptor:
    """Picklable handle to a published array: everything a worker needs
    to attach (segment name, shape, dtype) and nothing else."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * np.dtype(self.dtype).itemsize


#: Serializes every ``SharedMemory()`` call that depends on what
#: ``resource_tracker.register`` currently is: the swap in
#: :func:`_untracked_attach` is process-global, so an unguarded second
#: thread would either restore the real ``register`` under an attach in
#: flight (the attach gets tracked, and this process's tracker unlinks
#: the *publisher's* segment at exit) or lose a create's registration.
_REGISTER_LOCK = threading.Lock()

#: The tracker's real ``register``, for a forked child to fall back on.
_TRACKER_REGISTER = resource_tracker.register


def _reset_after_fork() -> None:
    """In a forked child, undo what another parent thread held at fork.

    Only the forking thread survives a fork: a :data:`_REGISTER_LOCK`
    another thread held then would never be released in the child, and
    :func:`_untracked_attach`'s no-op ``register`` would stay installed.
    """
    global _REGISTER_LOCK
    if _REGISTER_LOCK.locked():
        _REGISTER_LOCK = threading.Lock()
        resource_tracker.register = _TRACKER_REGISTER  # type: ignore[assignment]


os.register_at_fork(after_in_child=_reset_after_fork)


@contextmanager
def _untracked_attach() -> "Iterator[None]":
    """Attach without registering with the ``resource_tracker``.

    CPython < 3.13 registers every ``SharedMemory`` — including pure
    attachments — with the resource tracker, whose exit-time cleanup
    would unlink the publisher's segment out from under it.  Sending an
    unregister afterwards is not enough either: the tracker's cache is a
    *set*, so two workers attaching the same segment underflow it and
    the tracker prints ``KeyError`` tracebacks.  Suppressing the
    ``register`` call for the duration of the attach avoids both.
    Python 3.13+ exposes ``track=False`` instead; :meth:`SharedArray.attach`
    tries that first.
    """
    with _REGISTER_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            yield
        finally:
            resource_tracker.register = original  # type: ignore[assignment]


class SharedArray:
    """A numpy array backed by a named shared-memory segment.

    >>> handle = SharedArray.publish(np.arange(4.0))    # doctest: +SKIP
    >>> desc = handle.descriptor()                      # pickle this
    >>> remote = SharedArray.attach(desc)               # in the worker
    >>> remote.array[2]                                 # zero-copy view
    2.0
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        shape: tuple[int, ...],
        dtype: np.dtype,
        owner: bool,
    ) -> None:
        self._segment = segment
        self._shape = tuple(int(s) for s in shape)
        self._dtype = np.dtype(dtype)
        self._owner = owner
        # Ownership is per *process*, not per object: a fork()ed child
        # (e.g. a sweep's worker pool) inherits this handle, and its
        # exit-time GC must not unlink a segment the parent still
        # serves.  close() only unlinks when the pid matches.
        self._owner_pid = os.getpid() if owner else None
        self._refs = 1
        self._closed = False
        arr = np.ndarray(self._shape, dtype=self._dtype, buffer=segment.buf)
        arr.flags.writeable = owner  # consumers see an immutable view
        self._array = arr

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, nbytes: int) -> "SharedArray":
        """A fresh *writable* owner segment of ``nbytes`` flat bytes.

        Unlike :meth:`publish` nothing is copied in — the caller fills
        (and refills) the segment through :meth:`view`.  This is the
        data-plane scratch-buffer constructor (:class:`SegmentPool`).
        """
        if nbytes <= 0:
            raise DataError("cannot create an empty shared segment")
        with _REGISTER_LOCK:
            segment = shared_memory.SharedMemory(create=True, size=int(nbytes))
        tm = get_telemetry()
        tm.count("shm.segments_published")
        return cls(segment, (int(nbytes),), np.dtype(np.uint8), owner=True)

    @classmethod
    def publish(cls, array: np.ndarray) -> "SharedArray":
        """Copy ``array`` into a fresh shared segment (done once per sweep)."""
        array = np.asarray(array)
        if array.nbytes == 0:
            raise DataError("cannot publish an empty array to shared memory")
        tm = get_telemetry()
        with tm.span("shm.publish", bytes=array.nbytes):
            with _REGISTER_LOCK:
                segment = shared_memory.SharedMemory(create=True, size=array.nbytes)
            handle = cls(segment, array.shape, array.dtype, owner=True)
            handle._array[...] = array
            handle._array.flags.writeable = False
        tm.count("shm.segments_published")
        tm.count("shm.bytes_published", array.nbytes)
        return handle

    @classmethod
    def attach(cls, desc: ShmDescriptor) -> "SharedArray":
        """Attach to a published segment by descriptor (worker side)."""
        tm = get_telemetry()
        with tm.span("shm.attach", bytes=desc.nbytes, segment=desc.name):
            try:
                segment = shared_memory.SharedMemory(name=desc.name, track=False)
            except TypeError:  # Python < 3.13: no track kwarg
                with _untracked_attach():
                    segment = shared_memory.SharedMemory(name=desc.name)
            if segment.size < desc.nbytes:
                segment.close()
                raise DataError(
                    f"shared segment {desc.name!r} holds {segment.size} bytes, "
                    f"descriptor expects {desc.nbytes}"
                )
            handle = cls(segment, desc.shape, np.dtype(desc.dtype), owner=False)
        tm.count("shm.segments_attached")
        tm.count("shm.bytes_attached", desc.nbytes)
        return handle

    # -- accessors ----------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """The zero-copy view (read-only unless this handle published it)."""
        if self._closed:
            raise DataError("shared array handle is closed")
        return self._array

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def nbytes(self) -> int:
        return math.prod(self._shape) * self._dtype.itemsize

    def descriptor(self) -> ShmDescriptor:
        """The picklable attach-by-name handle for workers."""
        return ShmDescriptor(
            name=self._segment.name, shape=self._shape, dtype=self._dtype.str
        )

    def view(self, shape: tuple[int, ...], dtype: np.dtype | str) -> np.ndarray:
        """An ndarray view of the segment's *prefix* with a caller shape.

        The segment may be larger than the view needs (pooled scratch
        buffers round capacities up); writability follows ownership.
        """
        if self._closed:
            raise DataError("shared array handle is closed")
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in shape)
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > self._segment.size:
            raise DataError(
                f"view needs {nbytes} bytes, segment holds {self._segment.size}"
            )
        arr = np.ndarray(shape, dtype=dtype, buffer=self._segment.buf)
        arr.flags.writeable = self._owner
        return arr

    def view_descriptor(
        self, shape: tuple[int, ...], dtype: np.dtype | str
    ) -> ShmDescriptor:
        """Descriptor for a :meth:`view`-shaped prefix of this segment."""
        return ShmDescriptor(
            name=self._segment.name,
            shape=tuple(int(s) for s in shape),
            dtype=np.dtype(dtype).str,
        )

    # -- refcounted lifecycle -----------------------------------------------

    def addref(self) -> "SharedArray":
        if self._closed:
            raise DataError("shared array handle is closed")
        self._refs += 1
        return self

    def release(self) -> None:
        """Drop one reference; closes (and unlinks, if owner) at zero."""
        if self._closed:
            return
        self._refs -= 1
        if self._refs <= 0:
            self.close()

    def close(self) -> None:
        """Detach the view.  The publisher also unlinks the segment."""
        if self._closed:
            return
        self._closed = True
        # Release the exported buffer before closing the mapping.
        self._array = None  # type: ignore[assignment]
        try:
            self._segment.close()
        finally:
            if self._owner and self._owner_pid == os.getpid():
                try:
                    self._segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    def unlink(self) -> None:
        """Publisher-side teardown (alias for :meth:`close` on the owner)."""
        self.close()

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


#: Per-process memo of attached segments (worker side): name -> handle.
_ATTACHED: dict[str, SharedArray] = {}


def attach_cached(desc: ShmDescriptor) -> np.ndarray:
    """Attach ``desc`` (memoized per process) and return the array view.

    Worker processes call this once per cell; every cell of the same
    field after the first costs a dictionary lookup.  The attachment
    stays open for the life of the process — worker pools tear down
    their processes at pool shutdown, which releases the mapping.
    """
    handle = _ATTACHED.get(desc.name)
    if handle is None or handle._closed:
        handle = _ATTACHED[desc.name] = SharedArray.attach(desc)
    return handle.array


def detach_all() -> int:
    """Close every memoized attachment (test isolation); returns count."""
    n = 0
    for handle in _ATTACHED.values():
        if not handle._closed:
            handle.close()
            n += 1
    _ATTACHED.clear()
    return n


class SegmentPool:
    """Reusable publisher-owned scratch segments for the service data plane.

    The dominant cost of a fresh shm publish is not the copy but the
    page faults of first-touching new pages (measured ~6x the memcpy
    itself at 8 MB).  A client doing sustained large transfers therefore
    *reuses* segments: :meth:`acquire` hands out an owner handle with
    capacity rounded up to the next power of two (so a handful of size
    classes serve any request mix), :meth:`release` returns it for the
    next request, and :meth:`close` unlinks everything.

    Thread-safe — one pool serves all connections of a pooled client.
    Ownership never leaves the pool's process: segments acquired here
    are registered with this process's ``resource_tracker``, so even a
    SIGKILLed client leaks nothing (the tracker unlinks at teardown).
    """

    #: Smallest capacity handed out (matches the service's shm threshold).
    MIN_CAPACITY = 1 << 16

    def __init__(self, max_idle: int = 8) -> None:
        self.max_idle = max_idle
        self._idle: dict[int, list[SharedArray]] = {}
        self._lock = threading.Lock()
        self._closed = False

    @staticmethod
    def _capacity(nbytes: int) -> int:
        cap = SegmentPool.MIN_CAPACITY
        while cap < nbytes:
            cap <<= 1
        return cap

    def acquire(self, nbytes: int) -> SharedArray:
        """An owner handle with at least ``nbytes`` capacity (writable)."""
        if nbytes <= 0:
            raise DataError("cannot acquire an empty scratch segment")
        cap = self._capacity(nbytes)
        with self._lock:
            if self._closed:
                raise DataError("segment pool is closed")
            free = self._idle.get(cap)
            if free:
                get_telemetry().count("shm.pool_reuses")
                return free.pop()
        get_telemetry().count("shm.pool_creates")
        return SharedArray.create(cap)

    def release(self, handle: SharedArray) -> None:
        """Return ``handle`` for reuse (or unlink it if the pool is full)."""
        if handle._closed:
            return
        with self._lock:
            if not self._closed:
                free = self._idle.setdefault(handle.nbytes, [])
                if sum(len(v) for v in self._idle.values()) < self.max_idle:
                    free.append(handle)
                    return
        handle.unlink()

    def close(self) -> None:
        """Unlink every idle segment; the pool refuses further acquires."""
        with self._lock:
            self._closed = True
            idle = [h for free in self._idle.values() for h in free]
            self._idle.clear()
        for handle in idle:
            handle.unlink()

    def __enter__(self) -> "SegmentPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
