"""Kernel-backend registry: native / numpy tiers with fallback.

Every codec hot spot in this library (Lorenzo dual-quantization, the
canonical Huffman codec, the ZFP block coder, variable-length bit
packing) exists in two implementations:

``numpy``
    The vectorized batch kernels.  Always available; defines the stream
    format bit for bit (pinned by the golden streams under
    ``tests/golden/``).
``native``
    Compiled kernels (:mod:`repro.kernels.native`): a small C library
    compiled on demand with the system C compiler and called through
    ``ctypes``.  Optional; byte-exact with ``numpy``.

The registry resolves, per kernel, which implementation actually runs:

1. An explicit request (``use(...)`` context, ``CBench(backend=...)``,
   ``REPRO_BACKEND``) names a tier or ``auto``.
2. ``auto`` walks the tier list best-first (``native`` → ``numpy``) and
   picks the first backend that probes as available and provides the
   kernel.
3. A backend that raises at *call* time (anything other than a
   :class:`~repro.errors.ReproError` data/stream error) is tripped for
   that kernel, logged at WARNING on ``repro.kernels``, and the call
   transparently re-dispatches one tier down — daemons keep serving,
   only slower.
"""

from __future__ import annotations

import importlib
import logging
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigError, KernelUnavailableError, ReproError
from repro.telemetry import get_telemetry

#: Environment variable selecting the backend tier (or ``auto``).
BACKEND_ENV = "REPRO_BACKEND"

#: Tier preference for ``auto`` resolution, best first.
TIER_ORDER = ("native", "numpy")

#: Numeric tier levels for the ``kernels.backend{stage=...}`` gauge.
TIER_LEVEL = {"numpy": 1, "native": 2}

_LOG = logging.getLogger("repro.kernels")


def _choice(value: str, what: str) -> str:
    """``value`` if it names a tier or ``auto``, else a ConfigError."""
    if value not in TIER_ORDER + ("auto",):
        raise ConfigError(f"{what} must be one of {TIER_ORDER + ('auto',)}, got {value!r}")
    return value


@dataclass
class Backend:
    """One registered implementation tier.

    ``impls`` maps kernel names to ``"module.path:callable"`` strings;
    the import happens on first use so registering the native tier never
    costs a compile (or a failed import) until a kernel is actually
    requested from it.  ``probe`` is an optional availability check run
    once; it must raise :class:`KernelUnavailableError` (or any
    exception) when the backend cannot run in this process.
    """

    name: str
    impls: dict[str, str]
    probe: Callable[[], None] | None = None
    _probe_result: Exception | None = field(default=None, repr=False)
    _probed: bool = field(default=False, repr=False)

    def available(self) -> bool:
        return self.unavailable_reason() is None

    def unavailable_reason(self) -> str | None:
        """``None`` when usable, else a one-line human-readable reason."""
        if not self._probed:
            self._probed = True
            if self.probe is not None:
                try:
                    self.probe()
                except Exception as exc:  # probe failures are data, not bugs
                    self._probe_result = exc
        if self._probe_result is None:
            return None
        return f"{type(self._probe_result).__name__}: {self._probe_result}"

    def kernel(self, name: str) -> Callable | None:
        """The implementation of ``name``, importing lazily; ``None`` if
        this backend does not provide the kernel."""
        spec = self.impls.get(name)
        if spec is None:
            return None
        module_name, _, attr = spec.partition(":")
        return getattr(importlib.import_module(module_name), attr)

    def reset(self) -> None:
        """Forget probe results and tripped state (tests, hot reload)."""
        self._probed = False
        self._probe_result = None


class KernelRegistry:
    """Process-wide registry of backends and per-kernel dispatch state."""

    def __init__(self) -> None:
        self._backends: dict[str, Backend] = {}
        #: kernel -> ``((override, raw REPRO_BACKEND), (backend, impl))``:
        #: the pick under that selection, until a trip or :meth:`reset`.
        self._bound: dict[str, tuple[tuple, tuple[str, Callable]]] = {}
        self._lock = threading.Lock()
        #: (backend, kernel) pairs disabled after a call-time failure.
        self._tripped: dict[tuple[str, str], str] = {}
        #: kernel -> backend name that served the most recent call.
        self._active: dict[str, str] = {}
        #: Process-wide override installed by :func:`use` / ``set_backend``.
        self._override: str | None = None

    # -- registration ------------------------------------------------------

    def register(self, backend: Backend) -> None:
        if backend.name not in TIER_ORDER:
            raise ConfigError(
                f"unknown backend tier {backend.name!r}; expected one of {TIER_ORDER}"
            )
        self._backends[backend.name] = backend
        self._bound.clear()

    def backends(self) -> dict[str, Backend]:
        self._ensure_defs()
        return dict(self._backends)

    def _ensure_defs(self) -> None:
        if not self._backends:
            from repro.kernels import defs  # registers both tiers

            defs.register_default_backends(self)

    # -- selection ---------------------------------------------------------

    def requested_backend(self) -> str:
        """The tier the process is asking for: override > env > auto."""
        if self._override is not None:
            return self._override
        raw = os.environ.get(BACKEND_ENV, "").strip().lower()
        return _choice(raw, BACKEND_ENV) if raw else "auto"

    def set_backend(self, backend: str | None) -> None:
        """Install a process-wide backend override (``None`` clears it)."""
        if backend is not None:
            backend = _choice(str(backend).strip().lower(), "backend")
        self._override = backend

    def current_override(self) -> str | None:
        return self._override

    def _chain(self, request: str) -> list[str]:
        """Tier names to try, in order, for a requested backend."""
        # An explicit tier starts there but still degrades downward so a
        # daemon configured for `native` keeps serving on a host without
        # a compiler — the degradation is observable via active().
        return list(TIER_ORDER[0 if request == "auto" else TIER_ORDER.index(request):])

    def resolve(self, kernel: str, backend: str | None = None) -> tuple[str, Callable]:
        """Pick ``(backend_name, impl)`` for one kernel call; under the
        process selection, once until that selection changes."""
        selection = None
        if backend is None:
            selection = (self._override, os.environ.get(BACKEND_ENV))
            bound = self._bound.get(kernel)
            if bound is not None and bound[0] == selection:
                return bound[1]
        self._ensure_defs()
        request = _choice(self.requested_backend() if backend is None else backend, "backend")
        for name in self._chain(request):
            be = self._backends.get(name)
            if be is None or not be.available() or (name, kernel) in self._tripped:
                continue
            fn = be.kernel(kernel)
            if fn is None:
                continue
            if selection is not None:
                with self._lock:  # a trip that raced this pick wins
                    if (name, kernel) not in self._tripped:
                        self._bound[kernel] = (selection, (name, fn))
            return name, fn
        raise KernelUnavailableError(
            f"no backend provides kernel {kernel!r} (requested {request!r})"
        )

    def tiers(self, kernels: tuple[str, ...]) -> tuple[str, ...]:
        """The tier each of ``kernels`` runs on now; the selection is read once."""
        selection = (self._override, os.environ.get(BACKEND_ENV))
        return tuple(b[1][0] if (b := self._bound.get(k)) and b[0] == selection
                     else self.resolve(k)[0] for k in kernels)

    # -- dispatch ----------------------------------------------------------

    def call(self, kernel: str, *args: Any, backend: str | None = None, **kwargs: Any):
        """Run ``kernel`` on the best available backend, degrading on
        call-time failure.

        :class:`~repro.errors.ReproError` subclasses other than
        :class:`KernelUnavailableError` (bad data, corrupt streams) are
        *results*, not backend failures — they propagate.  Anything else
        trips the (backend, kernel) pair and re-dispatches one tier down.
        """
        while True:
            name, fn = self.resolve(kernel, backend)
            try:
                result = fn(*args, **kwargs)
            except KernelUnavailableError as exc:
                if name == TIER_ORDER[-1]:
                    raise
                self._trip(name, kernel, str(exc))
                continue
            except ReproError:
                self._active[kernel] = name
                raise
            except Exception as exc:
                if name == TIER_ORDER[-1]:
                    # The bottom tier has no tier below it; a failure
                    # there is a real bug and must surface.
                    raise
                self._trip(name, kernel, f"{type(exc).__name__}: {exc}")
                continue
            self._active[kernel] = name
            return result

    def _trip(self, backend: str, kernel: str, reason: str) -> None:
        with self._lock:
            first = (backend, kernel) not in self._tripped
            self._tripped[(backend, kernel)] = reason
            self._bound.pop(kernel, None)
        if first:
            _LOG.warning(
                "kernel %s tripped on the %s tier (%s); now served by %s",
                kernel, backend, reason, self.resolve(kernel, backend)[0],
            )
        tm = get_telemetry()
        tm.count(f'kernels.fallback{{stage="{kernel}",backend="{backend}"}}')

    # -- introspection -----------------------------------------------------

    def active(self, backend: str | None = None) -> dict[str, str]:
        """Resolved backend per kernel under the current selection.

        Kernels that have already served a call report the tier that
        actually ran; the rest report what :meth:`resolve` would pick.
        """
        self._ensure_defs()
        out: dict[str, str] = {}
        for kernel in sorted(self._kernel_names()):
            try:
                out[kernel] = self.resolve(kernel, backend)[0]
            except KernelUnavailableError:  # pragma: no cover - numpy always there
                out[kernel] = "unavailable"
        return out

    def last_used(self) -> dict[str, str]:
        """Backend that served the most recent call, per kernel."""
        return dict(self._active)

    def tripped(self) -> dict[tuple[str, str], str]:
        return dict(self._tripped)

    def _kernel_names(self) -> set[str]:
        names: set[str] = set()
        for be in self._backends.values():
            names.update(be.impls)
        return names

    def publish_gauges(self, tm=None) -> dict[str, str]:
        """Export the resolved tier per kernel as labelled gauges.

        ``kernels.backend{stage=...}`` carries the numeric tier level
        (1=numpy, 2=native) and
        ``kernels.backend_info{stage=...,backend=...}`` is a constant-1
        info gauge, so both Prometheus consumers and the fleet view can
        show which tier each shard actually runs.
        """
        tm = tm if tm is not None else get_telemetry()
        mapping = self.active()
        for kernel, name in mapping.items():
            tm.set_gauge(
                f'kernels.backend{{stage="{kernel}"}}',
                float(TIER_LEVEL.get(name, -1)),
            )
            tm.set_gauge(
                f'kernels.backend_info{{backend="{name}",stage="{kernel}"}}', 1.0
            )
        return mapping

    def reset(self) -> None:
        """Clear tripped/active/probe state (test isolation)."""
        with self._lock:
            self._tripped.clear()
            self._active.clear()
            self._bound.clear()
        for be in self._backends.values():
            be.reset()


#: The process-wide registry instance.
REGISTRY = KernelRegistry()
