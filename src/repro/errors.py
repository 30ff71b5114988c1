"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration file or parameter set is invalid."""


class CompressionError(ReproError):
    """A compressor failed to compress or decompress a buffer."""


class CorruptStreamError(CompressionError):
    """A compressed stream failed validation (bad magic, truncation, CRC)."""


class UnsupportedModeError(CompressionError):
    """The requested compression mode is not supported by this compressor.

    Mirrors the real-world constraints the paper works around: GPU-SZ only
    supports ABS mode on 3-D data, and cuZFP only supports fixed-rate mode.
    """


class DataError(ReproError):
    """Input data does not satisfy the requirements of an operation."""


class ScheduleError(ReproError):
    """A PAT workflow is malformed (cycles, missing dependencies)."""


class AnalysisError(ReproError):
    """A post-hoc analysis (power spectrum, halo finding) failed."""


class KernelUnavailableError(ReproError):
    """A kernel backend cannot run in this process (missing compiler or
    optional dependency, failed probe).  The registry treats it as a
    signal to fall back one tier, never as a user-facing failure."""


class ProtocolError(ReproError):
    """A service wire frame is malformed (bad magic, oversized, truncated)."""


class ServiceError(ReproError):
    """The compression service returned an error reply or misbehaved.

    ``code`` is the machine-readable reply code, where one applies.
    """

    def __init__(self, *args: object, code: str | None = None) -> None:
        super().__init__(*args)
        self.code = code


class ServiceBusyError(ServiceError):
    """The daemon's admission queue was full and retries were exhausted."""
