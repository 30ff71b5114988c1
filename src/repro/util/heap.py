"""Pin glibc's malloc thresholds so field-sized temporaries are recycled.

Every codec call allocates and frees a handful of whole-field numpy
temporaries (1-30 MiB for the fields this package sees).  glibc serves a
block above its *mmap threshold* with a fresh ``mmap`` and returns heap
memory above its *trim threshold* to the kernel on ``free``; either way
the next call page-faults the same megabytes in again.  By default both
thresholds are dynamic — they follow the largest mmapped block freed so
far — so whether a process recycles its temporaries depends on which
call it happened to make first: the same 1 MiB SZ decompress costs 8 ms
with no page faults, or 13 ms with ~1100 of them, and which of the two
can change from one run of the same program to the next.

:func:`steady_heap` pins both thresholds at the ceilings the dynamic
policy can itself reach on 64-bit glibc (32 MiB / 64 MiB), which makes
the allocator's behaviour independent of call history.  It is called
once when :mod:`repro.compressors` is imported, does nothing on other
C libraries, and leaves the thresholds alone when the process owner has
already chosen them (``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_``
or a ``glibc.malloc`` entry in ``GLIBC_TUNABLES``).
"""

from __future__ import annotations

import ctypes
import os

#: ``mallopt`` parameter numbers from glibc's ``<malloc.h>``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: glibc's ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit, and twice that —
#: where the dynamic thresholds end up after one 32 MiB block is freed.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20

_USER_KNOBS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def steady_heap() -> bool:
    """Pin the thresholds; True when glibc accepted both."""
    if any(k in os.environ for k in _USER_KNOBS) \
            or "glibc.malloc" in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # not glibc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
