"""The malloc-threshold pin that keeps codec temporaries recycled."""

import ctypes
import os
import subprocess
import sys
import textwrap

import pytest

from repro.util import heap

try:
    ctypes.CDLL(None).mallopt
except (OSError, TypeError, AttributeError):
    pytest.skip("no mallopt in this C library", allow_module_level=True)


def test_pins_both_thresholds(monkeypatch):
    for name in (*heap._USER_KNOBS, "GLIBC_TUNABLES"):
        monkeypatch.delenv(name, raising=False)
    assert heap.steady_heap() is True


@pytest.mark.parametrize("name,value", [
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
])
def test_process_owner_settings_win(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert heap.steady_heap() is False


_MIXED_LOOP = textwrap.dedent("""
    import resource
    import numpy as np
    from repro.compressors import get_compressor

    rng = np.random.default_rng(0)
    cube = rng.standard_normal((64, 64, 64)).cumsum(axis=0).astype(np.float32)
    line = np.ascontiguousarray(cube.reshape(-1))
    sz, zfp = get_compressor("sz"), get_compressor("zfp")
    calls = [
        lambda: zfp.decompress(zfp.compress(cube, mode="fixed_rate", rate=8.0)),
        lambda: sz.decompress(sz.compress(cube, mode="abs", error_bound=0.05)),
        lambda: zfp.decompress(zfp.compress(line, mode="fixed_rate", rate=4.0)),
        lambda: sz.decompress(sz.compress(line, mode="pw_rel", pwrel=0.1)),
    ]

    def cycles(n):
        for _ in range(n):
            for call in calls:
                call()

    cycles(3)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cycles(5)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    print((after - before) // (5 * len(calls)))
""")


def test_codec_calls_do_not_refault_their_temporaries():
    """Without the pin a warm SZ/ZFP mix on 1 MiB fields takes 3700-5000
    minor page faults a call (glibc trims and re-grows the heap); with it
    0 on the native tier and ~170 on the numpy tier, whose ZFP bit arrays
    exceed the 32 MiB mmap ceiling."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for name in (*heap._USER_KNOBS, "GLIBC_TUNABLES"):
        env.pop(name, None)
    done = subprocess.run([sys.executable, "-c", _MIXED_LOOP], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 500
