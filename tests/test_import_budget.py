"""Role import budget: each process role loads only what it runs.

A simulation rank that loads the codecs in situ, and every daemon, shard
or router restart, pays its imports as cold-start time.  These tests
spawn fresh interpreters and assert that the heavy stacks a role never
runs — scipy, the cosmology and analysis layers, the process executor —
stay out of ``sys.modules``; and that every name a package exports
lazily (PEP 562) still resolves and is listed by ``dir()``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CODEC_FORBIDDEN = (
    "scipy", "repro.cosmo", "repro.foresight", "repro.metrics",
    "repro.analysis", "repro.service", "repro.parallel.executor",
)
DAEMON_FORBIDDEN = (
    "scipy", "repro.cosmo", "repro.foresight", "repro.metrics",
    "repro.analysis", "repro.experiments",
)

#: Packages whose ``__init__`` resolves some exports on first access.
LAZY_PACKAGES = ("repro.compressors", "repro.parallel", "repro.telemetry")


def _loaded_after(statement: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter after ``statement``."""
    code = f"import sys, json\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def _hits(modules: list[str], prefixes: tuple[str, ...]) -> list[str]:
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


@pytest.mark.parametrize("statement", ["import repro.compressors", "import repro"])
def test_library_role_loads_only_the_codec_stack(statement):
    assert _hits(_loaded_after(statement), CODEC_FORBIDDEN) == []


def test_daemon_role_loads_no_analysis_stack():
    assert _hits(_loaded_after("import repro.service.cli"), DAEMON_FORBIDDEN) == []


def test_daemon_serving_codec_requests_stays_lean():
    # Only SWEEP (and FoF) calls may pull the analysis stack in.
    loaded = _loaded_after(
        "import numpy as np\n"
        "from repro.service import ServiceClient, ServiceThread\n"
        "with ServiceThread(port=0) as svc, ServiceClient(port=svc.port) as c:\n"
        "    c.decompress(c.compress(np.ones(4096, np.float32), 'sz', value=1e-3))\n"
        "    c.stats()"
    )
    assert "repro.service.server" in loaded
    assert _hits(loaded, DAEMON_FORBIDDEN) == []


def test_no_module_imports_scipy_at_import_time():
    # scipy is loaded by the FoF and SSIM calls alone, never by an import.
    loaded = _loaded_after(
        "import importlib, pkgutil, repro\n"
        "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not m.name.endswith('__main__'):\n"
        "        importlib.import_module(m.name)"
    )
    assert "repro.cosmo.fof" in loaded
    assert _hits(loaded, ("scipy",)) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    mod = importlib.import_module(package)
    listed = dir(mod)
    for name in mod.__all__:
        assert getattr(mod, name) is not None, name
        assert name in listed, name


def test_lazy_submodule_is_the_module():
    from repro import telemetry
    from repro.telemetry import export

    assert telemetry.export is export
    assert "export" in dir(telemetry)


def test_unknown_name_is_an_attribute_error():
    import repro.compressors

    with pytest.raises(AttributeError, match="no_such_codec"):
        repro.compressors.no_such_codec  # noqa: B018


def test_chunked_compressor_resolves_and_round_trips():
    import repro.compressors
    from repro.compressors.streaming import ChunkedCompressor

    assert repro.compressors.ChunkedCompressor is ChunkedCompressor
    field = np.linspace(0.0, 1.0, 4096, dtype=np.float32)
    codec = ChunkedCompressor(repro.compressors.get_compressor("sz"),
                              chunk_size=1024)
    buf = codec.compress(field, mode="abs", error_bound=1e-3)
    assert np.max(np.abs(codec.decompress(buf) - field)) <= 1e-3


def test_fof_finds_groups():
    pytest.importorskip("scipy")
    from repro.cosmo import friends_of_friends

    pos = np.array([[1.0, 1.0, 1.0], [1.1, 1.0, 1.0], [5.0, 5.0, 5.0]])
    result = friends_of_friends(pos, box_size=10.0, linking_length=0.2)
    assert result.n_groups == 2
    assert result.labels[0] == result.labels[1] != result.labels[2]


def test_ssim_on_a_small_array():
    pytest.importorskip("scipy")
    from repro.metrics.ssim import ssim3d

    field = np.random.default_rng(3).random((8, 8, 8))
    assert ssim3d(field, field) == pytest.approx(1.0)
    assert ssim3d(field, field + 0.1 * np.sin(field * 40)) < 1.0
