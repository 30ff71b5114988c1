"""The kernel registry's binding table follows every selector.

A kernel's tier is picked once per selection and then served from the
binding table; these tests pin that the very next call after any change
of selection — :func:`repro.kernels.use`, ``set_backend``, the
``REPRO_BACKEND`` variable, a call-time trip, :meth:`reset` — runs on the
tier that selection asks for, and that racing first calls trip nothing.
The registries here are built from module-level demo kernels, so no C
compiler is needed.
"""

import threading
import time

import numpy as np
import pytest

from repro import kernels
from repro.compressors import get_compressor
from repro.errors import ConfigError
from repro.kernels.registry import BACKEND_ENV, Backend, KernelRegistry

#: Set to make the native demo kernel fail at call time.
FAIL = {"native": False}


def _numpy_tier():
    return "numpy"


def _native_tier():
    if FAIL["native"]:
        raise RuntimeError("native kernel exploded")
    return "native"


def _slow_probe():
    time.sleep(0.05)  # hold the first-use window open


def _registry(probe=None) -> KernelRegistry:
    reg = KernelRegistry()
    reg.register(Backend(name="numpy",
                         impls={"demo.k": "test_kernel_binding:_numpy_tier"}))
    reg.register(Backend(name="native", probe=probe,
                         impls={"demo.k": "test_kernel_binding:_native_tier"}))
    return reg


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)  # CI tier pins
    FAIL["native"] = False
    yield
    FAIL["native"] = False


def test_kernels_use_rebinds_the_next_call(monkeypatch):
    reg = _registry()
    monkeypatch.setattr(kernels, "REGISTRY", reg)
    assert reg.call("demo.k") == "native"
    with kernels.use("numpy"):
        assert reg.call("demo.k") == "numpy"
        with kernels.use("native"):
            assert reg.call("demo.k") == "native"
        assert reg.call("demo.k") == "numpy"
    assert reg.call("demo.k") == "native"


def test_set_backend_rebinds_the_next_call():
    reg = _registry()
    assert reg.resolve("demo.k")[0] == "native"
    reg.set_backend("numpy")
    assert reg.call("demo.k") == "numpy"
    reg.set_backend("auto")
    assert reg.call("demo.k") == "native"
    reg.set_backend(None)
    assert reg.call("demo.k") == "native"


def test_environment_rebinds_the_next_call(monkeypatch):
    reg = _registry()
    assert reg.call("demo.k") == "native"
    monkeypatch.setenv(BACKEND_ENV, "numpy")
    assert reg.call("demo.k") == "numpy"
    monkeypatch.setenv(BACKEND_ENV, " Native ")
    assert reg.call("demo.k") == "native"
    monkeypatch.setenv(BACKEND_ENV, "scalar")
    with pytest.raises(ConfigError, match=BACKEND_ENV):
        reg.call("demo.k")
    monkeypatch.delenv(BACKEND_ENV)
    assert reg.call("demo.k") == "native"
    # An override wins over the variable, and the variable is read again
    # once the override is gone.
    monkeypatch.setenv(BACKEND_ENV, "numpy")
    reg.set_backend("native")
    assert reg.call("demo.k") == "native"
    reg.set_backend(None)
    assert reg.call("demo.k") == "numpy"


def test_a_trip_rebinds_and_reset_restores():
    reg = _registry()
    assert reg.call("demo.k") == "native"
    FAIL["native"] = True
    assert reg.call("demo.k") == "numpy"  # tripped, re-dispatched
    assert ("native", "demo.k") in reg.tripped()
    FAIL["native"] = False
    assert reg.call("demo.k") == "numpy"  # stays tripped
    assert reg.last_used() == {"demo.k": "numpy"}
    reg.reset()
    assert reg.call("demo.k") == "native"


def test_an_explicit_backend_bypasses_the_binding():
    reg = _registry()
    assert reg.call("demo.k") == "native"
    assert reg.call("demo.k", backend="numpy") == "numpy"
    assert reg.call("demo.k") == "native"


def test_concurrent_first_calls_trip_nothing():
    reg = _registry(probe=_slow_probe)
    barrier = threading.Barrier(4)
    results = []

    def first_call():
        barrier.wait()
        results.append(reg.call("demo.k"))

    threads = [threading.Thread(target=first_call) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert results == ["native"] * 4
    assert reg.tripped() == {}
    assert reg.resolve("demo.k")[0] == "native"


def test_a_shadowed_registry_call_sees_every_codec_kernel():
    # An instance attribute shadowing ``REGISTRY.call`` is how a tracer
    # or a benchmark intercepts kernels: every codec dispatch must reach it.
    field = np.random.default_rng(3).standard_normal((16, 16, 16)).astype(np.float32)
    seen = set()
    original = kernels.REGISTRY.call

    def capturing(kernel, *args, **kwargs):
        seen.add(kernel)
        return original(kernel, *args, **kwargs)

    kernels.REGISTRY.call = capturing
    try:
        for name, knobs in (("sz", {"error_bound": 0.5}), ("zfp", {"rate": 8.0})):
            codec = get_compressor(name)
            codec.decompress(codec.compress(field, **knobs))
    finally:
        del kernels.REGISTRY.call
    assert seen >= {"sz.encode", "sz.decode", "huffman.code", "huffman.encode",
                    "huffman.decode", "zfp.encode", "zfp.decode"}


def test_tiers_follow_every_selector(monkeypatch):
    # ``tiers`` reads the selection once for several kernels and must
    # see each selector change on the very next call, as ``resolve`` does.
    reg = _registry()
    assert reg.tiers(("demo.k", "demo.k")) == ("native", "native")
    reg.set_backend("numpy")
    assert reg.tiers(("demo.k",)) == ("numpy",)
    reg.set_backend(None)
    monkeypatch.setenv(BACKEND_ENV, "numpy")
    assert reg.tiers(("demo.k",)) == ("numpy",)
    monkeypatch.delenv(BACKEND_ENV)
    assert reg.tiers(("demo.k",)) == ("native",)


@pytest.mark.parametrize("name,knobs", [("sz", {"error_bound": 0.05}),
                                        ("zfp", {"rate": 8.0})])
def test_a_read_only_input_gives_the_same_stream_on_the_native_tier(name, knobs):
    # A request's payload reaches the codec as a read-only view of the
    # frame's bytes; the native wrappers take its address without
    # ``arr.ctypes`` and must produce the bytes a writable copy does.
    from repro.kernels import native

    if not kernels.REGISTRY.backends()["native"].available():
        pytest.skip("native tier unavailable")
    field = np.random.default_rng(5).standard_normal((16, 16, 16)).astype(np.float32)
    raw = field.tobytes()
    view = np.frombuffer(raw, dtype=np.float32).reshape(field.shape)
    assert not view.flags.writeable and native._p(view) is raw
    offset = np.frombuffer(raw, dtype=np.float32, offset=4)  # not the whole buffer
    assert native._p(offset) == offset.ctypes.data
    with kernels.use("native"):
        codec = get_compressor(name)
        assert codec.compress(view, **knobs).payload \
            == codec.compress(field.copy(), **knobs).payload
