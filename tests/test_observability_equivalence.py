"""The names one request leaves behind are a contract.

One COMPRESS and one DECOMPRESS per codec, against an embedded daemon,
on the loop-thread path (16 KiB inline, native tier) and on the codec
pool (128 KiB inline): the metric names and the (span, parent span)
links they produce must be exactly the pinned sets below, which were
recorded before the request path's per-call costs were cut.  A change
that drops, renames or re-parents one fails here.
"""

import numpy as np
import pytest

from repro import kernels, telemetry
from repro.service import ServiceClient, ServiceThread

#: Metric names either path records.
METRICS = {
    "service.bytes_in", "service.bytes_out",
    'service.dispatch_ms{op="compress",compressor="sz"}',
    'service.dispatch_ms{op="compress",compressor="zfp"}',
    'service.dispatch_ms{op="compress"}',
    'service.dispatch_ms{op="decompress",compressor="sz"}',
    'service.dispatch_ms{op="decompress",compressor="zfp"}',
    'service.dispatch_ms{op="decompress"}',
    "service.latency_ms", 'service.latency_ms{op="compress"}',
    'service.latency_ms{op="decompress"}', 'service.latency_ms{op="hello"}',
    "service.requests", "service.requests.compress",
    "service.requests.decompress", "service.requests.hello",
    "service.requests_inflight",
    "sz.bytes_in", "sz.bytes_out", "sz.huffman_alphabet", "sz.outliers",
    "sz.payload_bytes",
    "zfp.block_used_bits", "zfp.bytes_in", "zfp.bytes_out", "zfp.emitted_bits",
    "zfp.padding_bits", "zfp.payload_bytes", "zfp.zero_blocks",
}

#: ... and the ones only a path records.
PATH_METRICS = {
    "loop": {'service.dispatches{path="loop"}'},
    "pool": {'service.dispatches{path="pool"}', "service.queue_depth"},
}

#: ``(span, parent span)`` on either tier: the client call, the daemon's
#: request, reply, queue-wait and dispatch spans, the fused codec stages.
LINKS = {
    ("client.compress", None), ("client.decompress", None),
    ("service.request", None),  # the HELLO, outside any client call
    ("service.request", "client.compress"),
    ("service.request", "client.decompress"),
    ("service.reply", "service.request"),
    ("service.queue_wait", "service.request"),
    ("service.dispatch", "service.request"),
    ("sz.encode", "service.dispatch"), ("sz.huffman", "service.dispatch"),
    ("sz.lossless", "service.dispatch"), ("sz.decode", "service.dispatch"),
    ("zfp.encode", "service.dispatch"), ("zfp.decode", "service.dispatch"),
}

#: The numpy tier's staged passes, nested under the fused spans.
NUMPY_LINKS = {
    ("sz.prequant", "sz.encode"), ("sz.predict", "sz.encode"),
    ("sz.predict", "sz.decode"),
    ("zfp.transform", "zfp.encode"), ("zfp.reorder", "zfp.encode"),
    ("zfp.bitplane", "zfp.encode"),
    ("zfp.bitplane", "zfp.decode"), ("zfp.reorder", "zfp.decode"),
    ("zfp.transform", "zfp.decode"),
}


def _native() -> bool:
    registry = kernels.KernelRegistry()
    registry.set_backend(kernels.requested_backend())
    return all(registry.resolve(k)[0] == "native" for k in kernels.active())


def _links(spans) -> set[tuple[str, str | None]]:
    by_id = {s.span_id: s for s in spans}
    by_ctx = {s.ctx_id: s for s in spans if s.ctx_id}
    links = set()
    for s in spans:
        parent = (by_id.get(s.parent_id) if s.parent_id is not None
                  else by_ctx.get(s.ctx_parent_id))
        links.add((s.name, parent.name if parent else None))
    return links


def _serve(side: int):
    """Metric names, span links and dispatch paths of one COMPRESS and
    one DECOMPRESS per codec of a ``side``³ float32 field."""
    field = (np.random.default_rng(7).standard_normal((side,) * 3) * 40
             ).astype(np.float32)
    with telemetry.enabled_telemetry("client") as tm:
        with ServiceThread() as st:
            with ServiceClient(port=st.port, shm=False) as client:
                for codec, mode, value in (("sz", "abs", 0.5),
                                           ("zfp", "fixed_rate", 8.0)):
                    client.decompress(
                        client.compress(field, codec, mode=mode, value=value))
        # The daemon has drained: every done-callback has run.
        spans = tm.tracer.finished_spans()
        return (set(tm.metrics.snapshot()), _links(spans),
                {s.attrs["path"] for s in spans if s.name == "service.dispatch"})


@pytest.mark.parametrize("side", [16, 32], ids=["16KiB", "128KiB"])
def test_names_and_links_are_the_pinned_sets(side):
    native = _native()
    path = "loop" if native and side == 16 else "pool"
    metrics, links, paths = _serve(side)
    assert paths == {path}
    assert metrics == METRICS | PATH_METRICS[path]
    assert links == (LINKS if native else LINKS | NUMPY_LINKS)
