"""Seeded inputs, operating points, schedules, references and the checker.

Inputs come only from ``repro.cosmo`` generators driven by the seed.
References (compressed bytes, reconstruction) come from the in-process
library once per (field, operating point) cell during set-up; every
reply of the window is then compared byte for byte against them, and a
cell whose reference reconstruction breaks the codec's pointwise bound
fails every op that touches it.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field

import numpy as np

from catalog import ABS_RANGE_FRACTION
from repro.compressors import TemporalCompressor, get_compressor
from repro.compressors.base import CompressedBuffer
from repro.cosmo import make_hacc_dataset, make_nyx_dataset, make_nyx_series

#: Temporal stream shape: snapshots per cycle (a multiple of the keyframe
#: period, so the cyclic stream re-anchors exactly where it wraps).
SERIES_LENGTH = 16
KEYFRAME_EVERY = 8
SERIES_FIELD = "baryon_density"


@dataclass(frozen=True)
class OpPoint:
    key: str
    compressor: str
    mode: str
    knob: str  # library keyword carrying the value
    value: float | None  # None: ABS_RANGE_FRACTION of the field's range

    def resolve(self, data: np.ndarray) -> float:
        if self.value is not None:
            return self.value
        return ABS_RANGE_FRACTION * float(data.max() - data.min())


OP_POINTS = {
    p.key: p for p in (
        OpPoint("sz.abs", "sz", "abs", "error_bound", None),
        OpPoint("sz.pwrel", "sz", "pw_rel", "pwrel", 0.1),
        OpPoint("zfp.rate4", "zfp", "fixed_rate", "rate", 4.0),
        OpPoint("zfp.rate8", "zfp", "fixed_rate", "rate", 8.0),
    )
}


@dataclass
class Cell:
    """One (field, operating point) pair with its library references."""

    field: str
    data: np.ndarray
    op: OpPoint
    value: float
    buf: CompressedBuffer | None = None  # library result (payload = reference)
    recon: np.ndarray | None = None
    bound_ok: bool = True

    @property
    def key(self) -> str:
        return f"{self.field}@{self.op.key}"


@dataclass
class Inputs:
    """Everything one workload run consumes, all derived from the seed."""

    cells: list[Cell]
    series: list[np.ndarray] = field(default_factory=list)
    series_value: float = 0.0
    #: Per step of one series cycle: parsed TMP1 reference frames
    #: ``(head, keyframe, inner payload)`` and stream sizes.
    series_frames: list[tuple[dict, bool, bytes]] = field(default_factory=list)
    series_nbytes_out: list[int] = field(default_factory=list)
    series_step_s: list[float] = field(default_factory=list)  # library timing
    series_bound_ok: bool = True
    independent_nbytes_out: int = 0
    gen_s: float = 0.0


def _fields_for(workload: str, seed: int) -> dict[str, np.ndarray]:
    def nyx(side: int) -> dict[str, np.ndarray]:
        ds = make_nyx_dataset(grid_size=side, seed=seed)
        return {f"nyx.{k}": v for k, v in sorted(ds.fields.items())}

    def hacc(side: int) -> dict[str, np.ndarray]:
        ds = make_hacc_dataset(particles_per_side=side, seed=seed)
        return {f"hacc.{k}": v for k, v in sorted(ds.fields.items())}

    if workload == "lib_codec":
        return {**nyx(64), **hacc(64)}
    if workload == "svc_small":
        return nyx(16)
    if workload == "svc_bulk":
        return nyx(96)
    if workload == "routed_insitu":
        particles = hacc(32)
        return {**nyx(32), "hacc.vx": particles["hacc.vx"],
                "hacc.x": particles["hacc.x"]}
    raise ValueError(f"unknown workload {workload!r}")


_POINTS_FOR = {
    "lib_codec": ("sz.abs", "sz.pwrel", "zfp.rate4", "zfp.rate8"),
    "svc_small": ("sz.abs", "zfp.rate8"),
    "svc_bulk": ("sz.abs", "sz.pwrel", "zfp.rate4"),
    "routed_insitu": ("sz.abs", "zfp.rate8"),
}


def generate(workload: str, seed: int, with_series: bool = False) -> Inputs:
    """Fields and cells for ``workload`` (references not yet computed)."""
    t0 = time.perf_counter()
    fields = _fields_for(workload, seed)
    inputs = Inputs(cells=[
        Cell(name, data, OP_POINTS[p], OP_POINTS[p].resolve(data))
        for name, data in fields.items() for p in _POINTS_FOR[workload]
    ])
    if with_series:
        side = 64 if workload == "lib_codec" else 48
        series = make_nyx_series(
            grid_size=side, n_snapshots=SERIES_LENGTH, seed=seed
        )
        inputs.series = [s.fields[SERIES_FIELD] for s in series.snapshots]
        last = inputs.series[-1]
        inputs.series_value = ABS_RANGE_FRACTION * float(last.max() - last.min())
    inputs.gen_s = time.perf_counter() - t0
    return inputs


# -- pointwise bounds ----------------------------------------------------------


def bound_holds(data: np.ndarray, recon: np.ndarray, mode: str,
                value: float) -> bool:
    """The codec's pointwise contract, in float64.

    ABS: ``|x - x'| <= eb + one float32 ulp at max|x|`` — the slack the
    cast of the reconstruction to float32 costs (``tests/conftest.py::
    ulp_tolerance``).  PW_REL: ``|x - x'| <= eps*|x|`` plus the same slack.
    Fixed-rate modes promise no bound.
    """
    if mode not in ("abs", "pw_rel"):
        return True
    x = data.astype(np.float64)
    err = np.abs(x - recon.astype(np.float64))
    slack = float(np.spacing(np.abs(data.astype(np.float32)).max()))
    if mode == "abs":
        return bool(err.max() <= value + slack)
    return bool(np.all(err <= value * np.abs(x) + slack))


# -- references ---------------------------------------------------------------


def compute_references(inputs: Inputs, bound_scale: float = 1.0) -> None:
    """Fill every cell's library result; ``bound_scale`` < 1 is the
    selftest's way of making the bound check fail on purpose."""
    for cell in inputs.cells:
        codec = get_compressor(cell.op.compressor)
        cell.buf = codec.compress(
            cell.data, mode=cell.op.mode, **{cell.op.knob: cell.value}
        )
        cell.buf.meta["compressor"] = cell.op.compressor
        cell.recon = codec.decompress(cell.buf)
        cell.bound_ok = bound_holds(
            cell.data, cell.recon, cell.op.mode, cell.value * bound_scale
        )
    if not inputs.series:
        return
    temporal = TemporalCompressor(inner="sz", keyframe_every=KEYFRAME_EVERY)
    independent = get_compressor("sz")
    for snap in inputs.series:
        t0 = time.perf_counter()
        buf = temporal.compress(snap, mode="abs", error_bound=inputs.series_value)
        inputs.series_step_s.append(time.perf_counter() - t0)
        inputs.series_frames.append(TemporalCompressor.parse_frame(buf.payload))
        inputs.series_nbytes_out.append(len(buf.payload))
        recon = temporal.decompress(buf)
        inputs.series_bound_ok &= bound_holds(
            snap, recon, "abs", inputs.series_value * bound_scale
        )
        inputs.independent_nbytes_out += len(independent.compress(
            snap, mode="abs", error_bound=inputs.series_value).payload)


def check_compress(cell: Cell, buf: CompressedBuffer) -> bool:
    return cell.bound_ok and buf.payload == cell.buf.payload


def check_decompress(cell: Cell, out: np.ndarray) -> bool:
    ref = cell.recon
    return (
        cell.bound_ok
        and out.dtype == ref.dtype and out.shape == ref.shape
        and out.tobytes() == ref.tobytes()
    )


def check_step(inputs: Inputs, step: int, stream: bytes) -> bool:
    """A session/temporal frame equals the library's frame for this place
    in the cycle, up to the running step counter in its header."""
    head, keyframe, inner = TemporalCompressor.parse_frame(stream)
    ref_head, ref_keyframe, ref_inner = inputs.series_frames[step % SERIES_LENGTH]
    return (
        inputs.series_bound_ok
        and head.get("step") == step
        and {**head, "step": ref_head["step"]} == ref_head
        and keyframe == ref_keyframe
        and inner == ref_inner
    )


# -- schedule -----------------------------------------------------------------


def make_schedules(inputs: Inputs, workload: str, seed: int,
                   callers: int) -> list[list[int]]:
    """Per caller, one cycle of cell indices in a seeded order."""
    schedules = []
    for caller in range(callers):
        order = list(range(len(inputs.cells)))
        random.Random(f"{seed}:{workload}:{caller}").shuffle(order)
        schedules.append(order)
    return schedules


def schedule_digest(inputs: Inputs, schedules: list[list[int]],
                    with_series: bool) -> str:
    """Digest of what will be sent, in what order, with what data."""
    h = hashlib.blake2b(digest_size=8)
    h.update(json.dumps(
        [[inputs.cells[i].key for i in order] for order in schedules]
    ).encode())
    for cell in inputs.cells:
        h.update(f"{cell.value!r}".encode())
    seen = set()
    for cell in inputs.cells:
        if cell.field not in seen:
            seen.add(cell.field)
            h.update(np.ascontiguousarray(cell.data).tobytes())
    for snap in inputs.series if with_series else ():
        h.update(np.ascontiguousarray(snap).tobytes())
    return h.hexdigest()
