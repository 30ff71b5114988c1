"""Native (compiled) kernel tier.

A small C library (:mod:`repro.kernels._csource`) compiled on demand
with the system C compiler and loaded through :mod:`ctypes`.  The
shared object is cached under ``$REPRO_KERNEL_CACHE`` (default
``~/.cache/repro-kernels``) keyed by a hash of the source, the compiler
and the flags, so compilation happens once per machine, not per process.

When the library cannot be built or loaded (no compiler, compile
failure) every entry point raises
:class:`~repro.errors.KernelUnavailableError`, which the registry treats
as "fall back one tier" — importing this module never hard-fails.

All wrappers implement exactly the same contracts as their scalar and
numpy counterparts (same arguments, same return types, same error
classes and messages) so the registry can swap them freely; bit-exactness
is enforced by the parity matrix in ``tests/test_fastpath_equivalence.py``.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import tempfile

import numpy as np

from repro.errors import CorruptStreamError, DataError, KernelUnavailableError
from repro.kernels._csource import C_SOURCE

#: Directory caching the compiled shared object across processes.
CACHE_ENV = "REPRO_KERNEL_CACHE"

#: No ``-march``: the cached object must run on every host sharing the
#: cache.  ``-fwrapv`` makes the ZFP lifting steps' int64 arithmetic wrap
#: like numpy's instead of being undefined on damaged streams.
_CFLAGS = ("-O2", "-fwrapv", "-fPIC", "-shared")

_I64, _F64, _INT, _PTR = (
    ctypes.c_int64, ctypes.c_double, ctypes.c_int, ctypes.c_void_p,
)
_SIGNATURES = {
    "repro_lorenzo_dualquant": ([_PTR, _PTR, _I64, _I64, _I64, _I64, _F64], _I64),
    "repro_lorenzo_reconstruct": ([_PTR, _I64, _I64, _I64, _I64], None),
    "repro_pack_varlen": ([_PTR, _PTR, _I64, _PTR], _I64),
    "repro_huffman_symbol_bits": ([_PTR, _I64, _PTR], _I64),
    "repro_huffman_encode": ([_PTR, _I64, _PTR, _PTR, _I64, _PTR, _PTR], _I64),
    "repro_huffman_decode":
        ([_PTR, _I64, _PTR, _I64, _I64, _I64, _PTR, _PTR, _I64, _I64, _PTR],
         _I64),
    "repro_zfp_encode":
        ([_PTR, _INT, _INT, _PTR, _PTR, _INT, _I64, _I64, _INT,
          _PTR, _PTR, _PTR, _PTR], _I64),
    "repro_zfp_decode":
        ([_PTR, _I64, _PTR, _I64, _PTR, _INT, _INT, _PTR, _PTR, _INT,
          _I64, _INT], _I64),
}

_state: dict = {"probed": False, "lib": None, "error": None}


# -- build and load ----------------------------------------------------------


def _cache_dir() -> str:
    base = os.environ.get(CACHE_ENV, "").strip()
    if base:
        return base
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-kernels")


def _find_compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand:
            path = shutil.which(cand)
            if path:
                return path
    return None


def _build_clib() -> ctypes.CDLL:
    """Compile (once, cached) and load the C kernel library."""
    cc = _find_compiler()
    if cc is None:
        raise KernelUnavailableError("no C compiler (cc/gcc/clang) on PATH")
    digest = hashlib.sha256(
        "\x00".join((cc, *_CFLAGS, C_SOURCE)).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    sopath = os.path.join(cache, f"repro_kernels_{digest}.so")
    if not os.path.exists(sopath):
        try:
            os.makedirs(cache, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                src = os.path.join(tmp, "kernels.c")
                out = os.path.join(tmp, "kernels.so")
                with open(src, "w") as fh:
                    fh.write(C_SOURCE)
                proc = subprocess.run(
                    [cc, *_CFLAGS, "-o", out, src, "-lm"],
                    capture_output=True, text=True, timeout=300,
                )
                if proc.returncode != 0:
                    raise KernelUnavailableError(
                        f"kernel compile failed: {proc.stderr.strip()[:500]}"
                    )
                os.replace(out, sopath)  # atomic: concurrent builders race safely
        except KernelUnavailableError:
            raise
        except Exception as exc:
            raise KernelUnavailableError(f"kernel build failed: {exc}") from exc
    try:
        lib = ctypes.CDLL(sopath)
    except OSError as exc:
        raise KernelUnavailableError(f"cannot load {sopath}: {exc}") from exc
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def _resolve() -> ctypes.CDLL:
    """Build/load the library once per process and memoize the outcome."""
    if not _state["probed"]:
        _state["probed"] = True
        try:
            _state["lib"] = _build_clib()
        except Exception as exc:
            _state["error"] = KernelUnavailableError(
                f"native kernel tier unavailable (cc: {exc})"
            )
    if _state["error"] is not None:
        raise _state["error"]
    return _state["lib"]


def probe() -> None:
    """Registry availability hook: raises KernelUnavailableError if the
    C library cannot be built or loaded here."""
    _resolve()


def flavor() -> str:
    """The native implementation this process runs (always ``"cc"``);
    raises :class:`KernelUnavailableError` when there is none."""
    _resolve()
    return "cc"


def reset() -> None:
    """Forget the memoized library (tests re-probing under a new env)."""
    _state.update(probed=False, lib=None, error=None)


def _p(arr: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(arr.ctypes.data)


# -- kernel wrappers ---------------------------------------------------------


def _block_dims(shape: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(nblocks, b0, b1, b2) for a (nblocks, *block_shape) batch array."""
    nblocks = shape[0]
    dims = list(shape[1:]) + [1] * (3 - len(shape[1:]))
    return nblocks, dims[0], dims[1], dims[2]


def lorenzo_dualquant(blocks: np.ndarray, error_bound: float) -> np.ndarray:
    """Fused prequantize + Lorenzo residual (``sz.lorenzo`` kernel)."""
    lib = _resolve()
    if error_bound <= 0 or not np.isfinite(error_bound):
        raise DataError(
            f"error bound must be a positive finite float, got {error_bound}"
        )
    if blocks.ndim - 1 not in (1, 2, 3):
        raise DataError(f"expected (nblocks, ...) batch, got shape {blocks.shape}")
    data = np.ascontiguousarray(blocks, dtype=np.float64)
    out = np.empty(data.shape, dtype=np.int64)
    if data.size:
        nblocks, b0, b1, b2 = _block_dims(data.shape)
        overflow = lib.repro_lorenzo_dualquant(
            _p(data), _p(out), nblocks, b0, b1, b2, 2.0 * error_bound,
        )
        if overflow:
            raise DataError(
                "error bound too small relative to data magnitude (int64 overflow)"
            )
    return out


def lorenzo_reconstruct(residual: np.ndarray) -> np.ndarray:
    """Iterated cumulative sum (``sz.lorenzo_inverse`` kernel)."""
    lib = _resolve()
    q = np.ascontiguousarray(residual, dtype=np.int64).copy()
    if q.size:
        nblocks, b0, b1, b2 = _block_dims(q.shape)
        lib.repro_lorenzo_reconstruct(_p(q), nblocks, b0, b1, b2)
    return q


def pack_varlen(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """MSB-first variable-length bit packing (``pack.varlen`` kernel)."""
    lib = _resolve()
    if codes.size == 0:
        return b"", 0
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    out = np.zeros((total + 7) // 8, dtype=np.uint8)
    lib.repro_pack_varlen(_p(codes), _p(lengths), codes.size, _p(out))
    return out.tobytes(), total


def huffman_encode(
    symbols: np.ndarray, codes: np.ndarray, lengths: np.ndarray, chunk_size: int
) -> tuple[bytes, int, np.ndarray]:
    """Fused symbol->codeword bit packing plus the per-chunk bit-offset
    table (``huffman.encode`` kernel)."""
    lib = _resolve()
    symbols = np.ascontiguousarray(symbols, dtype=np.int64)
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    len_u8 = np.ascontiguousarray(lengths, dtype=np.uint8)
    n = symbols.size
    nchunks = max(1, -(-n // chunk_size))
    chunk_offsets = np.zeros(nchunks, dtype=np.uint64)
    if n == 0:
        return b"", 0, chunk_offsets
    total = int(lib.repro_huffman_symbol_bits(_p(symbols), n, _p(len_u8)))
    out = np.zeros((total + 7) // 8, dtype=np.uint8)
    lib.repro_huffman_encode(
        _p(symbols), n, _p(codes), _p(len_u8), chunk_size,
        _p(chunk_offsets), _p(out),
    )
    return out.tobytes(), total, chunk_offsets


def huffman_decode(
    body: bytes,
    table_sym: np.ndarray,
    table_len: np.ndarray,
    chunk_offsets: np.ndarray,
    n: int,
    chunk_size: int,
    max_len: int,
    total_bits: int,
) -> np.ndarray:
    """Chunk-parallel dense-table decode (``huffman.decode`` kernel)."""
    lib = _resolve()
    body_arr = np.frombuffer(body, dtype=np.uint8)
    table_sym = np.ascontiguousarray(table_sym, dtype=np.int64)
    table_len = np.ascontiguousarray(table_len, dtype=np.int64)
    chunk_offsets = np.ascontiguousarray(chunk_offsets, dtype=np.int64)
    out = np.empty(n, dtype=np.int64)
    code = lib.repro_huffman_decode(
        _p(body_arr), body_arr.size, _p(chunk_offsets), chunk_offsets.size,
        chunk_size, n, _p(table_sym), _p(table_len), max_len, total_bits,
        _p(out),
    )
    if code == 1:
        raise CorruptStreamError("invalid codeword in Huffman stream")
    if code == 2:
        raise CorruptStreamError("Huffman decode overran declared bit length")
    return out


def _zfp_geometry(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    """(shape as int64 array, sequency permutation, block count)."""
    from repro.compressors.zfp.transform import sequency_order

    nblocks = math.prod(-(-s // 4) for s in shape)
    return np.array(shape, dtype=np.int64), sequency_order(len(shape)), nblocks


def zfp_encode(
    data: np.ndarray, planes: int, maxbits: int, kmin_rule: tuple[int, bool]
) -> tuple[bytes, int, np.ndarray, np.ndarray, np.ndarray]:
    """One-pass fused block coder (``zfp.encode`` kernel); the contract
    is spelled out in :mod:`repro.compressors.zfp.staged`."""
    lib = _resolve()
    data = np.ascontiguousarray(data)
    shape, perm, nblocks = _zfp_geometry(data.shape)
    size = 4 ** data.ndim
    # Worst case per block: header, then per plane at most `size` value
    # bits, `size` group-test bits and one terminating test bit.
    block_bits = maxbits if maxbits else 13 + planes * (2 * size + 1)
    out = np.empty((nblocks * block_bits + 7) // 8, dtype=np.uint8)
    offsets = np.empty(nblocks + 1, dtype=np.uint64)
    used_bits = np.empty(nblocks, dtype=np.int64)
    nonzero = np.empty(nblocks, dtype=np.bool_)
    nbits = lib.repro_zfp_encode(
        _p(data), data.dtype == np.float32, data.ndim, _p(shape), _p(perm),
        planes, maxbits, kmin_rule[0], kmin_rule[1],
        _p(out), _p(offsets), _p(used_bits), _p(nonzero),
    )
    return out[: (nbits + 7) // 8].tobytes(), nbits, offsets, used_bits, nonzero


def zfp_decode(
    body: bytes,
    offsets: np.ndarray | int,
    shape: tuple[int, ...],
    dtype: np.dtype,
    planes: int,
    kmin_rule: tuple[int, bool],
) -> np.ndarray:
    """Mirror of :func:`zfp_encode` (``zfp.decode`` kernel); the contract
    is spelled out in :mod:`repro.compressors.zfp.staged`."""
    lib = _resolve()
    body_arr = np.frombuffer(body, dtype=np.uint8)
    shape_arr, perm, nblocks = _zfp_geometry(shape)
    if isinstance(offsets, int):
        table, maxbits, end = None, offsets, nblocks * offsets
    else:
        table = np.ascontiguousarray(offsets, dtype=np.int64)
        maxbits, end = 0, int(table[-1])
    # The kernel reads whole words; never hand it spans the body lacks.
    if (table is not None and table.size != nblocks + 1) or end > 8 * body_arr.size:
        raise CorruptStreamError("ZFP stream truncated (body)")
    out = np.empty(shape, dtype=dtype)
    code = lib.repro_zfp_decode(
        _p(body_arr), body_arr.size, None if table is None else _p(table),
        maxbits, _p(out), out.dtype == np.float32, len(shape), _p(shape_arr),
        _p(perm), planes, kmin_rule[0], kmin_rule[1],
    )
    if code == 1:
        raise CorruptStreamError("non-increasing ZFP block offsets")
    if code == 2:
        raise CorruptStreamError("ZFP block bit budget overrun")
    return out
