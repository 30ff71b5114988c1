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

All wrappers implement exactly the same contracts as their numpy
counterparts (same arguments, same return types, same error
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
import threading
from functools import lru_cache

import numpy as np

from repro.compressors.sz.staged import check_sections
from repro.errors import CorruptStreamError, DataError, KernelUnavailableError
from repro.kernels._csource import C_SOURCE
from repro.lossless.huffman import KRAFT, TOO_LONG, check_max_len, fit_error, symbol_dtype

#: Directory caching the compiled shared object across processes.
CACHE_ENV = "REPRO_KERNEL_CACHE"

#: No ``-march``: the cached object must run on every host sharing the
#: cache.  ``-fwrapv`` makes the ZFP lifting steps' and the SZ Lorenzo
#: differences' int64 arithmetic wrap like numpy's instead of being
#: undefined on damaged streams.  ``-ffp-contract=off``: the SZ kernels
#: repeat numpy's float64 ``a * b`` then ``+ c`` chains (regression fit,
#: prediction, dequantization) and must round the product and the sum
#: separately, as numpy does; GCC's default ``-ffp-contract=fast`` fuses
#: them into one fma wherever the target has the instruction (aarch64
#: always, x86-64 only with ``-march``), which changes the last bit.
_CFLAGS = ("-O2", "-fwrapv", "-ffp-contract=off", "-fPIC", "-shared")

_I64, _F64, _INT, _PTR = (
    ctypes.c_int64, ctypes.c_double, ctypes.c_int, ctypes.c_void_p,
)
_SIGNATURES = {
    "repro_pack_varlen": ([_PTR, _PTR, _I64, _PTR], _I64),
    "repro_huffman_encode":
        ([_PTR, _INT, _I64, _PTR, _PTR, _I64, _PTR, _PTR], _I64),
    "repro_huffman_table_size": ([_PTR, _I64, _INT], _I64),
    "repro_huffman_decode":
        ([_PTR, _I64, _PTR, _I64, _I64, _I64, _PTR, _I64, _INT, _I64, _PTR,
          _INT, _PTR], _I64),
    "repro_huffman_code": ([_PTR, _I64, _INT, _I64, _PTR, _PTR, _PTR], None),
    "repro_sz_encode":
        ([_PTR, _INT, _INT, _PTR, _INT, _F64, _INT, _I64, _PTR, _PTR, _PTR,
          _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR], _I64),
    "repro_sz_decode":
        ([_PTR, _I64, _PTR, _I64, _PTR, _PTR, _PTR, _F64, _INT, _PTR, _INT,
          _INT, _PTR, _PTR, _PTR], _I64),
    "repro_zfp_encode":
        ([_PTR, _INT, _INT, _PTR, _PTR, _INT, _I64, _I64, _INT,
          _PTR, _PTR, _PTR, _PTR], _I64),
    "repro_zfp_decode":
        ([_PTR, _I64, _PTR, _I64, _PTR, _INT, _INT, _PTR, _PTR, _INT,
          _I64, _INT], _I64),
}

_state: dict = {"probed": False, "lib": None, "error": None}
_state_lock = threading.Lock()


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
        # One thread builds; the rest wait for it.  A thread that saw
        # "probed" before the library was there would call into ``None``,
        # and the registry would trip its kernel to the numpy tier for the
        # rest of the process - a whole fused codec pass, silently, decided
        # by which thread made the first call.
        with _state_lock:
            if not _state["probed"]:
                try:
                    _state["lib"] = _build_clib()
                except Exception as exc:
                    _state["error"] = KernelUnavailableError(
                        f"native kernel tier unavailable (cc: {exc})"
                    )
                _state["probed"] = True
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


def _p(arr: np.ndarray) -> int | bytes:
    """``arr``'s address for a ``c_void_p``: a writable array's via a ctypes
    view of its buffer (a third of ``arr.ctypes``); a read-only contiguous
    view of a whole ``bytes`` (a request payload) is that ``bytes`` itself."""
    if arr.flags.writeable:
        try:
            return ctypes.addressof(ctypes.c_char.from_buffer(arr))
        except (TypeError, ValueError):  # empty, or not contiguous
            pass
    elif arr.flags.c_contiguous:
        base = arr.base
        while type(base) is np.ndarray:
            base = base.base
        if type(base) is bytes and len(base) == arr.nbytes:  # all of it, from its start
            return base
    return arr.ctypes.data


# -- kernel wrappers ---------------------------------------------------------


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


def huffman_code(freqs: np.ndarray, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Length-limited canonical code of a histogram (``huffman.code``
    kernel): ``(lengths uint8, codes uint64)`` per alphabet entry."""
    lib = _resolve()
    check_max_len(max_len)
    freqs = np.ascontiguousarray(freqs, dtype=np.int64)
    used = int(np.count_nonzero(freqs > 0))
    if used > 1 << max_len:
        raise fit_error(used, max_len)
    scratch = np.empty(7 * 8 * used + 2 * used * max_len, dtype=np.uint8)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    codes = np.zeros(freqs.size, dtype=np.uint64)
    lib.repro_huffman_code(_p(freqs), freqs.size, max_len, used, _p(scratch),
                           _p(lengths), _p(codes))
    return lengths, codes


def huffman_encode(
    symbols: np.ndarray, codes: np.ndarray, lengths: np.ndarray, chunk_size: int
) -> tuple[bytes, int, np.ndarray]:
    """Fused symbol->codeword bit packing plus the per-chunk bit-offset
    table (``huffman.encode`` kernel)."""
    lib = _resolve()
    # uint16 (what sz.encode emits) is read as it is, anything else widened.
    wide = symbols.dtype != np.uint16
    symbols = np.ascontiguousarray(symbols, dtype=np.int64 if wide else None)
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    len_u8 = np.ascontiguousarray(lengths, dtype=np.uint8)
    n = symbols.size
    nchunks = max(1, -(-n // chunk_size))
    chunk_offsets = np.zeros(nchunks, dtype=np.uint64)
    if n == 0:
        return b"", 0, chunk_offsets
    # Sized for every symbol at the longest code length, so there is no
    # counting pass; only the pages the encoder writes are touched.
    out = np.empty((n * int(len_u8.max()) + 7) // 8, dtype=np.uint8)
    total = int(lib.repro_huffman_encode(
        _p(symbols), wide, n, _p(codes), _p(len_u8), chunk_size,
        _p(chunk_offsets), _p(out),
    ))
    return out[:(total + 7) // 8].tobytes(), total, chunk_offsets


def huffman_l1_bits() -> int:
    """Key width of the native decoder's first-level table."""
    return ctypes.c_int.in_dll(_resolve(), "repro_huffman_l1_bits").value


def huffman_decode(
    body: bytes,
    lengths: np.ndarray,
    chunk_offsets: np.ndarray,
    n: int,
    chunk_size: int,
    max_len: int,
    total_bits: int,
) -> np.ndarray:
    """Chunk-parallel decode through a two-level table built in C from
    the code lengths (``huffman.decode`` kernel)."""
    lib = _resolve()
    body_p = body if type(body) is bytes else _p(np.frombuffer(body, dtype=np.uint8))
    lengths = np.ascontiguousarray(lengths, dtype=np.uint8)
    size = lib.repro_huffman_table_size(_p(lengths), lengths.size, max_len)
    if size < 0:
        raise CorruptStreamError(TOO_LONG if size == -1 else KRAFT)
    table = np.empty(size, dtype=np.uint32)
    chunk_offsets = np.ascontiguousarray(chunk_offsets, dtype=np.int64)
    out = np.empty(n, dtype=symbol_dtype(lengths.size))
    code = lib.repro_huffman_decode(
        body_p, len(body), _p(chunk_offsets), chunk_offsets.size,
        chunk_size, n, _p(lengths), lengths.size, max_len, total_bits,
        _p(table), out.dtype == np.int64, _p(out),
    )
    if code == 1:
        raise CorruptStreamError("invalid codeword in Huffman stream")
    if code == 2:
        raise CorruptStreamError("Huffman decode overran declared bit length")
    return out


_SZ_PREDICTORS = {"adaptive": 0, "lorenzo": 1, "regression": 2}


@lru_cache(maxsize=64)
def _sz_geometry(shape: tuple[int, ...], block_side: int, dtype: np.dtype) -> tuple:
    """``(arrays, their addresses, cost table size, block count, cells per
    block)`` after checking what the C side assumes; the arrays (shape,
    design matrix, its pseudo-inverse, cost table) are the reference's."""
    from repro.compressors.sz.predictor import _design_matrix, cost_table

    if (not 1 <= len(shape) <= 3 or not 2 <= block_side <= 255
            or dtype not in (np.float32, np.float64)):
        raise DataError(
            "SZ kernels take 1-3 dimensional float32/float64 fields and "
            "block sides in [2, 255]"
        )
    design, pinv = _design_matrix((block_side,) * len(shape))
    shape_arr = np.array(shape, dtype=np.int64)
    table = cost_table()
    nblocks = math.prod(-(-s // block_side) for s in shape)
    return ((shape_arr, design, pinv, table),
            (_p(shape_arr), _p(design), _p(pinv), _p(table)), table.size,
            nblocks, block_side ** len(shape))


def sz_encode(
    data: np.ndarray,
    error_bound: float,
    block_side: int,
    predictor: str,
    radius: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """One-pass fused predictor + quantizer (``sz.encode`` kernel); the
    contract is spelled out in :mod:`repro.compressors.sz.staged`."""
    lib = _resolve()
    data = np.ascontiguousarray(data)
    _, (shape, design, pinv, table), table_size, nblocks, size = _sz_geometry(
        data.shape, block_side, data.dtype
    )
    ncells = nblocks * size
    scratch = np.empty(3 * size, dtype=np.float64)
    use_reg = np.empty(nblocks, dtype=np.bool_)
    coefs = np.empty((nblocks, data.ndim + 1), dtype=np.float32)
    counts = np.zeros(2, dtype=np.int64)
    if radius is None:  # a residual pass first: the radius depends on it
        residual = np.empty(ncells, dtype=np.int64)
        outputs = (None, None, None, _p(residual))
    else:
        symbols = np.empty(ncells, dtype=np.uint16)
        freqs = np.zeros(2 * radius, dtype=np.int64)
        outliers = np.empty(ncells, dtype=np.int64)
        outputs = (_p(symbols), _p(freqs), _p(outliers), None)
    overflow = lib.repro_sz_encode(
        _p(data), data.dtype == np.float32, data.ndim, shape, block_side,
        2.0 * error_bound, _SZ_PREDICTORS[predictor], radius or 0,
        design, pinv, table, table_size, _p(scratch), *outputs,
        _p(use_reg), _p(coefs), _p(counts),
    )
    if overflow:
        raise DataError(
            "error bound too small relative to data magnitude (int64 overflow)"
        )
    coefs = coefs[: counts[1]]
    if radius is None:
        from repro.compressors.sz.quantizer import auto_radius
        from repro.compressors.sz.staged import split_symbols

        radius = auto_radius(residual)
        return (*split_symbols(residual, radius), use_reg, coefs, radius)
    return symbols, freqs, outliers[: counts[0]], use_reg, coefs, radius


def sz_decode(
    symbols: np.ndarray,
    outliers: np.ndarray,
    use_reg: np.ndarray,
    coefs: np.ndarray,
    error_bound: float,
    block_side: int,
    radius: int,
    shape: tuple[int, ...],
    dtype: np.dtype,
) -> np.ndarray:
    """Mirror of :func:`sz_encode` (``sz.decode`` kernel); the contract
    is spelled out in :mod:`repro.compressors.sz.staged`."""
    lib = _resolve()
    _, (shape_arr, design, _, _), _, _, size = _sz_geometry(
        shape, block_side, dtype)
    symbols = np.ascontiguousarray(symbols)  # uint16: check_sections
    outliers = np.ascontiguousarray(outliers, dtype=np.int64)
    use_reg = np.ascontiguousarray(use_reg, dtype=np.bool_)
    coefs = np.ascontiguousarray(coefs, dtype=np.float32)
    # The kernel walks these by block; never hand it less than it reads.
    check_sections(symbols, use_reg, coefs, block_side, shape)
    out = np.empty(shape, dtype=dtype)
    scratch = np.empty(size, dtype=np.int64)
    escapes = np.zeros(1, dtype=np.int64)
    mismatch = lib.repro_sz_decode(
        _p(symbols), radius, _p(outliers), outliers.size, _p(use_reg),
        _p(coefs), design, 2.0 * error_bound, block_side, _p(out),
        out.dtype == np.float32, len(shape), shape_arr, _p(scratch),
        _p(escapes),
    )
    if mismatch:
        raise CorruptStreamError(
            f"outlier count mismatch: {escapes[0]} escapes vs "
            f"{outliers.size} stored"
        )
    return out


@lru_cache(maxsize=64)
def _zfp_geometry(shape: tuple[int, ...]) -> tuple:
    """(arrays, shape array address, sequency permutation address, block count)."""
    from repro.compressors.zfp.transform import sequency_order

    shape_arr = np.array(shape, dtype=np.int64)
    perm = sequency_order(len(shape))
    return ((shape_arr, perm), _p(shape_arr), _p(perm),
            math.prod(-(-s // 4) for s in shape))


def zfp_encode(
    data: np.ndarray, planes: int, maxbits: int, kmin_rule: tuple[int, bool]
) -> tuple[bytes, int, np.ndarray, np.ndarray, np.ndarray]:
    """One-pass fused block coder (``zfp.encode`` kernel); the contract
    is spelled out in :mod:`repro.compressors.zfp.staged`."""
    lib = _resolve()
    data = np.ascontiguousarray(data)
    _, shape, perm, nblocks = _zfp_geometry(data.shape)
    size = 4 ** data.ndim
    # Worst case per block: header, then per plane at most `size` value
    # bits, `size` group-test bits and one terminating test bit.
    block_bits = maxbits if maxbits else 13 + planes * (2 * size + 1)
    out = np.empty((nblocks * block_bits + 7) // 8, dtype=np.uint8)
    offsets = np.empty(nblocks + 1, dtype=np.uint64)
    used_bits = np.empty(nblocks, dtype=np.int64)
    nonzero = np.empty(nblocks, dtype=np.bool_)
    nbits = lib.repro_zfp_encode(
        _p(data), data.dtype == np.float32, data.ndim, shape, perm,
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
    body_p = body if type(body) is bytes else _p(np.frombuffer(body, dtype=np.uint8))
    _, shape_arr, perm, nblocks = _zfp_geometry(shape)
    if isinstance(offsets, int):
        table, maxbits, end = None, offsets, nblocks * offsets
    else:
        table = np.ascontiguousarray(offsets, dtype=np.int64)
        maxbits, end = 0, int(table[-1])
    # The kernel reads whole words; never hand it spans the body lacks.
    if (table is not None and table.size != nblocks + 1) or end > 8 * len(body):
        raise CorruptStreamError("ZFP stream truncated (body)")
    out = np.empty(shape, dtype=dtype)
    code = lib.repro_zfp_decode(
        body_p, len(body), None if table is None else _p(table),
        maxbits, _p(out), out.dtype == np.float32, len(shape), shape_arr,
        perm, planes, kmin_rule[0], kmin_rule[1],
    )
    if code == 1:
        raise CorruptStreamError("non-increasing ZFP block offsets")
    if code == 2:
        raise CorruptStreamError("ZFP block bit budget overrun")
    return out
