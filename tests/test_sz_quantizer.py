"""Unit tests for SZ quantization and escape coding."""

import numpy as np
import pytest

from repro.compressors.sz.quantizer import (
    ESCAPE,
    OutlierSection,
    _unzigzag,
    _zigzag,
    dequantize,
    prequantize,
    residuals_to_symbols,
    symbols_to_residuals,
)
from repro.errors import CorruptStreamError, DataError


class TestPrequantize:
    def test_error_bound_honored(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(10000) * 50
        for eb in (1.0, 0.1, 1e-3):
            q = prequantize(data, eb)
            recon = dequantize(q, eb, np.dtype(np.float64))
            assert np.abs(recon - data).max() <= eb * (1 + 1e-12)

    def test_invalid_bound_raises(self):
        with pytest.raises(DataError):
            prequantize(np.ones(4), 0.0)
        with pytest.raises(DataError):
            prequantize(np.ones(4), float("nan"))

    def test_overflow_guard(self):
        with pytest.raises(DataError):
            prequantize(np.array([1e30]), 1e-8)

    def test_ties_round_to_even(self):
        # rint semantics: 0.5/2eb lattice ties are deterministic.
        q = prequantize(np.array([1.0, 3.0]), 1.0)  # values/2 = 0.5, 1.5
        assert q.tolist() == [0, 2]


class TestSymbols:
    def test_round_trip_in_range(self):
        res = np.array([-5, 0, 5, 100, -100], dtype=np.int64)
        sym, out = residuals_to_symbols(res, radius=128)
        assert out.size == 0
        assert np.array_equal(symbols_to_residuals(sym, out, 128), res)

    def test_escape_handling(self):
        res = np.array([0, 5000, -1, -7000], dtype=np.int64)
        sym, out = residuals_to_symbols(res, radius=1024)
        assert (sym == ESCAPE).sum() == 2
        assert out.tolist() == [5000, -7000]
        assert np.array_equal(symbols_to_residuals(sym, out, 1024), res)

    def test_boundary_residuals(self):
        radius = 16
        res = np.array([-16, -15, 15, 16], dtype=np.int64)
        sym, out = residuals_to_symbols(res, radius)
        # |res| < radius is in range: -15..15 in, +-16 escape.
        assert out.tolist() == [-16, 16]
        assert np.array_equal(symbols_to_residuals(sym, out, radius), res)

    def test_most_negative_int64_escapes(self):
        # abs(INT64_MIN) wraps to itself; it must not pass for "in range".
        lo = np.iinfo(np.int64).min
        sym, out = residuals_to_symbols(np.array([lo, 1], dtype=np.int64), 16)
        assert sym.tolist() == [ESCAPE, 17] and out.tolist() == [lo]

    def test_outlier_count_mismatch_raises(self):
        sym = np.array([ESCAPE, ESCAPE])
        with pytest.raises(CorruptStreamError):
            symbols_to_residuals(sym, np.array([1], dtype=np.int64), 16)

    def test_small_radius_rejected(self):
        with pytest.raises(DataError):
            residuals_to_symbols(np.zeros(1, np.int64), 1)


class TestOutlierSection:
    def test_empty(self):
        sec = OutlierSection.encode(np.zeros(0, np.int64))
        assert sec.count == 0 and sec.decode().size == 0

    def test_round_trip(self):
        vals = np.array([0, 1, -1, 10**12, -(10**12)], dtype=np.int64)
        sec = OutlierSection.encode(vals)
        assert np.array_equal(sec.decode(), vals)

    def test_width_is_minimal(self):
        sec = OutlierSection.encode(np.array([3], dtype=np.int64))
        assert sec.width == 3  # zigzag(3) = 6 -> 3 bits


class TestZigzag:
    def test_known_values(self):
        v = np.array([0, -1, 1, -2, 2], dtype=np.int64)
        assert _zigzag(v).tolist() == [0, 1, 2, 3, 4]

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        v = rng.integers(-(10**9), 10**9, 1000)
        assert np.array_equal(_unzigzag(_zigzag(v)), v)
