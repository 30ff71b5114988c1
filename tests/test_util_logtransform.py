"""Unit tests for the PW_REL logarithmic transform."""

import numpy as np
import pytest

from repro.errors import DataError
from repro.util.logtransform import LogTransform, pwrel_to_abs_bound


class TestBoundConversion:
    def test_bound_guarantees_pwrel_both_sides(self):
        # Perturbing log-magnitude by +-bound must stay within pwrel.
        for pwrel in (0.001, 0.01, 0.1, 0.5):
            bound = pwrel_to_abs_bound(pwrel)
            assert np.exp(bound) - 1.0 <= pwrel + 1e-12
            assert 1.0 - np.exp(-bound) <= pwrel + 1e-12

    def test_monotone_in_pwrel(self):
        bounds = [pwrel_to_abs_bound(p) for p in (0.001, 0.01, 0.1, 0.5)]
        assert bounds == sorted(bounds)

    def test_invalid_bounds_raise(self):
        with pytest.raises(DataError):
            pwrel_to_abs_bound(0.0)
        with pytest.raises(DataError):
            pwrel_to_abs_bound(1.0)
        with pytest.raises(DataError):
            pwrel_to_abs_bound(-0.5)


class TestLogTransform:
    def test_round_trip_exact_for_exact_logs(self):
        data = np.array([1.0, -2.5, 3e4, -1e-5, 0.0, 7.0])
        logmag, xform = LogTransform.forward(data)
        out = xform.backward(logmag)
        assert np.allclose(out, data, rtol=1e-12)
        assert out[4] == 0.0  # zero restored exactly

    def test_signs_recorded(self):
        data = np.array([3.0, -4.0, 0.0, -0.0])
        _, xform = LogTransform.forward(data)
        neg = np.unpackbits(xform.neg_bits, count=4, bitorder="big")
        assert neg.tolist() == [0, 1, 0, 0]
        assert xform.zeros.tolist() == [2, 3]

    def test_perturbed_log_stays_within_pwrel(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(1000) * 100
        pwrel = 0.05
        bound = pwrel_to_abs_bound(pwrel)
        logmag, xform = LogTransform.forward(data)
        noisy = logmag + rng.uniform(-bound, bound, logmag.shape)
        noisy[xform.zeros] = 0.0
        out = xform.backward(noisy)
        nz = data != 0
        rel = np.abs((out[nz] - data[nz]) / data[nz])
        assert rel.max() <= pwrel + 1e-12

    def test_shape_mismatch_raises(self):
        _, xform = LogTransform.forward(np.ones(4))
        with pytest.raises(DataError):
            xform.backward(np.ones(5))

    def test_2d_shape_preserved(self):
        data = np.ones((3, 4))
        logmag, xform = LogTransform.forward(data)
        assert logmag.shape == (3, 4)
        assert xform.backward(logmag).shape == (3, 4)
