"""Unit tests for the SZ block predictors."""

import numpy as np
import pytest

from repro.compressors.sz.predictor import (
    COST_TABLE_SIZE,
    _design_matrix,
    cost_table,
    estimate_code_bits,
    lorenzo_reconstruct,
    lorenzo_residual,
    regression_fit,
    regression_predict,
)


class TestLorenzo:
    @pytest.mark.parametrize("shape", [(5, 6), (3, 6, 6), (2, 6, 6, 6)])
    def test_round_trip_exact_on_integers(self, shape):
        rng = np.random.default_rng(0)
        q = rng.integers(-10**6, 10**6, shape).astype(np.int64)
        res = lorenzo_residual(q)
        assert np.array_equal(lorenzo_reconstruct(res), q)

    def test_constant_block_residual_is_sparse(self):
        q = np.full((1, 4, 4, 4), 9, dtype=np.int64)
        res = lorenzo_residual(q)
        # Only the corner element carries the DC value.
        assert res[0, 0, 0, 0] == 9
        assert np.count_nonzero(res) == 1

    def test_linear_ramp_residual_small(self):
        i = np.arange(8)
        q = (i[None, :, None, None] + i[None, None, :, None] + i[None, None, None, :]).astype(np.int64)
        res = lorenzo_residual(q)
        # Trilinear data is perfectly predicted except at boundaries.
        interior = res[0, 1:, 1:, 1:]
        assert np.all(interior == 0)

    def test_blocks_are_independent(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 100, (2, 4, 4)).astype(np.int64)
        res_both = lorenzo_residual(a)
        res_first = lorenzo_residual(a[:1])
        assert np.array_equal(res_both[0], res_first[0])


class TestRegression:
    def test_exact_on_affine_data(self):
        i, j, k = np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij")
        block = (1.5 + 2.0 * i - 0.5 * j + 0.25 * k)[None]
        coefs = regression_fit(block)
        pred = regression_predict(coefs, (6, 6, 6))
        assert np.abs(pred - block).max() < 1e-3  # float32 coefficient storage

    def test_coefficients_shape_and_dtype(self):
        blocks = np.zeros((7, 6, 6, 6))
        coefs = regression_fit(blocks)
        assert coefs.shape == (7, 4) and coefs.dtype == np.float32

    def test_constant_block_intercept_only(self):
        coefs = regression_fit(np.full((1, 4, 4), 3.5))
        assert abs(coefs[0, 0] - 3.5) < 1e-6
        assert np.abs(coefs[0, 1:]).max() < 1e-6

    def test_prediction_uses_stored_float32(self):
        # Compressor and decompressor must agree: prediction from the
        # float32-truncated coefficients, not the float64 fit.
        rng = np.random.default_rng(0)
        blocks = rng.standard_normal((3, 6, 6, 6)) * 1e7
        coefs = regression_fit(blocks)
        p1 = regression_predict(coefs, (6, 6, 6))
        p2 = regression_predict(coefs.copy(), (6, 6, 6))
        assert np.array_equal(p1, p2)

    def test_1d_blocks(self):
        blocks = np.linspace(0, 1, 12).reshape(2, 6)
        coefs = regression_fit(blocks)
        assert coefs.shape == (2, 2)
        pred = regression_predict(coefs, (6,))
        assert np.abs(pred - blocks).max() < 1e-5


class TestOrderDefinedArithmetic:
    """The fit, the prediction and the cost are the native kernel's
    specification: each must equal, bit for bit, the explicit
    left-to-right loop the C code transliterates."""

    def test_fit_and_predict_equal_the_sequential_loops(self):
        rng = np.random.default_rng(4)
        blocks = (1e6 + rng.standard_normal((5, 6, 6))).astype(np.float32)
        x, pinv = _design_matrix((6, 6))
        coefs = regression_fit(blocks)
        pred = regression_predict(coefs, (6, 6)).reshape(5, -1)
        for b, block in enumerate(blocks.reshape(5, -1).astype(np.float64)):
            for c in range(3):
                acc = 0.0
                for i, value in enumerate(block):
                    acc += float(value) * float(pinv[c, i])
                assert coefs[b, c] == np.float32(acc)
            stored = [float(v) for v in coefs[b]]
            for i in range(36):
                p = stored[0] * float(x[i, 0])
                p += stored[1] * float(x[i, 1])
                p += stored[2] * float(x[i, 2])
                assert pred[b, i] == p

    def test_cost_equals_the_sequential_sum(self):
        import math

        rng = np.random.default_rng(5)
        res = rng.integers(-3000, 3000, (4, 6, 6)).astype(np.int64)
        res[1, 0, 0] = COST_TABLE_SIZE        # first magnitude past the table
        res[2, 3, 3] = -(2**62)
        res[3, 5, 5] = np.iinfo(np.int64).min
        table = cost_table()
        for b, cost in enumerate(estimate_code_bits(res)):
            acc = 0.0
            for r in res[b].ravel():
                mag = abs(float(r))
                acc += (float(table[int(mag)]) if mag < COST_TABLE_SIZE
                        else 2.0 * math.log2(1.0 + mag) + 1.0)
            assert cost == acc

    def test_shared_tables_are_read_only(self):
        table = cost_table()
        assert table.size == COST_TABLE_SIZE and not table.flags.writeable
        assert table[0] == 1.0 and table[1] == 3.0 and table[3] == 5.0
        for shared in _design_matrix((6, 6, 6)):
            assert shared.flags.c_contiguous and not shared.flags.writeable


class TestCostEstimate:
    def test_zero_residual_costs_one_bit_per_sample(self):
        res = np.zeros((2, 4, 4), dtype=np.int64)
        cost = estimate_code_bits(res)
        assert np.allclose(cost, 16.0)

    def test_larger_residuals_cost_more(self):
        small = np.ones((1, 8), dtype=np.int64)
        big = np.full((1, 8), 1000, dtype=np.int64)
        assert estimate_code_bits(big)[0] > estimate_code_bits(small)[0]
