"""Unit tests for repro.util.blocks."""

import numpy as np
import pytest

from repro.errors import DataError
from repro.util.blocks import (
    block_partition,
    block_reassemble,
    pad_to_multiple,
)


class TestPadToMultiple:
    def test_no_padding_needed_returns_same_object(self):
        a = np.arange(8).reshape(4, 2)
        padded, orig = pad_to_multiple(a, (2, 2))
        assert padded is a and orig == (4, 2)

    def test_edge_padding_replicates_boundary(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        padded, _ = pad_to_multiple(a, (2, 2))
        assert padded.shape == (4, 2)
        assert np.array_equal(padded[3], padded[2])

    def test_constant_padding_zeroes(self):
        a = np.ones(5)
        padded, _ = pad_to_multiple(a, (4,), mode="constant")
        assert padded.shape == (8,)
        assert padded[5:].sum() == 0

    def test_rank_mismatch_raises(self):
        with pytest.raises(DataError):
            pad_to_multiple(np.ones((2, 2)), (2,))

    def test_nonpositive_block_raises(self):
        with pytest.raises(DataError):
            pad_to_multiple(np.ones(4), (0,))


class TestPartitionReassemble:
    @pytest.mark.parametrize("shape,block", [
        ((8,), (4,)),
        ((9,), (4,)),
        ((8, 8), (4, 4)),
        ((7, 9), (4, 4)),
        ((8, 8, 8), (4, 4, 4)),
        ((5, 6, 7), (4, 4, 4)),
        ((12, 12, 12), (6, 6, 6)),
    ])
    def test_round_trip(self, shape, block):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(shape)
        blocks, grid, orig = block_partition(a, block)
        assert blocks.shape[1:] == block
        assert np.array_equal(block_reassemble(blocks, grid, orig), a)

    def test_block_ordering_is_c_order(self):
        a = np.arange(16).reshape(4, 4)
        blocks, grid, _ = block_partition(a, (2, 2))
        assert grid == (2, 2)
        assert np.array_equal(blocks[0], [[0, 1], [4, 5]])
        assert np.array_equal(blocks[1], [[2, 3], [6, 7]])

    def test_nblocks_count(self):
        a = np.zeros((10, 10, 10))
        blocks, grid, _ = block_partition(a, (4, 4, 4))
        assert blocks.shape[0] == 27 and grid == (3, 3, 3)

    def test_reassemble_rank_mismatch_raises(self):
        blocks = np.zeros((4, 2, 2))
        with pytest.raises(DataError):
            block_reassemble(blocks, (2,), (4,))
