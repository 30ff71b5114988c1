"""N-dimensional block partitioning used by both codecs.

ZFP operates on 4^d blocks and GPU-SZ launches one thread block per data
block, so the library needs a fast way to view an array as a dense batch of
equal-sized blocks.  For arrays whose shape is a multiple of the block size
this is a pure reshape/transpose (no copy until ``ascontiguousarray``);
otherwise the array is zero-padded (ZFP semantics pad by replicating edge
values — see ``mode`` parameter).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import DataError


def pad_to_multiple(
    data: np.ndarray, block: Sequence[int], mode: str = "edge"
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Pad ``data`` so every axis is a multiple of the block size.

    Returns the padded array and the original shape.  ``mode`` follows
    :func:`numpy.pad` (``"edge"`` replicates boundary values, which keeps
    padded blocks smooth and is what ZFP's partial-block handling
    approximates; ``"constant"`` zero-pads as GPU-SZ does for the HACC 1-D
    conversion).
    """
    if len(block) != data.ndim:
        raise DataError(f"block rank {len(block)} != data rank {data.ndim}")
    pad = []
    for size, b in zip(data.shape, block):
        if b <= 0:
            raise DataError("block sizes must be positive")
        pad.append((0, (-size) % b))
    if all(p == (0, 0) for p in pad):
        return data, data.shape
    return np.pad(data, pad, mode=mode), data.shape


def block_partition(data: np.ndarray, block: Sequence[int], mode: str = "edge") -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """Partition ``data`` into a dense batch of blocks.

    Returns ``(blocks, grid_shape, orig_shape)`` where ``blocks`` has shape
    ``(nblocks, *block)`` and ``grid_shape`` is the number of blocks along
    each axis.  Blocks are ordered C-style over the grid.
    """
    padded, orig_shape = pad_to_multiple(data, block, mode=mode)
    grid = tuple(s // b for s, b in zip(padded.shape, block))
    # reshape to interleaved (g0, b0, g1, b1, ...) then bring grid axes first
    interleaved_shape: list[int] = []
    for g, b in zip(grid, block):
        interleaved_shape.extend((g, b))
    arr = padded.reshape(interleaved_shape)
    ndim = data.ndim
    perm = [2 * i for i in range(ndim)] + [2 * i + 1 for i in range(ndim)]
    arr = np.ascontiguousarray(arr.transpose(perm))
    return arr.reshape((-1, *block)), grid, orig_shape


def block_reassemble(
    blocks: np.ndarray,
    grid: Sequence[int],
    orig_shape: Sequence[int],
) -> np.ndarray:
    """Inverse of :func:`block_partition`; crops padding back off."""
    grid = tuple(grid)
    block = blocks.shape[1:]
    if len(grid) != len(block):
        raise DataError("grid rank does not match block rank")
    ndim = len(grid)
    arr = blocks.reshape((*grid, *block))
    perm: list[int] = []
    for i in range(ndim):
        perm.extend((i, ndim + i))
    arr = np.ascontiguousarray(arr.transpose(perm))
    padded_shape = tuple(g * b for g, b in zip(grid, block))
    arr = arr.reshape(padded_shape)
    crop = tuple(slice(0, s) for s in orig_shape)
    return arr[crop]
