"""Shared low-level utilities: bit streams, blocking, dimension conversion."""

from repro.util.backoff import backoff_delay
from repro.util.bits import (
    BitReader,
    BitWriter,
    pack_varlen_codes,
    unpack_fixed_width,
    pack_fixed_width,
)
from repro.util.blocks import (
    block_partition,
    block_reassemble,
    pad_to_multiple,
)
from repro.util.dims import (
    HACC_PARTITION_ELEMS,
    convert_1d_to_3d,
    convert_3d_to_1d,
)
from repro.util.logtransform import (
    LogTransform,
    pwrel_to_abs_bound,
)
from repro.util.validation import (
    check_dtype,
    check_positive,
    check_shape_nd,
)

__all__ = [
    "backoff_delay",
    "BitReader",
    "BitWriter",
    "pack_varlen_codes",
    "pack_fixed_width",
    "unpack_fixed_width",
    "block_partition",
    "block_reassemble",
    "pad_to_multiple",
    "HACC_PARTITION_ELEMS",
    "convert_1d_to_3d",
    "convert_3d_to_1d",
    "LogTransform",
    "pwrel_to_abs_bound",
    "check_dtype",
    "check_positive",
    "check_shape_nd",
]
