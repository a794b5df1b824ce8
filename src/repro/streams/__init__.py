"""Sparse stream data representation (paper §5.1)."""

from .ops import MAX, MIN, PROD, REDUCE_OPS, SUM, ReduceOp
from .stream import SparseStream
from .summation import (
    add_streams,
    add_streams_,
    concat_disjoint,
    merge_sparse_pairs,
    reduce_streams,
    reduction_work_bytes,
)

__all__ = [
    "ReduceOp",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
    "REDUCE_OPS",
    "SparseStream",
    "add_streams",
    "add_streams_",
    "concat_disjoint",
    "merge_sparse_pairs",
    "reduce_streams",
    "reduction_work_bytes",
]
