"""Sparse and dense collective algorithms (paper §5.3)."""

from .allgather import (
    allgather_blocks,
    allgather_recursive_doubling,
    allgather_ring,
    sparse_allgather,
)
from .api import ALGORITHMS, allreduce_plan, dense_allreduce, run_sparse_allreduce, sparse_allreduce
from .dense import (
    DENSE_ALGORITHMS,
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
    allreduce_ring,
    partition_bounds,
)
from ..costmodel.model import RING_MIN_RANKS, SCHEDULES, SMALL_MESSAGE_BYTES
from .dsar import dsar_split_allgather
from .hier import dsar_hierarchical, ssar_hierarchical, tree_reduce
from .sparse import slice_stream, split_phase, ssar_recursive_double, ssar_ring, ssar_split_allgather

__all__ = [
    "allgather_blocks",
    "allgather_recursive_doubling",
    "allgather_ring",
    "sparse_allgather",
    "ALGORITHMS",
    "allreduce_plan",
    "dense_allreduce",
    "sparse_allreduce",
    "run_sparse_allreduce",
    "DENSE_ALGORITHMS",
    "allreduce_rabenseifner",
    "allreduce_recursive_doubling",
    "allreduce_ring",
    "partition_bounds",
    "dsar_split_allgather",
    "dsar_hierarchical",
    "ssar_hierarchical",
    "tree_reduce",
    "RING_MIN_RANKS",
    "SMALL_MESSAGE_BYTES",
    "SCHEDULES",
    "slice_stream",
    "split_phase",
    "ssar_recursive_double",
    "ssar_ring",
    "ssar_split_allgather",
]
