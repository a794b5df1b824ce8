"""Efficient summation of sparse streams (§5.1, "Efficient Summation").

The paper distinguishes four cases when summing two vectors ``u1 + u2``:

1. both sparse, overlapping indices — merge index sets, summing duplicates;
   switch to dense first when the ``|H1| + |H2| > delta`` upper bound fires;
2. one sparse, one dense — scatter-add the sparse one into the dense one;
3. both dense — vectorised dense addition in place, no new allocation;
4. disjoint index ranges (the dimension-partitioned case) — plain
   concatenation, no arithmetic needed.

All kernels operate on :class:`~repro.streams.stream.SparseStream` and keep
its invariants (sorted unique indices). Reduction *work* estimates (used by
the network/compute replay model) are returned alongside results by the
``*_with_work`` variants.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import INDEX_DTYPE
from .ops import SUM, ReduceOp
from .stream import SparseStream

__all__ = [
    "add_streams",
    "add_streams_",
    "concat_disjoint",
    "merge_sparse_pairs",
    "reduce_streams",
    "reduction_work_bytes",
]


def merge_sparse_pairs(
    idx_a: np.ndarray,
    val_a: np.ndarray,
    idx_b: np.ndarray,
    val_b: np.ndarray,
    op: ReduceOp = SUM,
    *,
    copy: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two sorted-unique (index, value) pair lists, summing overlaps.

    Returns sorted unique indices and summed values. This is the sparse+sparse
    kernel; complexity O((n_a + n_b) log(n_a + n_b)) using a concatenate+sort
    strategy, which vectorises far better in NumPy than a two-pointer walk.

    Parameters
    ----------
    copy:
        Governs the empty-side fast path only: with ``copy=True`` (the
        default) the non-empty side comes back as fresh arrays; with
        ``copy=False`` it comes back as-is — zero-copy, but the result then
        aliases the caller's input, so only owners may pass False.
    """
    if idx_a.size == 0:
        return (idx_b.copy(), val_b.copy()) if copy else (idx_b, val_b)
    if idx_b.size == 0:
        return (idx_a.copy(), val_a.copy()) if copy else (idx_a, val_a)
    idx = np.concatenate([idx_a, idx_b])
    val = np.concatenate([val_a, val_b])
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    val = val[order]
    boundary = np.empty(idx.shape[0], dtype=bool)
    # collapse duplicates: segment boundaries where the index changes
    boundary[0] = True
    np.not_equal(idx[1:], idx[:-1], out=boundary[1:])
    starts = np.nonzero(boundary)[0]
    combined = op.collapse_duplicates(val, starts)
    return idx[starts], combined.astype(val.dtype, copy=False)


def add_streams(a: SparseStream, b: SparseStream, op: ReduceOp = SUM) -> SparseStream:
    """Pure reduction ``a op b`` returning a new stream; inputs unchanged."""
    out = a.copy()
    return add_streams_(out, b, op)


def add_streams_(
    acc: SparseStream,
    other: SparseStream,
    op: ReduceOp = SUM,
    *,
    own_other: bool = False,
) -> SparseStream:
    """In-place sum ``acc += other`` with automatic representation switching.

    Follows the decision tree of §5.1:

    * dense += dense: vectorised add into ``acc``'s buffer;
    * dense += sparse: scatter-add;
    * sparse += dense: densify ``acc`` then scatter-add the old sparse part
      (equivalently: copy dense and add — we scatter into a copy);
    * sparse += sparse: if ``|H1| + |H2| > delta`` densify first (the paper's
      cheap upper-bound test), otherwise merge the pair lists.

    Parameters
    ----------
    own_other:
        Declare that ``other`` is owned by this reduction (e.g. a freshly
        received, decoded message nobody else holds). When ``acc`` is
        empty, the merge then *adopts* ``other``'s arrays instead of
        copying them. Leave False when ``other`` must stay independent —
        aliasing would let later in-place updates of ``acc`` corrupt it.
    """
    if acc.dimension != other.dimension:
        raise ValueError(f"dimension mismatch: {acc.dimension} vs {other.dimension}")
    if acc.value_dtype != other.value_dtype:
        raise TypeError(f"value dtype mismatch: {acc.value_dtype} vs {other.value_dtype}")
    # summed values are full precision again, whatever travelled on the wire
    acc.value_wire_bytes = None

    if acc.is_dense and other.is_dense:
        op.combine(acc.dense_payload, other.dense_payload, out=acc.dense_payload)
        return acc

    if acc.is_dense and not other.is_dense:
        if other.indices.size:
            idx = other.indices
            acc.dense_payload[idx] = op.ufunc(acc.dense_payload[idx], other.values)
        return acc

    if not acc.is_dense and other.is_dense:
        # keep the dense operand's layout: build dense result from it
        dense = other.dense_payload.copy()
        if acc.indices.size:
            idx = acc.indices
            dense[idx] = op.ufunc(dense[idx], acc.values)
        acc._dense = dense  # noqa: SLF001 - intentional internal switch
        acc._indices = None  # noqa: SLF001
        acc._values = None  # noqa: SLF001
        return acc

    # sparse (op)= sparse
    if acc.should_switch_to_dense(extra_nnz=other.nnz):
        acc.densify(fill=op.neutral)
        if other.indices.size:
            idx = other.indices
            acc.dense_payload[idx] = op.ufunc(acc.dense_payload[idx], other.values)
        return acc

    idx, val = merge_sparse_pairs(
        acc.indices, acc.values, other.indices, other.values, op,
        copy=not own_other,
    )
    acc.set_pairs(idx.astype(INDEX_DTYPE, copy=False), val)
    # the merge may still have overshot delta (exact union known only now)
    if acc.nnz > acc.delta:
        acc.densify(fill=op.neutral)
    return acc


def concat_disjoint(streams: Sequence[SparseStream], dimension: int) -> SparseStream:
    """Sum streams whose index sets live in disjoint ranges (§5.1 case 2).

    Used by the split/allgather algorithms where the dimension has been
    partitioned by rank: the "sum" is a concatenation. The inputs must be
    sparse; the caller guarantees disjointness (checked cheaply via total
    count vs. union count in debug mode).
    """
    sparse_parts = [s for s in streams if s.nnz > 0]
    if not sparse_parts:
        return SparseStream.zeros(dimension, value_dtype=streams[0].value_dtype if streams else np.float32)
    vdt = sparse_parts[0].value_dtype
    idx = np.concatenate([s.indices for s in sparse_parts])
    val = np.concatenate([s.values for s in sparse_parts])
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    val = val[order]
    if idx.size > 1 and np.any(idx[1:] == idx[:-1]):
        raise ValueError("concat_disjoint called with overlapping index sets")
    return SparseStream(dimension, indices=idx, values=val, value_dtype=vdt, copy=False)


def reduce_streams(streams: Sequence[SparseStream], op: ReduceOp = SUM) -> SparseStream:
    """Left-fold reduction of a list of streams (reference reduction)."""
    if not streams:
        raise ValueError("reduce_streams needs at least one stream")
    acc = streams[0].copy()
    for s in streams[1:]:
        add_streams_(acc, s, op)
    return acc


def reduction_work_bytes(a: SparseStream, b: SparseStream) -> int:
    """Estimate of bytes touched when summing ``a + b``.

    Used by the replay model to charge local-reduction compute time. Sparse
    merges touch every stored pair of both operands; dense adds touch the
    full dense block; mixed cases touch the sparse side plus scatter targets.
    """
    isize = a.value_dtype.itemsize
    pair = isize + 4
    if a.is_dense and b.is_dense:
        return a.dimension * isize * 2
    if a.is_dense != b.is_dense:
        sp = b if a.is_dense else a
        return sp.nnz * pair * 2
    return (a.nnz + b.nnz) * pair * 2
