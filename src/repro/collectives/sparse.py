"""Static sparse allreduce algorithms (paper §5.3.1–5.3.2).

*Static* (SSAR) means the reduced result is expected to stay below the
sparse-efficiency threshold ``delta``, so every stage works on index/value
pairs:

* :func:`ssar_recursive_double` — the small-data algorithm (Fig. 2):
  log2(P) rounds of pairwise exchange-and-merge; latency optimal
  (``log2(P) alpha``), bandwidth between ``log2(P) k beta_s`` (full overlap)
  and ``(P-1) k beta_s`` (no overlap).
* :func:`ssar_split_allgather` — the large-data algorithm: a *split* phase
  partitioning the dimension across ranks via direct sends (latency
  ``(P-1) alpha``, mitigated with non-blocking sends), followed by a sparse
  allgather of the reduced partitions.
* :func:`ssar_ring` — the sparse counterpart of the ring allreduce used as
  a comparison point in Fig. 3.

The first and the last are the dense schedules with a stream combine:
:func:`~repro.collectives.dense.recursive_doubling` (fold included) folds
with the in-place stream reduction ``add_streams_`` (which switches to
dense on fill-in), :func:`~repro.collectives.dense.ring` with the
pair-list merge ``merge_sparse_pairs`` per block; only the combine, the
fold-back tag (``base + 63``) and the fold's trace label (``"reduce"``)
are this module's.

None of the algorithms assumes knowledge of the input distribution. Where
the result is not known to pass ``delta`` beforehand, the representation
switch to dense happens automatically inside stream summation once fill-in
exceeds it (:func:`ssar_recursive_double`); where it is — the DSAR
instances — the owner of a partition switches *before* it reduces: the
split phase's message exchange (:func:`split_exchange`) is written once
here, SSAR folds its pieces as pair lists (:func:`split_phase`) and
:mod:`~repro.collectives.dsar` folds the same pieces into a dense block.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..config import INDEX_DTYPE
from ..runtime.comm import COLLECTIVE_TAG, Communicator
from ..streams import SparseStream, add_streams_, concat_disjoint, reduction_work_bytes
from ..streams.ops import SUM, ReduceOp
from ..streams.summation import merge_sparse_pairs
from .allgather import allgather_blocks
from .dense import partition_bounds, recursive_doubling, ring

__all__ = [
    "ssar_recursive_double",
    "ssar_split_allgather",
    "ssar_ring",
    "split_exchange",
    "split_phase",
    "slice_stream",
]

_INDEX_MAX = int(np.iinfo(INDEX_DTYPE).max)


def slice_stream(stream: SparseStream, lo: int, hi: int) -> SparseStream:
    """Restriction of a sparse stream to global index range ``[lo, hi)``.

    Indices stay global, so partition slices remain disjoint and can be
    re-assembled by concatenation. The returned stream holds zero-copy
    *views* of the input's arrays (safe: every consumer either serializes
    them onto the wire or merges them into fresh arrays) — slicing a
    stream into P partitions allocates nothing.
    """
    if stream.is_dense:
        raise ValueError("slice_stream expects a sparse stream")
    idx = stream.indices
    start, stop = _first_at_or_above(idx, lo), _first_at_or_above(idx, hi)
    return SparseStream(
        stream.dimension,
        indices=idx[start:stop],
        values=stream.values[start:stop],
        value_dtype=stream.value_dtype,
        copy=False,
    )


def _first_at_or_above(idx: np.ndarray, bound: int) -> int:
    """``np.searchsorted(idx, bound)`` for a ``uint32`` index array and an
    int ``bound >= 0``, searched as a ``uint32`` scalar: a Python int makes
    numpy convert the whole array first (~0.1 ms at 262 144 indices,
    against ~2 µs). ``2**32``, the largest dimension, is past every index."""
    if bound > _INDEX_MAX:
        return idx.size
    return int(np.searchsorted(idx, INDEX_DTYPE.type(bound)))


def _ensure_sparse(stream: SparseStream) -> SparseStream:
    """Sparse algorithms start from the pair representation."""
    if stream.is_dense:
        return stream.copy().sparsify()
    return stream


def _accumulator(stream: SparseStream) -> SparseStream:
    """The accumulator a reduction of the sparse ``stream`` starts from: a
    new stream over ``stream``'s arrays, no copy. A merge replaces a sparse
    accumulator's arrays and never writes into them, so the caller's stay
    unchanged; :func:`_owned` copies them where the result still holds them."""
    acc = SparseStream._trusted(stream.dimension, stream.indices, stream.values, stream.value_dtype)
    acc.value_wire_bytes = stream.value_wire_bytes
    return acc


def _owned(result: SparseStream, stream: SparseStream) -> SparseStream:
    """``result``, copied where it still holds ``stream``'s arrays (every
    merge of the reduction found the other side empty)."""
    return result.copy() if result._values is stream._values else result


def _merge_work(acc: SparseStream, incoming: SparseStream) -> int:
    """:func:`~repro.streams.reduction_work_bytes` of one merge, read off the
    stored pairs where both operands are sparse (every merge below
    ``delta``), without its property calls."""
    if acc._dense is None and incoming._dense is None:  # noqa: SLF001
        pairs = len(acc._indices) + len(incoming._indices)  # noqa: SLF001
        return pairs * (4 + acc._values.itemsize) * 2  # noqa: SLF001
    return reduction_work_bytes(acc, incoming)


def ssar_recursive_double(comm: Communicator, stream: SparseStream, op: ReduceOp = SUM) -> SparseStream:
    """SSAR_Recursive_double: pairwise exchange + sparse merge, log2(P) rounds.

    Works for any P via the fold-in/fold-out relaxation of App. A. The
    result (identical on every rank) may come back dense if fill-in crossed
    ``delta`` — the stream header records which.
    """
    stream = _ensure_sparse(stream)
    if comm.size == 1:
        return stream.copy()
    comm.mark("ssar_rec_dbl")

    def combine(acc: SparseStream, incoming: SparseStream, label: str) -> SparseStream:
        comm.compute(_merge_work(acc, incoming), label)
        # the received stream is ours alone (freshly decoded / copied on
        # send), so the reduction may adopt its arrays outright
        return add_streams_(acc, incoming, op, own_other=True)

    result = recursive_doubling(comm, _accumulator(stream), combine, COLLECTIVE_TAG, COLLECTIVE_TAG + 63, "reduce")
    return _owned(result, stream)


def split_exchange(
    comm: Communicator, stream: SparseStream, bounds: np.ndarray, tag: int
) -> Iterator[SparseStream]:
    """The split phase's message exchange: the pieces of this rank's partition.

    Each rank slices its input by the dimension partition and sends slice
    ``j`` directly to rank ``j`` (buffered sends: complete on return, see
    :meth:`~repro.runtime.comm.Communicator.send`). Yields what the
    caller has to reduce, in the order that fixes the float association:
    this rank's own slice (views of ``stream``'s arrays) first, then the
    slices received from ranks ``rank-1, rank-2, ...`` (owned by the
    caller). All carry global indices. Latency ``(P-1) alpha``; bandwidth
    between 0 and ``k beta_s`` (§5.3.2).

    How the pieces are folded is the caller's: SSAR merges pair lists
    (:func:`split_phase`), DSAR scatters into a dense partition block
    (:mod:`~repro.collectives.dsar`).
    """
    P = comm.size
    comm.mark("split")
    for offset in range(1, P):
        dest = (comm.rank + offset) % P
        comm.send(slice_stream(stream, int(bounds[dest]), int(bounds[dest + 1])), dest, tag)
    yield slice_stream(stream, int(bounds[comm.rank]), int(bounds[comm.rank + 1]))
    for offset in range(1, P):
        yield comm.recv((comm.rank - offset) % P, tag)


def split_phase(
    comm: Communicator,
    stream: SparseStream,
    bounds: np.ndarray,
    tag: int,
    op: ReduceOp = SUM,
) -> SparseStream:
    """The split (reduce-scatter-by-range) phase of SSAR.

    Folds the pieces of :func:`split_exchange` with the sparse+sparse merge
    and returns this rank's reduced partition (global indices, sparse).
    """
    pieces = split_exchange(comm, stream, bounds, tag)
    own = next(pieces)
    # the fold starts from owned copies, so every later merge (incoming
    # pieces are owned too) can run zero-copy on its empty-side fast path
    idx, val = own.indices.copy(), own.values.copy()
    for piece in pieces:
        comm.compute((idx.size + piece.nnz) * (4 + own.value_dtype.itemsize) * 2, "reduce")
        idx, val = merge_sparse_pairs(idx, val, piece.indices, piece.values, op, copy=False)
    return SparseStream(
        stream.dimension, indices=idx, values=val, value_dtype=stream.value_dtype, copy=False
    )


def ssar_split_allgather(comm: Communicator, stream: SparseStream, op: ReduceOp = SUM) -> SparseStream:
    """SSAR_Split_allgather: split phase + sparse allgather (§5.3.2).

    Latency ``L2(P) = (P-1) alpha + log2(P) alpha``; bandwidth between
    ``2 (P-1)/P k beta_s`` and ``P k beta_s`` depending on overlap.
    """
    stream = _ensure_sparse(stream)
    if comm.size == 1:
        return stream.copy()
    bounds = partition_bounds(stream.dimension, comm.size)
    reduced = split_phase(comm, stream, bounds, COLLECTIVE_TAG, op)
    comm.mark("allgather")
    pieces = allgather_blocks(comm, reduced, COLLECTIVE_TAG + 1)
    comm.compute(
        sum(p.nnz for p in pieces) * (4 + stream.value_dtype.itemsize), "concat"
    )
    return concat_disjoint(pieces, stream.dimension)


def ssar_ring(comm: Communicator, stream: SparseStream, op: ReduceOp = SUM) -> SparseStream:
    """Sparse ring allreduce: ring reduce-scatter + ring allgather on slices.

    The "sparse counterpart" of the ring-based dense allreduce compared in
    the Fig. 3 micro-benchmarks. Bandwidth-efficient per stage but pays
    ``2 (P-1) alpha`` latency.
    """
    stream = _ensure_sparse(stream)
    P = comm.size
    if P == 1:
        return stream.copy()
    comm.mark("ssar_ring")
    bounds = partition_bounds(stream.dimension, P)
    slices = [slice_stream(stream, int(bounds[i]), int(bounds[i + 1])) for i in range(P)]

    def merge(acc: SparseStream, incoming: SparseStream, label: str) -> SparseStream:
        comm.compute(_merge_work(acc, incoming), label)
        # copy=False: the merged block is never mutated in place, only
        # re-sliced/concatenated, so view-aliasing on empty sides is safe
        idx, val = merge_sparse_pairs(
            acc.indices, acc.values, incoming.indices, incoming.values, op, copy=False
        )
        return SparseStream(
            stream.dimension, indices=idx, values=val,
            value_dtype=stream.value_dtype, copy=False,
        )

    slices = ring(comm, slices, merge, COLLECTIVE_TAG)
    comm.compute(sum(s.nnz for s in slices) * (4 + stream.value_dtype.itemsize), "concat")
    return concat_disjoint(slices, stream.dimension)
