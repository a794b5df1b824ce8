"""Dynamic sparse allreduce: DSAR_Split_allgather (paper §5.3.3, §6).

When the reduced result ``K`` exceeds the sparse-efficiency threshold
``delta``, no sparse representation can win (Lemma 5.2: bandwidth is lower
bounded by ``delta * beta_d``, at best a ``1/(2 kappa)`` fraction of a fully
dense allreduce). DSAR is run exactly when that is expected, so the owner
of a partition pays dense prices from the first slice on:

1. the same *split* exchange as SSAR (data still sparse on the wire,
   :func:`~repro.collectives.sparse.split_exchange`),
2. **the representation switch, before the fold**: each rank starts its
   partition as a dense block of ``op.neutral`` and scatters every piece —
   its own slice, then the received ones — into it with §5.1's
   *dense += sparse* case. Per-piece work is proportional to the incoming
   slice, never to the running union, and nothing is densified afterwards;
3. an allgather of the dense partitions — optionally *quantizing* each
   partition first (QSGD, §6), which is exactly where the paper applies low
   precision: "we employ the low-precision data representation only in the
   second part of the DSAR_Split_allgather algorithm, where the data becomes
   dense". Every rank decodes the gathered blocks straight into its result
   vector.

The result is a dense stream on every rank (header flag = dense).
"""

from __future__ import annotations

import numpy as np

from ..config import INDEX_DTYPE
from ..quant import QSGDQuantizer, QuantizedBlock
from ..runtime.comm import COLLECTIVE_TAG, Communicator
from ..streams import SparseStream, add_streams_, reduction_work_bytes
from ..streams.ops import SUM, ReduceOp
from .allgather import allgather_blocks
from .dense import partition_bounds
from .sparse import _ensure_sparse, split_exchange

__all__ = ["dsar_split_allgather"]


def dsar_split_allgather(
    comm: Communicator,
    stream: SparseStream,
    quantizer: QSGDQuantizer | None = None,
    op: ReduceOp = SUM,
    bounds: np.ndarray | None = None,
) -> SparseStream:
    """DSAR_Split_allgather, optionally with a quantized dense stage.

    Parameters
    ----------
    comm:
        The communicator (all ranks call collectives in the same order).
    stream:
        This rank's sparse contribution.
    quantizer:
        When given, each rank quantizes its reduced dense partition before
        the allgather and every rank dequantizes all partitions after it.
        Each partition is quantized exactly once (by its owner), so the
        stochastic-rounding noise is applied once per entry.
    bounds:
        Override of the balanced dimension partition (``P + 1`` monotone
        offsets, rank ``j`` owning ``[bounds[j], bounds[j+1])``). The
        chunked ``dsar_hier`` uses it to keep coordinate *ownership* —
        which rank merges and densifies each coordinate, and therefore
        the float association — identical to a full-dimension run when
        the collective runs on a restriction of the dimension.

    Returns
    -------
    SparseStream
        The dense-representation sum, identical on all ranks up to the
        (unbiased) quantization noise of each owner rank. Unquantized, it
        has the bits of ``ssar_split_allgather(...).to_dense(op.neutral)``
        — same pieces, same order, same association — except for the
        sign of a zero: the fold starts from ``op.neutral``, so under SUM
        a coordinate whose only contributions are ``-0.0`` comes out
        ``+0.0`` (``0.0 + -0.0``), and MIN / MAX of a ``+0.0`` and a
        ``-0.0`` keep whichever the ufunc prefers in arrival order.
    """
    stream = _ensure_sparse(stream)
    vdt = stream.value_dtype
    if comm.size == 1:
        # the single rank owns the single partition: it must still densify
        # *and* quantize it exactly once, so the P=1 result follows the
        # same distribution as every P>1 run (where each partition is
        # quantized once by its owner)
        block = stream.to_dense(fill=op.neutral)
        comm.compute(block.nbytes, "densify")
        if quantizer is not None:
            qblock = quantizer.quantize(block)
            comm.compute(block.nbytes, "quantize")
            quantizer.dequantize(qblock, out=block)
            comm.compute(block.nbytes, "dequantize")
        return SparseStream(stream.dimension, dense=block, value_dtype=vdt, copy=False)
    if bounds is None:
        bounds = partition_bounds(stream.dimension, comm.size)

    # representation switch: this partition is dense before anything is
    # reduced into it, as a stream of its own (partition-local indices)
    lo, hi = int(bounds[comm.rank]), int(bounds[comm.rank + 1])
    block = np.full(hi - lo, op.neutral, dtype=vdt)
    acc = SparseStream(hi - lo, dense=block, value_dtype=vdt, copy=False)
    for piece in split_exchange(comm, stream, bounds, COLLECTIVE_TAG):
        local = SparseStream(
            hi - lo, indices=piece.indices - INDEX_DTYPE.type(lo), values=piece.values,
            value_dtype=vdt, copy=False,
        )
        comm.compute(reduction_work_bytes(acc, local), "reduce")
        add_streams_(acc, local, op)
    comm.compute(block.nbytes, "densify")

    comm.mark("allgather")
    dense = np.empty(stream.dimension, dtype=vdt)
    if quantizer is None:
        np.concatenate(allgather_blocks(comm, block, COLLECTIVE_TAG + 1), out=dense)
    else:
        qblock = quantizer.quantize(block)
        comm.compute(block.nbytes, "quantize")
        qblocks: list[QuantizedBlock] = allgather_blocks(comm, qblock, COLLECTIVE_TAG + 1)
        for owner, qb in enumerate(qblocks):
            quantizer.dequantize(qb, out=dense[int(bounds[owner]): int(bounds[owner + 1])])
        comm.compute(dense.nbytes, "dequantize")

    return SparseStream(stream.dimension, dense=dense, value_dtype=vdt, copy=False)
