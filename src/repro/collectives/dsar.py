"""Dynamic sparse allreduce: DSAR_Split_allgather (paper §5.3.3, §6).

When the reduced result ``K`` exceeds the sparse-efficiency threshold
``delta``, no sparse representation can win (Lemma 5.2: bandwidth is lower
bounded by ``delta * beta_d``, at best a ``1/(2 kappa)`` fraction of a fully
dense allreduce). DSAR therefore:

1. runs the same *split* phase as SSAR (data still sparse on the wire),
2. **switches representation**: each rank densifies its reduced partition,
3. allgathers the dense partitions — optionally *quantizing* each partition
   first (QSGD, §6), which is exactly where the paper applies low precision:
   "we employ the low-precision data representation only in the second part
   of the DSAR_Split_allgather algorithm, where the data becomes dense".

The result is a dense stream on every rank (header flag = dense).
"""

from __future__ import annotations

import numpy as np

from ..quant import QSGDQuantizer, QuantizedBlock
from ..runtime.comm import Communicator
from ..streams import SparseStream
from ..streams.ops import SUM, ReduceOp
from .allgather import allgather_blocks
from .dense import partition_bounds
from .sparse import _ensure_sparse, split_phase

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
        (unbiased) quantization noise of each owner rank.
    """
    stream = _ensure_sparse(stream)
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
            block = quantizer.dequantize(qblock).astype(stream.value_dtype)
            comm.compute(block.nbytes, "dequantize")
        return SparseStream(
            stream.dimension, dense=block, value_dtype=stream.value_dtype, copy=False
        )
    base = comm.next_collective_tag()
    if bounds is None:
        bounds = partition_bounds(stream.dimension, comm.size)
    reduced = split_phase(comm, stream, bounds, base, op)

    # representation switch: this partition is now treated as dense
    lo, hi = int(bounds[comm.rank]), int(bounds[comm.rank + 1])
    block = np.full(hi - lo, op.neutral, dtype=stream.value_dtype)
    if reduced.nnz:
        block[reduced.indices.astype(np.int64) - lo] = reduced.values
    comm.compute(block.nbytes, "densify")

    comm.mark("allgather")
    if quantizer is None:
        blocks = allgather_blocks(comm, block, base + 1)
        dense = np.concatenate(blocks)
    else:
        qblock = quantizer.quantize(block)
        comm.compute(block.nbytes, "quantize")
        qblocks: list[QuantizedBlock] = allgather_blocks(comm, qblock, base + 1)
        parts = [quantizer.dequantize(qb) for qb in qblocks]
        comm.compute(sum(p.nbytes for p in parts), "dequantize")
        dense = np.concatenate(parts).astype(stream.value_dtype)

    return SparseStream(stream.dimension, dense=dense, value_dtype=stream.value_dtype, copy=False)
