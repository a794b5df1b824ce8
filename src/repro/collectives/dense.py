"""Dense allreduce baselines (the algorithms MPI libraries ship, §5.3).

These are the comparison points of the paper's evaluation:

* **recursive doubling** — log2(P) rounds of pairwise exchange of the full
  vector; latency-optimal, bandwidth-suboptimal (`log2(P) * N * beta`);
* **ring** — reduce-scatter ring followed by an allgather ring; bandwidth
  optimal (``2 (P-1)/P N beta``) but latency ``2 (P-1) alpha``;
* **Rabenseifner** — recursive-halving reduce-scatter followed by a
  recursive-doubling allgather; ``2 log2(P) alpha + 2 (P-1)/P N beta``.

All operate on 1-D numpy arrays, work for any P (non-powers of two are
folded in/out following App. A), and charge local reduction work to the
trace so replay accounts for computation.

The recursive-doubling schedule (:func:`recursive_doubling`, App. A's
fold included) and the ring (:func:`ring`: reduce-scatter, then
:func:`~repro.collectives.allgather.ring_gather`) are written once, here,
and shared with the sparse allreduces of :mod:`~repro.collectives.sparse`:
each family supplies only its combine ``combine(acc, incoming, label) ->
acc``, which charges its work under ``label``. The dense combine is
``op.combine(acc, incoming, out=acc)`` on a copy of the input;
Rabenseifner folds and reduce-scatters through it too.
"""

from __future__ import annotations

import numpy as np

from ..runtime.comm import COLLECTIVE_TAG, Communicator
from ..streams.ops import SUM, ReduceOp
from .allgather import ring_gather

__all__ = [
    "partition_bounds",
    "recursive_doubling",
    "ring",
    "allreduce_recursive_doubling",
    "allreduce_ring",
    "allreduce_rabenseifner",
    "DENSE_ALGORITHMS",
]


def partition_bounds(dimension: int, nparts: int) -> np.ndarray:
    """Balanced partition offsets: part ``i`` covers ``[b[i], b[i+1])``.

    Uses the balanced ``i*N//P`` rule (App. A's relaxation of the "N
    divisible by P" assumption, with the remainder spread instead of dumped
    on the last rank).
    """
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    if dimension < 0:
        raise ValueError(f"dimension must be >= 0, got {dimension}")
    return np.array([(i * dimension) // nparts for i in range(nparts + 1)], dtype=np.int64)


def _fold_prelude(comm: Communicator, acc, combine, tag: int, label: str):
    """Fold non-power-of-two ranks into a power-of-two group (App. A).

    Returns ``(newrank, pof2, rem, acc)``; ``newrank`` is -1 for ranks that
    sit out the main algorithm and receive the result afterwards.
    """
    pof2 = 1
    while pof2 * 2 <= comm.size:
        pof2 *= 2
    rem = comm.size - pof2
    if comm.rank >= 2 * rem:
        return comm.rank - rem, pof2, rem, acc
    if comm.rank % 2 == 0:
        comm.send(acc, comm.rank + 1, tag)
        return -1, pof2, rem, acc
    acc = combine(acc, comm.recv(comm.rank - 1, tag), label)
    return comm.rank // 2, pof2, rem, acc


def _fold_epilogue(comm: Communicator, acc, rem: int, tag: int):
    """Return results to the folded-out ranks."""
    if comm.rank < 2 * rem:
        if comm.rank % 2 == 0:
            return comm.recv(comm.rank + 1, tag)
        comm.send(acc, comm.rank - 1, tag)
    return acc


def _real_rank(newrank: int, rem: int) -> int:
    """Map a folded group rank back to the world rank."""
    return newrank * 2 + 1 if newrank < rem else newrank + rem


def recursive_doubling(comm: Communicator, acc, combine, tag: int, back_tag: int, fold_label: str):
    """Recursive-doubling allreduce of ``acc``, any P (App. A's fold).

    ``combine(acc, incoming, label) -> acc`` is the reduction (charging its
    work under ``label``): ``fold_label`` for the fold, ``"reduce"`` for
    the log2(P) rounds on tags ``tag + 1, tag + 2, ...``. The fold goes on
    ``tag``, the result back to the folded-out ranks on ``back_tag``.
    """
    newrank, pof2, rem, acc = _fold_prelude(comm, acc, combine, tag, fold_label)
    if newrank >= 0:
        for round_no in range(1, pof2.bit_length()):
            partner = _real_rank(newrank ^ (1 << (round_no - 1)), rem)
            acc = combine(acc, comm.sendrecv(acc, partner, tag + round_no), "reduce")
    return _fold_epilogue(comm, acc, rem, back_tag)


def ring(comm: Communicator, blocks: list, combine, tag: int) -> list:
    """Ring allreduce of ``blocks`` (block ``i`` reduces into rank ``i - 1``).

    A reduce-scatter ring on ``tag``, folding each received block through
    ``combine(acc, incoming, "reduce") -> acc``; after P-1 steps rank ``r``
    holds the reduced block ``r + 1``, which the allgather ring on
    ``tag + 1`` circulates. A single tag per phase suffices: messages on
    one channel are FIFO, so step s+1 can never overtake step s.
    """
    P = comm.size
    right, left = (comm.rank + 1) % P, (comm.rank - 1) % P
    for step in range(P - 1):
        recv_block = (comm.rank - step - 1) % P
        comm.send(blocks[(comm.rank - step) % P], right, tag)  # buffered: see send
        incoming = comm.recv(left, tag)
        blocks[recv_block] = combine(blocks[recv_block], incoming, "reduce")
    return ring_gather(comm, blocks, comm.rank + 1, tag + 1)


def _combine(comm: Communicator, op: ReduceOp):
    """The dense reduction: ``acc op= incoming`` in place."""
    def combine(acc: np.ndarray, incoming: np.ndarray, label: str) -> np.ndarray:
        comm.compute(acc.nbytes * 2, label)
        return op.combine(acc, incoming, out=acc)

    return combine


def allreduce_recursive_doubling(
    comm: Communicator, vec: np.ndarray, op: ReduceOp = SUM
) -> np.ndarray:
    """Dense allreduce via recursive doubling; returns the reduced vector."""
    vec = np.asarray(vec)
    if comm.size == 1:
        return vec.copy()
    comm.mark("dense_rec_dbl")
    return recursive_doubling(comm, vec.copy(), _combine(comm, op), COLLECTIVE_TAG, COLLECTIVE_TAG, "fold")


def allreduce_ring(comm: Communicator, vec: np.ndarray, op: ReduceOp = SUM) -> np.ndarray:
    """Dense allreduce via reduce-scatter ring + allgather ring."""
    vec = np.asarray(vec)
    P = comm.size
    if P == 1:
        return vec.copy()
    comm.mark("dense_ring")
    bounds = partition_bounds(vec.shape[0], P)
    blocks = [vec[bounds[i]: bounds[i + 1]].copy() for i in range(P)]
    return np.concatenate(ring(comm, blocks, _combine(comm, op), COLLECTIVE_TAG))


def allreduce_rabenseifner(
    comm: Communicator, vec: np.ndarray, op: ReduceOp = SUM
) -> np.ndarray:
    """Rabenseifner's algorithm: recursive-halving RS + recursive-doubling AG.

    ``2 log2(P) alpha + 2 (P-1)/P N beta`` — the large-message workhorse the
    paper's SSAR_Split_allgather is modelled on.
    """
    vec = np.asarray(vec)
    if comm.size == 1:
        return vec.copy()
    base = COLLECTIVE_TAG
    comm.mark("dense_rabenseifner")
    combine = _combine(comm, op)
    newrank, pof2, rem, work = _fold_prelude(comm, vec.copy(), combine, base, "fold")
    if newrank >= 0:
        lo, hi = 0, work.shape[0]
        distance = pof2 // 2
        round_no = 1
        # recursive halving reduce-scatter: shrink [lo, hi) each round
        while distance >= 1:
            in_low_half = not newrank & distance
            mid = lo + (hi - lo) // 2
            partner = _real_rank(newrank ^ distance, rem)
            if in_low_half:
                send_slice, keep = work[mid:hi], (lo, mid)
            else:
                send_slice, keep = work[lo:mid], (mid, hi)
            incoming = comm.sendrecv(send_slice, partner, base + round_no)
            lo, hi = keep
            combine(work[lo:hi], incoming, "reduce")
            distance //= 2
            round_no += 1
        # allgather by recursive doubling: grow [lo, hi) back to [0, n)
        distance = 1
        while distance < pof2:
            in_low_half = not newrank & distance
            partner = _real_rank(newrank ^ distance, rem)
            incoming = comm.sendrecv(work[lo:hi], partner, base + round_no)
            if in_low_half:
                work[hi: hi + incoming.shape[0]] = incoming
                hi += incoming.shape[0]
            else:
                work[lo - incoming.shape[0]: lo] = incoming
                lo -= incoming.shape[0]
            distance *= 2
            round_no += 1
    return _fold_epilogue(comm, work, rem, base)


DENSE_ALGORITHMS = {
    "dense_rec_dbl": allreduce_recursive_doubling,
    "dense_ring": allreduce_ring,
    "dense_rabenseifner": allreduce_rabenseifner,
}
