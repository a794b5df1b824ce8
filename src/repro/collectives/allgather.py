"""Allgather algorithms over arbitrary payload blocks.

The split/allgather family of sparse allreduce algorithms needs an
allgather whose per-rank contribution is an *object* (a sparse partition, a
dense block, or a quantized block) rather than a fixed-size buffer. We
implement the two standard schedules:

* **recursive doubling** — log2(P) rounds, contribution sets merge and
  double each round; used when P is a power of two;
* **ring** — P-1 rounds each forwarding one rank's (growing set of) blocks;
  handles any P and is bandwidth-optimal.

Both return ``blocks[rank] -> payload`` for every rank. The paper's sparse
allgather is the recursive-doubling variant applied to index-disjoint
sparse streams, where "reduction" is pure concatenation (§5.1 case 2).

The ring's loop is :func:`ring_gather`, the one allgather ring of the
package: :func:`allgather_ring` runs it from this rank's own block, and
the ring allreduces (:func:`~repro.collectives.dense.ring`, shared by the
dense and the sparse family) from the block their reduce-scatter leaves
on each rank. It combines nothing; only the allreduces' reduce-scatter
does, through each family's combine.
"""

from __future__ import annotations

from typing import Any

from ..runtime.comm import COLLECTIVE_TAG, Communicator
from ..streams import SparseStream, concat_disjoint

__all__ = [
    "allgather_blocks",
    "allgather_recursive_doubling",
    "allgather_ring",
    "ring_gather",
    "sparse_allgather",
]


def allgather_recursive_doubling(comm: Communicator, block: Any, tag: int = COLLECTIVE_TAG) -> list[Any]:
    """Recursive-doubling allgather (P must be a power of two), round ``r``
    on ``tag + r``."""
    P = comm.size
    if P & (P - 1):
        raise ValueError(f"recursive doubling allgather needs a power-of-two P, got {P}")
    have: dict[int, Any] = {comm.rank: block}
    distance = 1
    round_no = 0
    while distance < P:
        partner = comm.rank ^ distance
        incoming = comm.sendrecv(dict(have), partner, tag + round_no)
        have.update(incoming)
        distance *= 2
        round_no += 1
    return [have[r] for r in range(P)]


def ring_gather(comm: Communicator, out: list, owner: int, tag: int) -> list:
    """The allgather ring: this rank holds ``out[owner]`` (owners are
    consecutive around the ring); P-1 steps forward one block each to the
    right, after which every slot of ``out`` is filled."""
    P = comm.size
    right, left = (comm.rank + 1) % P, (comm.rank - 1) % P
    for step in range(P - 1):
        comm.send(out[(owner - step) % P], right, tag)  # buffered: see send
        out[(owner - step - 1) % P] = comm.recv(left, tag)
    return out


def allgather_ring(comm: Communicator, block: Any, tag: int = COLLECTIVE_TAG) -> list[Any]:
    """Ring allgather on ``tag``: P-1 rounds forwarding one block per round; any P."""
    out: list[Any] = [None] * comm.size
    out[comm.rank] = block
    return ring_gather(comm, out, comm.rank, tag)


def allgather_blocks(comm: Communicator, block: Any, tag: int = COLLECTIVE_TAG) -> list[Any]:
    """Dispatch to recursive doubling (power-of-two P) or ring (any P);
    ``tag`` is the first tag they run on (the split allreduces gather on
    the second of their block)."""
    if comm.size & (comm.size - 1):
        return allgather_ring(comm, block, tag)
    return allgather_recursive_doubling(comm, block, tag)


def sparse_allgather(comm: Communicator, stream: SparseStream) -> SparseStream:
    """Allgather of index-disjoint sparse streams with concatenation merge.

    Each rank contributes a sparse stream whose support is disjoint from
    every other rank's (e.g. coordinate-descent updates on per-rank
    coordinate blocks, §8.2). The result is their concatenation — no
    arithmetic — available at every rank.
    """
    if stream.is_dense:
        raise ValueError("sparse_allgather expects sparse contributions")
    pieces = allgather_blocks(comm, stream)
    comm.compute(sum(p.nnz for p in pieces) * (stream.value_dtype.itemsize + 4), "concat")
    return concat_disjoint(pieces, stream.dimension)
