"""Coordinator-based dense aggregation: the Apache Spark baseline (§8.2).

Spark's parameter aggregation (``treeAggregate`` + driver broadcast) is a
coordinator pattern: workers ship *dense* partial gradients up a reduction
tree rooted at the driver, the driver applies the update, and the new model
is broadcast back. It has no sparsity support — exactly the property the
paper's comparison isolates (the Spark numbers are quoted "with a grain of
salt" since Spark also pays for fault tolerance; our baseline reproduces
only the communication pattern).

``coordinator_allreduce`` is a drop-in allreduce with this pattern so the
MPI-OPT drivers can run unchanged against it.
"""

from __future__ import annotations

import numpy as np

from ..runtime.comm import COLLECTIVE_TAG, Communicator

__all__ = ["coordinator_allreduce", "tree_aggregate"]


def tree_aggregate(
    comm: Communicator, vec: np.ndarray, branching: int = 2, root: int = 0
) -> np.ndarray | None:
    """Tree reduction of dense vectors to ``root`` (treeAggregate analog).

    Ranks are organised as a ``branching``-ary tree rooted at ``root``
    (rank ids relative to the root). Returns the sum at the root, ``None``
    elsewhere.
    """
    if branching < 2:
        raise ValueError(f"branching factor must be >= 2, got {branching}")
    comm.mark("tree_aggregate")
    rel = (comm.rank - root) % comm.size
    acc = np.array(vec, copy=True)
    # children of rel are branching*rel + 1 .. branching*rel + branching
    for child_slot in range(1, branching + 1):
        child_rel = branching * rel + child_slot
        if child_rel < comm.size:
            child = (child_rel + root) % comm.size
            incoming = comm.recv(child, COLLECTIVE_TAG)
            comm.compute(acc.nbytes * 2, "reduce")
            acc += incoming
    if rel != 0:
        parent_rel = (rel - 1) // branching
        parent = (parent_rel + root) % comm.size
        comm.send(acc, parent, COLLECTIVE_TAG)
        return None
    return acc


def coordinator_allreduce(
    comm: Communicator, vec: np.ndarray, branching: int = 2, root: int = 0
) -> np.ndarray:
    """Dense allreduce through a coordinator: tree-gather then broadcast."""
    total = tree_aggregate(comm, vec, branching=branching, root=root)
    comm.mark("driver_broadcast")
    result = comm.bcast(total, root=root)
    return result
