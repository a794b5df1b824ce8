"""Distributed minibatch SGD for sparse linear models (MPI-OPT, §8.2).

Each rank holds a contiguous shard of the dataset and a replica of the
weight vector. Per step, ranks compute the sparse minibatch gradient of
their shard, sum it across ranks with a SparCML sparse allreduce (lossless:
no sparsification, the data's natural sparsity is exploited), and apply the
averaged update. The dense baseline runs the identical computation with a
dense allreduce — exactly the Table 2 comparison.

Compute work (gradient evaluation, model update) is charged to the trace
so replayed times include both terms; comm-only time is obtained by
replaying with ``gamma = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..collectives.api import dense_allreduce, sparse_allreduce
from ..runtime.comm import Communicator
from .datasets import SparseDataset, partition_rows
from .linear import LinearModel
from .metrics import EpochRecord, RunHistory

__all__ = ["SGDConfig", "distributed_sgd"]


@dataclass
class SGDConfig:
    """Hyper-parameters for the distributed SGD drivers.

    ``batch_size`` is *per rank* (the paper uses large global batches,
    1000 x P); ``mode`` selects the communication layer: ``"sparse"`` for
    SparCML collectives, ``"dense"`` for the MPI baseline.
    """

    epochs: int = 2
    batch_size: int = 100
    lr: float = 0.5
    mode: str = "sparse"  # "sparse" | "dense"
    algorithm: str = "auto"  # collective algorithm (or dense_* for dense mode)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("sparse", "dense"):
            raise ValueError(f"mode must be 'sparse' or 'dense', got {self.mode!r}")
        if self.epochs < 0 or self.batch_size < 1 or self.lr <= 0:
            raise ValueError("invalid SGD configuration")


def distributed_sgd(
    comm: Communicator,
    dataset: SparseDataset,
    model: LinearModel,
    config: SGDConfig,
    eval_dataset: SparseDataset | None = None,
) -> RunHistory:
    """Run data-parallel SGD at one rank; all ranks call collectively.

    The full dataset is passed everywhere and sharded deterministically by
    rank (this mirrors MPI-OPT's MPI-IO partitioning without a filesystem).
    Evaluation uses the *full* dataset (identical on all ranks), so every
    rank records the same history.
    """
    shard = partition_rows(dataset.n_samples, comm.size, comm.rank)
    X_local: sp.csr_matrix = dataset.X[shard]
    y_local = dataset.y[shard]
    n_local = X_local.shape[0]
    if n_local == 0:
        raise ValueError(f"rank {comm.rank} received an empty shard")

    eval_X = (eval_dataset or dataset).X
    eval_y = (eval_dataset or dataset).y

    rng = np.random.default_rng(config.seed * 100003 + comm.rank)
    w = np.zeros(model.n_features, dtype=np.float64)
    history = RunHistory()
    steps_per_epoch = max(1, n_local // config.batch_size)
    dense_mode = config.mode == "dense"
    dense_algo = config.algorithm if config.algorithm.startswith("dense") else "dense_rabenseifner"

    sent = SentBytes(comm)
    for epoch in range(config.epochs):
        grad_nnz: list[int] = []
        for _ in range(steps_per_epoch):
            rows = rng.choice(n_local, size=min(config.batch_size, n_local), replace=False)
            X_batch = X_local[rows]
            y_batch = y_local[rows]
            comm.mark("compute")
            # gradient work ~ touching every batch nonzero a few times
            comm.compute(int(X_batch.nnz) * 16, "grad")
            grad = model.grad_stream(w, X_batch, y_batch)
            grad_nnz.append(grad.nnz)
            if dense_mode:
                total = dense_allreduce(comm, grad.to_dense(), algorithm=dense_algo)
                comm.mark("compute")
                comm.compute(total.nbytes * 2, "apply")
                model.apply_regularization(w, config.lr)
                w -= (config.lr / comm.size) * total.astype(np.float64)
            else:
                total_stream = sparse_allreduce(comm, grad, algorithm=config.algorithm)
                comm.mark("compute")
                model.apply_regularization(w, config.lr)
                if total_stream.is_dense:
                    comm.compute(total_stream.dense_payload.nbytes * 2, "apply")
                    w -= (config.lr / comm.size) * total_stream.dense_payload.astype(np.float64)
                else:
                    comm.compute(total_stream.nnz * 12, "apply")
                    idx = total_stream.indices.astype(np.int64)
                    w[idx] -= (config.lr / comm.size) * total_stream.values.astype(np.float64)
        history.add(
            EpochRecord(
                epoch=epoch,
                loss=model.loss(w, eval_X, eval_y),
                accuracy=model.accuracy(w, eval_X, eval_y),
                grad_nnz_mean=float(np.mean(grad_nnz)) if grad_nnz else 0.0,
                bytes_sent=sent.since_last_read(comm),
            )
        )
    history.params = w
    return history


class SentBytes:
    """A rank's sent bytes per epoch, read off its trace (any backend's).

    Keeps a row cursor: each read sums the ``nbytes`` column over only the
    events recorded since the previous one, so no event is built and the
    log is not rescanned at every epoch boundary (quadratic over a run).
    Only the rank's own thread appends to its log (a background launch
    records privately and is flushed at ``wait``), so nothing lands
    between reading the cursor and the sum.
    """

    def __init__(self, comm: Communicator) -> None:
        # trace events are attributed to *world* ranks, so read through
        # world_rank — on a sub/elastic communicator the group rank differs
        self._cursor = len(comm.trace.events(comm.world_rank))

    def since_last_read(self, comm: Communicator) -> int:
        """Bytes sent since construction or the previous read; ``comm``
        is the rank's current communicator (a shrink replaces it)."""
        rank = comm.world_rank
        start, self._cursor = self._cursor, len(comm.trace.events(rank))
        return comm.trace.bytes_sent_by(rank, since=start)
