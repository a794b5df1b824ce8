"""Linear models with sparse gradients (MPI-OPT's workloads, §8.2).

Logistic regression and (smoothed-subgradient) SVM on CSR feature
matrices. The key property exploited by the experiments: for a linear
model, the minibatch gradient's support is exactly the union of the
batch rows' feature supports —

    grad = X_batch^T @ dloss / m

— so on trigram-like data the gradient is naturally sparse and SparCML's
*lossless* sparse allreduce applies ("we do not sparsify or quantize the
gradient updates, but exploit the fact that data and hence gradients tend
to be sparse", §8.2).

``grad_stream`` builds the sparse gradient directly from the CSR internals
(no dense intermediates), returning a :class:`~repro.streams.SparseStream`.
"""

from __future__ import annotations

import abc

import numpy as np
import scipy.sparse as sp

from ..streams import SparseStream
from ..config import INDEX_DTYPE

__all__ = ["LinearModel", "LogisticRegression", "LinearSVM", "sparse_grad_from_batch"]


def sparse_grad_from_batch(
    X_batch: sp.csr_matrix, dloss: np.ndarray, value_dtype: np.dtype | type = np.float32
) -> SparseStream:
    """``X_batch^T @ dloss / m`` as a sparse stream (support = row union).

    Works directly on the CSR buffers: entry ``(i, j, x)`` contributes
    ``x * dloss[i] / m`` to coordinate ``j``; duplicates merge by sum.
    """
    m, n_features = X_batch.shape
    if dloss.shape != (m,):
        raise ValueError(f"dloss shape {dloss.shape} != ({m},)")
    if m == 0 or X_batch.nnz == 0:
        return SparseStream.zeros(n_features, value_dtype=value_dtype)
    row_counts = np.diff(X_batch.indptr)
    contrib = X_batch.data * np.repeat(dloss, row_counts) / m
    cols = X_batch.indices.astype(INDEX_DTYPE, copy=False)
    order = np.argsort(cols, kind="stable")
    cols = cols[order]
    contrib = contrib[order]
    # collapse duplicate columns
    boundary = np.empty(cols.shape[0], dtype=bool)
    boundary[0] = True
    np.not_equal(cols[1:], cols[:-1], out=boundary[1:])
    starts = np.nonzero(boundary)[0]
    summed = np.add.reduceat(contrib, starts).astype(value_dtype)
    return SparseStream(
        n_features,
        indices=cols[starts].copy(),
        values=summed,
        value_dtype=value_dtype,
        copy=False,
    )


class LinearModel(abc.ABC):
    """Binary linear classifier ``sign(X @ w)`` with L2 regularisation."""

    def __init__(self, n_features: int, reg: float = 1e-4) -> None:
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        if reg < 0:
            raise ValueError(f"reg must be >= 0, got {reg}")
        self.n_features = n_features
        self.reg = reg

    # per-sample loss and its derivative wrt the margin y * score
    @abc.abstractmethod
    def _loss_terms(self, margins: np.ndarray) -> np.ndarray:
        """Per-sample losses given ``margins = y * (X @ w)``."""

    @abc.abstractmethod
    def _dloss_dscore(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        """d(loss)/d(score) per sample."""

    # ------------------------------------------------------------------
    def margins(self, w: np.ndarray, X: sp.csr_matrix, y: np.ndarray) -> np.ndarray:
        return y * (X @ w)

    def loss(self, w: np.ndarray, X: sp.csr_matrix, y: np.ndarray) -> float:
        """Mean loss + L2 penalty."""
        m = self.margins(w, X, y)
        data = float(np.mean(self._loss_terms(m))) if m.size else 0.0
        # not ``w @ w``: every rank process inherits a BLAS pool sized for
        # the whole machine, and OpenBLAS workers spin after each call —
        # one vector dot per epoch burned as much CPU (127 ms) as the
        # epoch's eight training steps. einsum reduces on this thread,
        # without a temporary.
        return data + 0.5 * self.reg * float(np.einsum("i,i->", w, w))

    def accuracy(self, w: np.ndarray, X: sp.csr_matrix, y: np.ndarray) -> float:
        if X.shape[0] == 0:
            return 0.0
        scores = X @ w
        return float(np.mean(np.sign(scores) == np.sign(y)))

    def grad_stream(
        self, w: np.ndarray, X_batch: sp.csr_matrix, y_batch: np.ndarray
    ) -> SparseStream:
        """Sparse minibatch gradient of the *data* term.

        The L2 term is dense and rank-local; apply it separately via
        :meth:`apply_regularization` so the communicated update stays
        sparse (standard practice; preserves the optimum).
        """
        scores = X_batch @ w
        dloss = self._dloss_dscore(y_batch * scores, y_batch)
        return sparse_grad_from_batch(X_batch, dloss, value_dtype=np.float32)

    def grad_dense(self, w: np.ndarray, X: sp.csr_matrix, y: np.ndarray) -> np.ndarray:
        """Full-batch dense gradient (data term + regulariser); reference."""
        scores = X @ w
        dloss = self._dloss_dscore(y * scores, y)
        g = np.asarray(X.T @ dloss).ravel() / max(X.shape[0], 1)
        return g + self.reg * w

    def apply_regularization(self, w: np.ndarray, lr: float) -> None:
        """In-place L2 shrinkage ``w *= (1 - lr * reg)``."""
        w *= 1.0 - lr * self.reg


class LogisticRegression(LinearModel):
    """Binary logistic regression: ``loss = log(1 + exp(-y s))``."""

    def _loss_terms(self, margins: np.ndarray) -> np.ndarray:
        # numerically stable log(1 + exp(-m))
        return np.logaddexp(0.0, -margins)

    def _dloss_dscore(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        from scipy.special import expit

        return -y * expit(-margins)


class LinearSVM(LinearModel):
    """L2-regularised hinge-loss SVM: ``loss = max(0, 1 - y s)``."""

    def _loss_terms(self, margins: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, 1.0 - margins)

    def _dloss_dscore(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.where(margins < 1.0, -y, 0.0)
