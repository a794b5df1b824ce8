"""Top-K gradient sparsification with error feedback (paper §2.2, §4).

Two selection rules are provided:

* **global** Top-K — the k largest-magnitude entries of the whole vector
  (the classic Top-k SGD of Aji & Heafield / Dryden et al.);
* **per-bucket** Top-K — k largest entries out of every bucket of ``B``
  consecutive coordinates, the rule the paper actually deploys ("gradients
  are split into groups of 512 consecutive coordinates, out of which we
  select the 4 largest ones", §8.4). Per-bucket selection is GPU-friendly
  and guarantees support spread across the model.

Both select among the **non-zeros** only — at most ``k``, never an exact
zero: a stream stores the non-zero pairs (§5.1), and an accumulator with
fewer non-zeros than the rule asks for must not pad what it ships with
explicit ``0.0`` entries.

:class:`ErrorFeedback` maintains the residual ``epsilon`` of Algorithm 1:
components not selected are accumulated locally and re-injected into the
next step's gradient, which is what makes TopK SGD convergent (Thm 4.1).
"""

from __future__ import annotations

import numpy as np

from ..config import INDEX_DTYPE
from ..quant import QSGDQuantizer
from ..streams import SparseStream

__all__ = [
    "topk_global_indices",
    "topk_bucket_indices",
    "topk_stream",
    "quantize_stream_values",
    "ErrorFeedback",
]


def _nonzero_candidates(vec: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """The positions among sorted ``candidates`` where ``vec`` is non-zero."""
    candidates = candidates.astype(np.intp, copy=False)
    return candidates[vec[candidates] != 0]


def topk_global_indices(
    vec: np.ndarray, k: int, candidates: np.ndarray | None = None
) -> np.ndarray:
    """Sorted indices of the at most ``k`` largest-magnitude non-zeros of ``vec``.

    Never the index of an exact zero (``-0.0`` is zero, NaN is not, as
    ``!= 0`` says): a vector with fewer than ``k`` non-zeros returns all
    of them and nothing else. ``candidates`` — sorted unique positions
    that hold every non-zero of ``vec`` — replaces the scan for them.
    """
    n = vec.shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    if k == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    if candidates is None:
        # through the boolean mask: count_nonzero / flatnonzero of the
        # float vector itself are several times slower
        nonzero = vec != 0
        count = np.count_nonzero(nonzero)
        if count <= k:
            return np.flatnonzero(nonzero).astype(INDEX_DTYPE)
        # without a zero anywhere (DNN gradients) the non-zeros are the
        # vector itself, positions and all
        idx = None if count == n else np.flatnonzero(nonzero)
    else:
        idx = _nonzero_candidates(vec, candidates)
        count = idx.size
        if count <= k:
            return idx.astype(INDEX_DTYPE)
    # partition the non-zeros' magnitudes only — a vector's zeros tie, and
    # argpartition over ties is many times slower
    magnitudes = np.abs(vec if idx is None else vec[idx])
    top = np.argpartition(magnitudes, count - k)[count - k:]
    top.sort()
    return (top if idx is None else idx[top]).astype(INDEX_DTYPE)


def _row_topk_nonzero(mat: np.ndarray, k: int, kept: np.ndarray | None = None) -> np.ndarray:
    """Flat positions, in no order, of the ``min(k, non-zeros)``
    largest-magnitude non-zeros of every row of ``mat``.

    ``kept`` — the flat positions of every non-zero of ``mat`` — replaces
    the scan for them. Rows holding at most ``k`` non-zeros contribute
    exactly those and are never partitioned; a row's zeros tie, and
    ``argpartition`` on a tie-heavy row is 5-6x slower than on random data.
    """
    rows, width = mat.shape
    if kept is None:
        nonzero = mat != 0
        if k < width and np.count_nonzero(nonzero) == mat.size:
            # no zero anywhere (DNN gradients): every row is partitioned
            # and nothing is counted per row
            return _partition_rows(np.abs(mat), k, np.arange(rows))
        kept = np.flatnonzero(nonzero)
    row_of = kept // width
    over = np.bincount(row_of, minlength=rows) > k
    if not over.any():
        return kept
    partitioned = np.flatnonzero(over)
    return np.concatenate(
        (kept[~over[row_of]], _partition_rows(np.abs(mat[partitioned]), k, partitioned))
    )


def _partition_rows(magnitudes: np.ndarray, k: int, partitioned: np.ndarray) -> np.ndarray:
    """Flat positions of each row's ``k`` largest ``magnitudes``, the rows
    ``partitioned`` of a matrix as wide; more than ``k`` of each row are
    positive (or NaN, which sorts last), so its ``k`` largest hold no zero."""
    width = magnitudes.shape[1]
    top = np.argpartition(magnitudes, width - k, axis=1)[:, width - k:]
    return (top + (partitioned * width)[:, None]).reshape(-1)


def topk_bucket_indices(
    vec: np.ndarray, k: int, bucket_size: int, candidates: np.ndarray | None = None
) -> np.ndarray:
    """Sorted indices of at most ``k`` entries of every bucket, never a zero.

    Per bucket of ``bucket_size`` consecutive coordinates (the last may
    be shorter): its ``min(k, non-zeros in the bucket)`` largest-magnitude
    **non-zero** coordinates (``-0.0`` is zero, NaN is not, as ``!= 0``
    says). The work follows the non-zeros, not the dimension; on input
    without zeros this is the ``k`` largest of every bucket.
    ``candidates`` — sorted unique positions that hold every non-zero of
    ``vec`` — replaces the scan for them: only the buckets holding more
    than ``k`` of them are read whole.
    """
    n = vec.shape[0]
    if bucket_size < 1:
        raise ValueError(f"bucket_size must be >= 1, got {bucket_size}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0 or n == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    full_end = (n // bucket_size) * bucket_size
    full = tail = None
    if candidates is not None:
        kept = _nonzero_candidates(vec, candidates)
        if not kept.size or np.bincount(kept // bucket_size).max() <= k:
            # no bucket holds more than k non-zeros: they are the selection
            return kept.astype(INDEX_DTYPE)
        cut = np.searchsorted(kept, full_end)
        full, tail = kept[:cut], kept[cut:] - full_end
    picks: list[np.ndarray] = []
    if full_end:
        picks.append(_row_topk_nonzero(vec[:full_end].reshape(-1, bucket_size), k, full))
    if full_end < n:
        picks.append(_row_topk_nonzero(vec[full_end:].reshape(1, -1), k, tail) + full_end)
    idx = np.concatenate(picks)
    idx.sort()
    return idx.astype(INDEX_DTYPE)


def topk_stream(
    vec: np.ndarray,
    k: int,
    bucket_size: int | None = None,
    candidates: np.ndarray | None = None,
) -> SparseStream:
    """Select Top-K entries of a dense vector as a sparse stream.

    ``bucket_size=None`` selects globally; otherwise per bucket. Either
    way the stream holds at most ``k`` entries (per bucket), never an
    exact zero: ``stream.nnz == stream.stored_nonzeros``. ``candidates``
    are as for :func:`topk_bucket_indices`.
    """
    if bucket_size is None:
        idx = topk_global_indices(vec, k, candidates)
    else:
        idx = topk_bucket_indices(vec, k, bucket_size, candidates)
    return SparseStream(
        vec.shape[0], indices=idx, values=vec[idx.astype(np.int64)],
        value_dtype=vec.dtype, copy=False,
    )


def quantize_stream_values(stream: SparseStream, quantizer: QSGDQuantizer) -> SparseStream:
    """Apply QSGD to the *values* of a sparse stream: ``Q(TopK(acc))``.

    The returned stream carries the stochastically rounded values and is
    annotated with the effective wire bytes per value (``bits/8`` plus the
    amortised per-bucket scale), so traces charge the true low-precision
    payload size.
    """
    if stream.is_dense:
        raise ValueError("quantize_stream_values expects a sparse stream")
    if stream.nnz == 0:
        out = stream.copy()
        out.value_wire_bytes = quantizer.bits / 8.0
        return out
    block = quantizer.quantize(stream.values.astype(np.float32, copy=False))
    values = quantizer.dequantize(block).astype(stream.value_dtype, copy=False)
    out = SparseStream(
        stream.dimension,
        indices=stream.indices.copy(),
        values=values,
        value_dtype=stream.value_dtype,
        copy=False,
    )
    nbuckets = max(1, int(np.ceil(stream.nnz / quantizer.bucket_size)))
    out.value_wire_bytes = quantizer.bits / 8.0 + 4.0 * nbuckets / stream.nnz
    return out


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted unique union of two sorted unique position arrays."""
    if not a.size:
        return b
    both = np.concatenate((a, b))
    both.sort()
    return both[np.concatenate(([True], both[1:] != both[:-1]))]


class ErrorFeedback:
    """Residual accumulator of Algorithm 1.

    Per step ``t``::

        acc   = residual + scaled_gradient        # accumulate error
        sent  = TopK(acc)                          # what the node ships
        residual = acc - sent                      # error kept locally

    ``sent`` holds at most ``k`` entries (per bucket), never an exact
    zero. Invariant (tested property): ``dense(sent) + residual == acc``
    exactly. ``residual`` is written only by :meth:`select` and
    :meth:`reset`: the stream path tracks where it may be non-zero.
    """

    def __init__(
        self,
        dimension: int,
        k: int,
        bucket_size: int | None = None,
        value_dtype: np.dtype | type = np.float32,
    ) -> None:
        if dimension < 0:
            raise ValueError(f"dimension must be >= 0, got {dimension}")
        self.dimension = dimension
        self.k = k
        self.bucket_size = bucket_size
        self.residual = np.zeros(dimension, dtype=value_dtype)
        #: sorted positions that may hold a non-zero of the residual; None
        #: after a dense call, until the next stream call scans for them
        self._support: np.ndarray | None = np.empty(0, dtype=np.intp)

    def select(self, scaled_gradient: "np.ndarray | SparseStream") -> SparseStream:
        """Accumulate, select Top-K, update the residual; returns the stream.

        A dense gradient is added to the whole residual, and selection
        scans all of it. A sparse stream's pairs are added where they
        fall (``residual[idx] += values``), and selection reads only the
        residual's tracked support — the positions earlier pairs left
        non-zero and this stream's — so a step costs what the gradient
        and the residual hold, not the dimension. Both select the same
        coordinates and leave the same residual, bit for bit: the
        residual never holds ``-0.0``, so adding the dense form's zeros
        changes nothing.
        """
        if isinstance(scaled_gradient, SparseStream):
            if scaled_gradient.dimension != self.dimension:
                raise ValueError(
                    f"gradient dimension {scaled_gradient.dimension} != {self.dimension}"
                )
            if self._support is None:
                self._support = np.flatnonzero(self.residual)
            idx = scaled_gradient.indices.astype(np.intp)
            self.residual[idx] += scaled_gradient.values.astype(self.residual.dtype, copy=False)
            support = _union(self._support, idx)
        else:
            if scaled_gradient.shape != self.residual.shape:
                raise ValueError(
                    f"gradient shape {scaled_gradient.shape} != ({self.dimension},)"
                )
            self.residual += scaled_gradient.astype(self.residual.dtype, copy=False)
            support = None
        stream = topk_stream(self.residual, self.k, self.bucket_size, support)
        if stream.nnz:
            self.residual[stream.indices.astype(np.int64)] = 0.0
        self._support = None if support is None else support[self.residual[support] != 0]
        return stream

    @property
    def residual_norm(self) -> float:
        """l2 norm of the locally held error (diagnostic)."""
        return float(np.linalg.norm(self.residual))

    def reset(self) -> None:
        self.residual[:] = 0.0
        self._support = np.empty(0, dtype=np.intp)
