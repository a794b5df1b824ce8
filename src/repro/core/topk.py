"""Top-K gradient sparsification with error feedback (paper §2.2, §4).

Two selection rules are provided:

* **global** Top-K — the k largest-magnitude entries of the whole vector
  (the classic Top-k SGD of Aji & Heafield / Dryden et al.);
* **per-bucket** Top-K — k largest entries out of every bucket of ``B``
  consecutive coordinates, the rule the paper actually deploys ("gradients
  are split into groups of 512 consecutive coordinates, out of which we
  select the 4 largest ones", §8.4). Per-bucket selection is GPU-friendly
  and guarantees support spread across the model.

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


def topk_global_indices(vec: np.ndarray, k: int) -> np.ndarray:
    """Sorted indices of the ``k`` largest-magnitude entries of ``vec``."""
    n = vec.shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    if k == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    if k == n:
        return np.arange(n, dtype=INDEX_DTYPE)
    part = np.argpartition(np.abs(vec), n - k)[n - k:]
    part.sort()
    return part.astype(INDEX_DTYPE)


def topk_bucket_indices(vec: np.ndarray, k: int, bucket_size: int) -> np.ndarray:
    """Sorted indices selecting the ``k`` largest entries of every bucket.

    The last bucket may be shorter than ``bucket_size``; it contributes
    ``min(k, len)`` entries.
    """
    n = vec.shape[0]
    if bucket_size < 1:
        raise ValueError(f"bucket_size must be >= 1, got {bucket_size}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0 or n == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    k = min(k, bucket_size)
    full_end = (n // bucket_size) * bucket_size
    picks: list[np.ndarray] = []
    if full_end:
        mat = np.abs(vec[:full_end]).reshape(-1, bucket_size)
        if k >= bucket_size:
            sel = np.tile(np.arange(bucket_size), (mat.shape[0], 1))
        else:
            sel = np.argpartition(mat, bucket_size - k, axis=1)[:, bucket_size - k:]
        offs = (np.arange(mat.shape[0]) * bucket_size)[:, None]
        picks.append((sel + offs).reshape(-1))
    tail = n - full_end
    if tail:
        kt = min(k, tail)
        tail_abs = np.abs(vec[full_end:])
        if kt >= tail:
            sel_t = np.arange(tail)
        else:
            sel_t = np.argpartition(tail_abs, tail - kt)[tail - kt:]
        picks.append(sel_t + full_end)
    idx = np.concatenate(picks)
    idx.sort()
    return idx.astype(INDEX_DTYPE)


def topk_stream(
    vec: np.ndarray,
    k: int,
    bucket_size: int | None = None,
) -> SparseStream:
    """Select Top-K entries of a dense vector as a sparse stream.

    ``bucket_size=None`` selects globally; otherwise per bucket.
    """
    if bucket_size is None:
        idx = topk_global_indices(vec, k)
    else:
        idx = topk_bucket_indices(vec, k, bucket_size)
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


class ErrorFeedback:
    """Residual accumulator of Algorithm 1.

    Per step ``t``::

        acc   = residual + scaled_gradient        # accumulate error
        sent  = TopK(acc)                          # what the node ships
        residual = acc - sent                      # error kept locally

    Invariant (tested property): ``dense(sent) + residual == acc`` exactly.
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

    def select(self, scaled_gradient: np.ndarray) -> SparseStream:
        """Accumulate, select Top-K, update the residual; returns the stream."""
        if scaled_gradient.shape != self.residual.shape:
            raise ValueError(
                f"gradient shape {scaled_gradient.shape} != ({self.dimension},)"
            )
        acc = self.residual + scaled_gradient.astype(self.residual.dtype, copy=False)
        stream = topk_stream(acc, self.k, self.bucket_size)
        self.residual = acc
        if stream.nnz:
            self.residual[stream.indices.astype(np.int64)] = 0.0
        return stream

    @property
    def residual_norm(self) -> float:
        """l2 norm of the locally held error (diagnostic)."""
        return float(np.linalg.norm(self.residual))

    def reset(self) -> None:
        self.residual[:] = 0.0
