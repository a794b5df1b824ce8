"""Tensor fusion: merging gradients of adjoining layers (paper §9).

"SparCML already implements several optimizations which are common in the
large-batch setting, such as merging gradients for adjoining layers
('tensor fusion'), or non-blocking operations."

Layer-wise gradient exchange sends one (small) collective per tensor and
pays the latency term per layer; whole-model exchange maximises bandwidth
efficiency but cannot overlap with backpropagation. Tensor fusion is the
standard middle ground: consecutive tensors are coalesced into buckets of
at least ``min_bucket_bytes`` and each bucket is reduced independently
(optionally with non-blocking collectives, overlapping with the rest of
the backward pass).

:class:`GradientFuser` computes the bucket layout once from the model's
tensor sizes and then slices/reduces flat gradient vectors. Each bucket
runs through the communicator's persistent plan for its shape
(:func:`~repro.collectives.api.cached_plan`; buckets of one size share
one), so a fused step resolves and binds only when a plan is first made
(or, for ``"auto"`` knobs, when the estimate a plan reads off its own
received results drifts), and the async mode queues every bucket on the
communicator's one long-lived progress thread instead of starting a
thread per step. The fuser does not know how a plan's selection is
agreed: after each plan's first run, a fused step sends only its
buckets' schedules.

The gradient's type chooses the path. A dense vector (a DNN's flat
gradient) is sliced per bucket, and the summed update comes back dense.
A :class:`~repro.streams.SparseStream` stays pairs end to end (§5.1): one
``searchsorted`` cuts its pairs per bucket, each bucket's
:class:`~repro.core.topk.ErrorFeedback` adds them where they fall and
selects among its residual's tracked support, and the update comes back
as a stream of the summed non-zeros over the layout. No step of the
stream path costs the model's width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.api import cached_plan
from ..config import INDEX_DTYPE
from ..quant import QSGDQuantizer
from ..runtime.comm import Communicator, Handle
from ..streams import SparseStream
from .topk import ErrorFeedback, quantize_stream_values

__all__ = ["FusedBucket", "FusedPendingUpdate", "GradientFuser"]


def _fused_update(
    totals: list, out: "np.ndarray | None", dimension: int
) -> "np.ndarray | SparseStream":
    """The update from each ``(bucket, summed stream)``: scattered into the
    dense vector ``out``, or, when ``out`` is None, the totals' non-zeros
    as one stream of ``dimension`` — stored zeros dropped, so it names the
    coordinates the dense form's non-zeros do."""
    if out is not None:
        for bucket, total in totals:
            out[bucket.start: bucket.stop] = total.to_dense()
        return out
    indices, values = [], []
    for bucket, total in totals:
        if total.is_dense:
            idx = np.flatnonzero(total.dense_payload)
            val = total.dense_payload[idx]
        else:
            keep = total.values != 0
            idx, val = total.indices[keep], total.values[keep]
        indices.append(idx + bucket.start)
        values.append(val)
    val = np.concatenate(values)
    return SparseStream(
        dimension, indices=np.concatenate(indices).astype(INDEX_DTYPE, copy=False),
        values=val, value_dtype=val.dtype, copy=False,
    )


class FusedPendingUpdate(Handle):
    """In-flight fused allreduce: one started plan run per bucket.

    The runs queue on the communicator's progress thread in layout order;
    ``wait()`` joins every one of them in that order — past a failed
    bucket too, so each run's trace rows reach the rank's log — then
    re-raises the first failed bucket's error, or returns the update: the
    dense vector for a dense gradient, a stream of the summed non-zeros
    for a stream.
    """

    def __init__(self, runs: list, out: "np.ndarray | None", dimension: int) -> None:
        self._runs, self._out, self._dimension = runs, out, dimension

    def wait(self) -> "np.ndarray | SparseStream":
        if self._runs:
            self._runs[-1][1].settle()  # one wake-up: the runs finish in order
            totals, error = [], None
            for bucket, handle in self._runs:
                try:
                    totals.append((bucket, handle.wait()))
                except Exception as exc:  # re-raised once every run is joined
                    error = error or exc
            if error is not None:
                raise error
            self._out = _fused_update(totals, self._out, self._dimension)
            self._runs = []
        return self._out

    def test(self) -> bool:
        return all(handle.test() for _, handle in self._runs)


@dataclass(frozen=True)
class FusedBucket:
    """One fused segment of the flat parameter space."""

    index: int
    start: int
    stop: int
    tensor_names: tuple[str, ...]

    @property
    def size(self) -> int:
        return self.stop - self.start


class GradientFuser:
    """Coalesce per-tensor gradients into communication buckets.

    Parameters
    ----------
    tensor_sizes:
        Ordered (name, element count) pairs — the model's flattening order.
    min_bucket_bytes:
        Keep appending tensors to the current bucket until it reaches this
        size (the last bucket may be smaller). 0 means one bucket per
        tensor (pure layer-wise communication).
    value_itemsize:
        Bytes per gradient element (4 for float32).
    """

    def __init__(
        self,
        tensor_sizes: list[tuple[str, int]],
        min_bucket_bytes: int = 1 << 20,
        value_itemsize: int = 4,
    ) -> None:
        if not tensor_sizes:
            raise ValueError("tensor_sizes must not be empty")
        if any(size < 0 for _, size in tensor_sizes):
            raise ValueError("tensor sizes must be non-negative")
        if min_bucket_bytes < 0:
            raise ValueError("min_bucket_bytes must be >= 0")
        self.tensor_sizes = list(tensor_sizes)
        self.total_size = sum(size for _, size in tensor_sizes)
        self.buckets: list[FusedBucket] = []
        start = 0
        names: list[str] = []
        acc = 0
        for name, size in tensor_sizes:
            names.append(name)
            acc += size
            if acc * value_itemsize >= min_bucket_bytes and acc > 0:
                self.buckets.append(
                    FusedBucket(len(self.buckets), start, start + acc, tuple(names))
                )
                start += acc
                names, acc = [], 0
        if acc or not self.buckets:
            self.buckets.append(
                FusedBucket(len(self.buckets), start, start + acc, tuple(names))
            )

    @classmethod
    def from_network(cls, net, min_bucket_bytes: int = 1 << 20) -> "GradientFuser":
        """Build from a Sequential/LSTMClassifier's parameter layout."""
        sizes: list[tuple[str, int]] = []
        if hasattr(net, "layers"):
            for i, layer in enumerate(net.layers):
                for j, p in enumerate(layer.params):
                    sizes.append((f"layer{i}.p{j}", p.size))
            if not sizes:
                sizes.append(("empty", 0))
        else:
            for j, p in enumerate(net.params):
                sizes.append((f"p{j}", p.size))
        return cls(sizes, min_bucket_bytes=min_bucket_bytes)

    # ------------------------------------------------------------------
    @property
    def n_buckets(self) -> int:
        return len(self.buckets)

    def slices(self) -> list[slice]:
        """Flat-vector slices, one per bucket, covering [0, total_size)."""
        return [slice(b.start, b.stop) for b in self.buckets]

    def _segments(
        self, grad: "np.ndarray | SparseStream", error_feedback: list[ErrorFeedback]
    ) -> list:
        """Each bucket's float32 part of ``grad``: a slice of a dense
        vector, or the bucket's pairs of a sparse stream, cut with one
        ``searchsorted``."""
        shape = (grad.dimension,) if isinstance(grad, SparseStream) else grad.shape
        if shape != (self.total_size,):
            raise ValueError(f"gradient shape {shape} != ({self.total_size},)")
        if len(error_feedback) != self.n_buckets:
            raise ValueError(
                f"need {self.n_buckets} ErrorFeedback states, got {len(error_feedback)}"
            )
        if isinstance(grad, SparseStream):
            idx, val = grad.indices, grad.values.astype(np.float32, copy=False)
            ends = np.searchsorted(idx, [b.stop for b in self.buckets]).tolist()
            return [
                SparseStream(
                    b.size, indices=idx[lo:hi] - b.start, values=val[lo:hi],
                    value_dtype=np.float32, copy=False,
                )
                for b, lo, hi in zip(self.buckets, [0, *ends], ends)
            ]
        return [grad[b.start: b.stop].astype(np.float32, copy=False) for b in self.buckets]

    def i_fused_allreduce(
        self,
        comm: Communicator,
        grad: "np.ndarray | SparseStream",
        error_feedback: list[ErrorFeedback],
        algorithm: str = "auto",
        quantizer: QSGDQuantizer | None = None,
        chunks: "int | str" = 1,
    ) -> FusedPendingUpdate:
        """Async mode: every bucket's plan started on one progress thread.

        TopK selection (and optional value quantization) and every
        bucket's plan resolution run eagerly on the calling thread; then
        each bucket's plan is started
        (:meth:`~repro.collectives.api.AllreducePlan.start`), and the
        communicator's one long-lived progress thread reduces the buckets
        in layout order while the caller computes. The returned
        :class:`FusedPendingUpdate` joins them and hands back the update
        (dense, or a stream for a stream ``grad``) with per-bucket error
        feedback state.

        This is the layer-wise communication path the paper uses for DNN
        training ("communication is done layer-wise using non-blocking
        calls", §8.3), at the fused-bucket granularity; ``wait()`` at once
        is the blocking form. ``chunks`` pipelines each bucket's
        hierarchical collective (see
        :func:`~repro.collectives.api.sparse_allreduce`). With
        ``algorithm="auto"`` each bucket's plan selects and re-selects on
        its own (see :func:`~repro.collectives.api.allreduce_plan`).
        """
        # every bucket selects (error-feedback state mutates in program
        # order) and takes the communicator's cached plan for its shape,
        # which resolves its "auto" knobs itself; only then do runs start
        planned = []
        for bucket, segment, ef in zip(
            self.buckets, self._segments(grad, error_feedback), error_feedback
        ):
            sent = ef.select(segment)
            if quantizer is not None:
                sent = quantize_stream_values(sent, quantizer)
            planned.append((bucket, cached_plan(comm, sent, algorithm, chunks=chunks), sent))
        runs = [(bucket, plan.start(sent)) for bucket, plan, sent in planned]
        out = None if isinstance(grad, SparseStream) else np.empty_like(grad)
        return FusedPendingUpdate(runs, out, self.total_size)

    def make_error_feedback(
        self, k: int, bucket_size: int | None = 512
    ) -> list[ErrorFeedback]:
        """Fresh per-bucket error-feedback states matching the layout.

        ``k``/``bucket_size`` follow the TopK conventions of
        :class:`~repro.core.topk.ErrorFeedback` — at most ``k`` of every
        ``bucket_size`` coordinates, never an exact zero; for global
        selection (``bucket_size=None``) ``k`` is clamped to each fused
        bucket's size.
        """
        return [
            ErrorFeedback(
                b.size,
                min(k, b.size) if bucket_size is None else k,
                bucket_size,
                value_dtype=np.float32,
            )
            for b in self.buckets
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GradientFuser({len(self.tensor_sizes)} tensors -> "
            f"{self.n_buckets} buckets, {self.total_size} params)"
        )
