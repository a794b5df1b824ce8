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
(:func:`~repro.collectives.api.cached_plan`), so a fused step resolves,
takes tags and builds subgroups only when a plan is first made (or, for
``"auto"`` knobs, when a bucket's agreed nnz drifts: each bucket's plan
re-decides from its own), and the async mode queues every bucket on the
communicator's one long-lived progress thread instead of starting a
thread per step. A fused step agrees once: one vector round carries
every bucket's nnz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.api import agreement_tag, cached_plan
from ..costmodel.adaptive import Agreed, consistent_mean
from ..quant import QSGDQuantizer
from ..runtime.comm import Communicator, Handle
from .topk import ErrorFeedback, quantize_stream_values

__all__ = ["FusedBucket", "FusedPendingUpdate", "GradientFuser"]


class FusedPendingUpdate(Handle):
    """In-flight fused allreduce: one started plan run per bucket.

    The runs queue on the communicator's progress thread in layout order;
    ``wait()`` joins them in that order, scattering each dense total into
    the fused output vector it returns, and re-raises the first failed
    bucket's error.
    """

    def __init__(self, runs: list, out: np.ndarray) -> None:
        self._runs, self._out = runs, out

    def wait(self) -> np.ndarray:
        if self._runs:
            self._runs[-1][1].settle()  # one wake-up: the runs finish in order
        for bucket, handle in self._runs:
            self._out[bucket.start: bucket.stop] = handle.wait().to_dense()
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

    def _check_fused_args(
        self, grad: np.ndarray, error_feedback: list[ErrorFeedback]
    ) -> None:
        if grad.shape != (self.total_size,):
            raise ValueError(f"gradient shape {grad.shape} != ({self.total_size},)")
        if len(error_feedback) != self.n_buckets:
            raise ValueError(
                f"need {self.n_buckets} ErrorFeedback states, got {len(error_feedback)}"
            )

    def fused_topk_allreduce(
        self,
        comm: Communicator,
        grad: np.ndarray,
        error_feedback: list[ErrorFeedback],
        algorithm: str = "auto",
        quantizer: QSGDQuantizer | None = None,
        chunks: "int | str" = 1,
    ) -> np.ndarray:
        """TopK-sparsified allreduce per fused bucket; returns the summed
        update, dense, with per-bucket error feedback state.

        This is the layer-wise communication path the paper uses for DNN
        training ("communication is done layer-wise using non-blocking
        calls", §8.3), at the fused-bucket granularity — blocking here,
        :meth:`i_fused_allreduce` is the asynchronous form.
        ``chunks`` pipelines each bucket's
        hierarchical collective (see
        :func:`~repro.collectives.api.sparse_allreduce`). With
        ``algorithm="auto"`` each bucket's plan selects from the bucket's
        agreed nnz and re-selects as it drifts. Whatever the knobs, a call
        runs at most one agreement round (see :meth:`_plan`).
        """
        out = np.empty_like(grad)
        for bucket, plan, sent, estimate in self._plan(
            comm, grad, error_feedback, algorithm, quantizer, chunks
        ):
            out[bucket.start: bucket.stop] = plan(sent, agreed=estimate).to_dense()
        return out

    def _plan(self, comm, grad, error_feedback, algorithm, quantizer, chunks) -> list:
        """The calling-thread half of a fused call: select, agree, plan.

        TopK selection runs first, so error-feedback state mutates in
        program order. Then *one* agreement round settles everything the
        call's ``"auto"`` knobs need — every bucket's selected nnz rides
        the same vector, on the communicator's agreement tags — and each
        bucket's cached plan
        (:func:`~repro.collectives.api.cached_plan`) resolves from its
        pre-agreed estimate without messages of its own, re-pricing only
        when that estimate drifted. Returns ``(bucket, plan, stream,
        estimate)`` per bucket.
        """
        self._check_fused_args(grad, error_feedback)
        selected = []
        for bucket, ef in zip(self.buckets, error_feedback):
            segment = grad[bucket.start: bucket.stop]
            sent = ef.select(segment.astype(np.float32, copy=False))
            if quantizer is not None:
                sent = quantize_stream_values(sent, quantizer)
            selected.append(sent)
        agreed: "list[Agreed | None]" = [None] * len(selected)
        if "auto" in (algorithm, chunks):
            nnz = [float(s.nnz) for s in selected]
            agreed = [Agreed(m) for m in consistent_mean(comm, nnz, agreement_tag(comm))]
        return [
            (bucket, cached_plan(comm, sent, algorithm, chunks=chunks), sent, estimate)
            for bucket, sent, estimate in zip(self.buckets, selected, agreed)
        ]

    def i_fused_allreduce(
        self,
        comm: Communicator,
        grad: np.ndarray,
        error_feedback: list[ErrorFeedback],
        algorithm: str = "auto",
        quantizer: QSGDQuantizer | None = None,
        chunks: "int | str" = 1,
    ) -> FusedPendingUpdate:
        """Async mode: every bucket's plan started on one progress thread.

        TopK selection (and optional value quantization), the call's one
        agreement round and every bucket's plan run eagerly on the
        calling thread; then each bucket's plan is started
        (:meth:`~repro.collectives.api.AllreducePlan.start`), and the
        communicator's one long-lived progress thread reduces the buckets
        in layout order while the caller computes. The returned
        :class:`FusedPendingUpdate` joins them and hands back the dense
        update; results are bit-identical to
        :meth:`fused_topk_allreduce` (same selection, same collectives,
        unquantized).
        """
        runs = [
            (bucket, plan.start(sent, agreed=estimate))
            for bucket, plan, sent, estimate in self._plan(
                comm, grad, error_feedback, algorithm, quantizer, chunks
            )
        ]
        return FusedPendingUpdate(runs, np.empty_like(grad))

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
