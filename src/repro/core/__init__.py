"""The paper's primary contribution: TopK sparsification + Algorithm 1
(with §8.4's momentum correction and warm-up as two of its options)."""

from .fusion import FusedBucket, FusedPendingUpdate, GradientFuser
from .topk import (
    ErrorFeedback,
    quantize_stream_values,
    topk_bucket_indices,
    topk_global_indices,
    topk_stream,
)
from .topk_sgd import TopKSGDConfig, TopKSGDResult, dense_sgd, quantized_topk_sgd

__all__ = [
    "FusedBucket",
    "FusedPendingUpdate",
    "GradientFuser",
    "ErrorFeedback",
    "quantize_stream_values",
    "topk_bucket_indices",
    "topk_global_indices",
    "topk_stream",
    "TopKSGDConfig",
    "TopKSGDResult",
    "dense_sgd",
    "quantized_topk_sgd",
]
