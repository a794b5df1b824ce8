"""Momentum correction and warm-up training (paper §8.4, following [38]).

For the ResNet50 experiments the paper "implemented techniques such as
momentum correction and warm-up training [Lin et al., Deep Gradient
Compression] to alleviate" the accuracy loss of aggressive sparsification.
This module provides both:

* **momentum correction** — instead of accumulating raw gradients into the
  error-feedback residual, accumulate the *momentum-corrected velocity*:

      u_t = m * u_{t-1} + g_t          (local momentum)
      acc = residual + lr * u_t        (what TopK selects from)

  Applying momentum before sparsification preserves the direction the
  dense momentum-SGD would take; applying it after (the naive way) damps
  sparse coordinates and hurts convergence.
* **warm-up training** — ramp the sparsity over the first epochs: start
  sending a dense-ish selection and decay the per-bucket k exponentially
  to the target (equivalently, ramp sparsity 75% -> 93.75% -> 98.4% -> ...
  as in DGC).

The driver mirrors :func:`~repro.core.topk_sgd.quantized_topk_sgd` so the
two can be compared head-to-head (benchmarked in the ablations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.api import sparse_allreduce
from ..quant import QSGDQuantizer
from ..runtime.comm import Communicator
from .topk import ErrorFeedback, quantize_stream_values
from .topk_sgd import EvalFn, GradFn, TopKSGDResult

__all__ = ["DGCConfig", "WarmupSchedule", "dgc_sgd"]


@dataclass(frozen=True)
class WarmupSchedule:
    """Exponential sparsity warm-up: k decays from dense-ish to the target.

    For step ``t < warmup_steps`` the per-bucket selection is::

        k_t = max(k_target, round(bucket * dense_fraction * decay**t))

    with ``decay`` chosen so that k reaches ``k_target`` at the end of the
    warm-up window; afterwards ``k_t = k_target``.
    """

    k_target: int
    bucket_size: int
    warmup_steps: int = 0
    dense_fraction: float = 0.25

    def k_at(self, step: int) -> int:
        if self.warmup_steps <= 0 or step >= self.warmup_steps:
            return self.k_target
        k0 = max(self.k_target, int(round(self.bucket_size * self.dense_fraction)))
        if k0 <= self.k_target:
            return self.k_target
        # geometric interpolation from k0 down to k_target
        ratio = (self.k_target / k0) ** (step / self.warmup_steps)
        return max(self.k_target, int(round(k0 * ratio)))


@dataclass
class DGCConfig:
    """Hyper-parameters for momentum-corrected sparse SGD."""

    k: int
    bucket_size: int = 512
    lr: float = 0.05
    momentum: float = 0.9
    warmup_steps: int = 0
    warmup_dense_fraction: float = 0.25
    quantizer_bits: int | None = None
    quantizer_bucket: int = 512
    algorithm: str = "auto"
    seed: int = 0
    lr_decay: float = 0.0

    def schedule(self) -> WarmupSchedule:
        return WarmupSchedule(
            k_target=self.k,
            bucket_size=self.bucket_size,
            warmup_steps=self.warmup_steps,
            dense_fraction=self.warmup_dense_fraction,
        )

    def learning_rate(self, step: int) -> float:
        return self.lr / (1.0 + self.lr_decay * step)


def dgc_sgd(
    comm: Communicator,
    grad_fn: GradFn,
    dimension: int,
    steps: int,
    config: DGCConfig,
    eval_fn: EvalFn | None = None,
    eval_every: int = 10,
    init_params: np.ndarray | None = None,
) -> TopKSGDResult:
    """Momentum-corrected TopK SGD with sparsity warm-up.

    All ranks call collectively with identical configuration. Compared to
    plain Algorithm 1, the residual accumulates *velocity* rather than raw
    gradient, and the selection density follows the warm-up schedule.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not 0.0 <= config.momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {config.momentum}")
    params = (
        np.zeros(dimension, dtype=np.float32)
        if init_params is None
        else init_params.astype(np.float32, copy=True)
    )
    velocity = np.zeros(dimension, dtype=np.float32)
    ef = ErrorFeedback(dimension, config.k, config.bucket_size, value_dtype=np.float32)
    schedule = config.schedule()
    quantizer = (
        QSGDQuantizer(
            bits=config.quantizer_bits,
            bucket_size=config.quantizer_bucket,
            seed=config.seed * 6271 + comm.rank,
        )
        if config.quantizer_bits is not None
        else None
    )
    result = TopKSGDResult(params=params)

    for step in range(steps):
        lr = config.learning_rate(step)
        grad = grad_fn(params, step).astype(np.float32, copy=False)
        if grad.shape != (dimension,):
            raise ValueError(f"grad_fn returned shape {grad.shape}, expected ({dimension},)")
        comm.compute(grad.nbytes * 4, "grad")
        # momentum correction: accumulate velocity, sparsify the velocity
        velocity *= config.momentum
        velocity += grad
        ef.k = schedule.k_at(step)
        sent = ef.select(lr * velocity)
        if quantizer is not None:
            sent = quantize_stream_values(sent, quantizer)
        result.bytes_sent_per_step.append(sent.nbytes_payload)
        total = sparse_allreduce(comm, sent, algorithm=config.algorithm)
        update = total.to_dense()
        comm.compute(update.nbytes * 2, "apply")
        params -= update
        if eval_fn is not None and (step % eval_every == 0 or step == steps - 1):
            result.history.append({"step": step, **eval_fn(params)})

    result.final_residual_norm = ef.residual_norm
    return result
