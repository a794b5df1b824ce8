"""Quantized TopK SGD — the paper's Algorithm 1.

Every rank ``i`` holds a model replica ``v`` and a residual ``eps_i`` and
iterates::

    acc_i   <- eps_i + lr * grad_i(v)            # accumulate error
    eps_i   <- acc_i - TopK(acc_i)               # update the error
    g_i     <- allreduce(Q(TopK(acc_i)), SUM)    # sparse (quantized) sum
    v       <- v - g_i                           # apply the update

The allreduce is a SparCML sparse collective; the optional quantizer is
applied to the selected values before the reduction (the ``Q`` of
Algorithm 1), and/or inside DSAR's dense stage (§6). Because quantization
happens *before* the sum, every rank computes bit-identical totals and the
replicas stay consistent.

For the ResNet50 experiments the paper "implemented techniques such as
momentum correction and warm-up training [Lin et al., Deep Gradient
Compression] to alleviate" the accuracy loss of aggressive
sparsification (§8.4). Both are options of the same loop:

* **momentum correction** (``momentum > 0``) — instead of accumulating
  raw gradients into the error-feedback residual, accumulate the
  *momentum-corrected velocity*::

      u_t = m * u_{t-1} + g_t          (local momentum)
      acc = residual + lr * u_t        (what TopK selects from)

  Applying momentum before sparsification preserves the direction the
  dense momentum-SGD would take; applying it after (the naive way) damps
  sparse coordinates and hurts convergence.
* **warm-up training** (``warmup_steps > 0``) — ramp the sparsity over
  the first steps: start from a selection of a quarter of every bucket
  and decay the per-bucket k geometrically to the target (equivalently,
  ramp sparsity 75% -> 93.75% -> 98.4% -> ... as in DGC).

With both at 0 the loop is plain Algorithm 1.

The driver is model-agnostic: it consumes a gradient callback and an
optional evaluation callback, so linear models (:mod:`repro.mlopt`) and
neural networks (:mod:`repro.nn`) reuse the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..collectives.api import dense_allreduce, sparse_allreduce
from ..quant import QSGDQuantizer
from ..runtime.comm import Communicator
from .topk import ErrorFeedback, quantize_stream_values

__all__ = ["TopKSGDConfig", "TopKSGDResult", "quantized_topk_sgd", "dense_sgd"]

#: gradient callback: (params, step) -> stochastic gradient at this rank.
GradFn = Callable[[np.ndarray, int], np.ndarray]
#: evaluation callback: params -> metrics dict (loss/accuracy/...).
EvalFn = Callable[[np.ndarray], dict[str, float]]


@dataclass
class TopKSGDConfig:
    """Hyper-parameters of Algorithm 1.

    ``k``/``bucket_size`` follow the paper's notation "k out of every bucket
    of B consecutive elements" (e.g. k=8, B=512 is ~1.6% density);
    ``bucket_size=None`` selects the k largest entries globally.
    ``momentum`` and ``warmup_steps`` switch on §8.4's momentum correction
    and sparsity warm-up (module docstring).
    """

    k: int
    bucket_size: int | None = 512
    lr: float = 0.05
    momentum: float = 0.0
    warmup_steps: int = 0
    quantizer_bits: int | None = None
    algorithm: str = "auto"
    seed: int = 0
    lr_decay: float = 0.0  # lr_t = lr / (1 + decay * t), Thm 4.1's schedule

    def learning_rate(self, step: int) -> float:
        return self.lr / (1.0 + self.lr_decay * step)


def _warmup_k(config: TopKSGDConfig, bucket: int, step: int) -> int:
    """The per-bucket k of ``step``: during warm-up it decays geometrically
    from a quarter of the ``bucket`` to ``config.k``, reaching it at
    ``warmup_steps``; it never drops below ``config.k``."""
    k0 = max(config.k, int(round(bucket * 0.25)))
    if step >= config.warmup_steps or k0 <= config.k:
        return config.k
    return max(config.k, int(round(k0 * (config.k / k0) ** (step / config.warmup_steps))))


@dataclass
class TopKSGDResult:
    """Outcome of one rank's run (identical params on all ranks)."""

    params: np.ndarray
    history: list[dict[str, Any]] = field(default_factory=list)
    bytes_sent_per_step: list[int] = field(default_factory=list)
    final_residual_norm: float = 0.0

    @property
    def mean_bytes_per_step(self) -> float:
        if not self.bytes_sent_per_step:
            return 0.0
        return float(np.mean(self.bytes_sent_per_step))


def quantized_topk_sgd(
    comm: Communicator,
    grad_fn: GradFn,
    dimension: int,
    steps: int,
    config: TopKSGDConfig,
    eval_fn: EvalFn | None = None,
    eval_every: int = 10,
    init_params: np.ndarray | None = None,
) -> TopKSGDResult:
    """Run Algorithm 1 at one rank for ``steps`` iterations.

    All ranks must call this collectively with the same configuration.
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
    velocity = np.zeros(dimension, dtype=np.float32) if config.momentum else None
    ef = ErrorFeedback(dimension, config.k, config.bucket_size, value_dtype=np.float32)
    quantizer = (
        QSGDQuantizer(
            bits=config.quantizer_bits,
            bucket_size=512,  # QSGD's norm bucket, not top-k's ``bucket_size``
            seed=config.seed * 7919 + comm.rank,
        )
        if config.quantizer_bits is not None
        else None
    )
    result = TopKSGDResult(params=params)

    for step in range(steps):
        lr = config.learning_rate(step)
        grad = grad_fn(params, step)
        if grad.shape != (dimension,):
            raise ValueError(f"grad_fn returned shape {grad.shape}, expected ({dimension},)")
        if velocity is None:
            comm.compute(grad.nbytes * 3, "grad")
            acc = grad.astype(np.float32, copy=False)
        else:
            # momentum correction: accumulate velocity, sparsify the velocity
            grad = grad.astype(np.float32, copy=False)
            comm.compute(grad.nbytes * 4, "grad")
            velocity *= config.momentum
            velocity += grad
            acc = velocity
        if config.warmup_steps:
            ef.k = _warmup_k(config, config.bucket_size or dimension, step)
        sent = ef.select(lr * acc)
        if quantizer is not None:
            sent = quantize_stream_values(sent, quantizer)
        result.bytes_sent_per_step.append(sent.nbytes_payload)
        total = sparse_allreduce(comm, sent, algorithm=config.algorithm)
        update = total.to_dense()
        comm.compute(update.nbytes * 2, "apply")
        params -= update
        if eval_fn is not None and (step % eval_every == 0 or step == steps - 1):
            metrics = {"step": step, **eval_fn(params)}
            result.history.append(metrics)

    result.final_residual_norm = ef.residual_norm
    return result


def dense_sgd(
    comm: Communicator,
    grad_fn: GradFn,
    dimension: int,
    steps: int,
    lr: float = 0.05,
    lr_decay: float = 0.0,
    algorithm: str = "dense_rabenseifner",
    eval_fn: EvalFn | None = None,
    eval_every: int = 10,
    init_params: np.ndarray | None = None,
) -> TopKSGDResult:
    """The full-precision data-parallel SGD baseline (§2.1)."""
    params = (
        np.zeros(dimension, dtype=np.float32)
        if init_params is None
        else init_params.astype(np.float32, copy=True)
    )
    result = TopKSGDResult(params=params)
    for step in range(steps):
        step_lr = lr / (1.0 + lr_decay * step)
        grad = grad_fn(params, step).astype(np.float32, copy=False)
        comm.compute(grad.nbytes * 3, "grad")
        result.bytes_sent_per_step.append(grad.nbytes + 8)
        total = dense_allreduce(comm, grad, algorithm=algorithm)
        comm.compute(total.nbytes * 2, "apply")
        params -= step_lr * total
        if eval_fn is not None and (step % eval_every == 0 or step == steps - 1):
            result.history.append({"step": step, **eval_fn(params)})
    return result
