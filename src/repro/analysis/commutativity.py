"""Empirical measurement of Assumption C.2's commutativity gap ``xi``.

The convergence proof (Appendix C) assumes the sum of per-node TopK
selections stays close to the TopK of the summed accumulator:

    || TopK(mean_p(a_p)) - mean_p(TopK(a_p)) ||  <=  xi * ||mean gradient||

The constant ``xi`` is not derived — the paper calls it "a (small)
constant". This module measures it on concrete workloads, both to sanity-
check the assumption on the synthetic gradients we train with and as an
analysis tool for users' own gradient distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CommutativityGap", "measure_commutativity_gap"]


@dataclass(frozen=True)
class CommutativityGap:
    """One measurement of the Assumption C.2 quantities."""

    gap_norm: float
    reference_norm: float
    xi: float
    n_nodes: int
    k: int

    def satisfied_with(self, xi_bound: float) -> bool:
        """Whether this sample satisfies the assumption with constant
        ``xi_bound``."""
        return self.gap_norm <= xi_bound * self.reference_norm + 1e-12


def _topk_vector(vec: np.ndarray, k: int, bucket_size: int | None) -> np.ndarray:
    # imported lazily: repro.collectives pulls in repro.analysis at import
    # time (through repro.costmodel), and repro.core pulls in
    # repro.collectives — a module-level import here would close the cycle
    from ..core.topk import topk_bucket_indices, topk_global_indices

    if bucket_size is None:
        idx = topk_global_indices(vec, min(k, vec.shape[0]))
    else:
        idx = topk_bucket_indices(vec, k, bucket_size)
    out = np.zeros_like(vec)
    sel = idx.astype(np.int64)
    out[sel] = vec[sel]
    return out


def measure_commutativity_gap(
    accumulators: list[np.ndarray],
    k: int,
    bucket_size: int | None = 512,
) -> CommutativityGap:
    """Measure ``xi`` for one set of per-node accumulators.

    Parameters
    ----------
    accumulators:
        The per-node vectors ``a_p = lr * grad_p + eps_p`` of one step.
    k, bucket_size:
        The TopK selection rule in use.

    Returns
    -------
    CommutativityGap
        ``xi = ||TopK(mean) - mean(TopK)|| / ||mean||`` (0 when the mean
        accumulator is 0).
    """
    if not accumulators:
        raise ValueError("need at least one accumulator")
    dims = {a.shape for a in accumulators}
    if len(dims) != 1:
        raise ValueError(f"accumulators disagree on shape: {dims}")
    P = len(accumulators)
    mean_acc = np.mean(accumulators, axis=0)
    topk_of_mean = _topk_vector(mean_acc, k, bucket_size)
    mean_of_topk = np.mean([_topk_vector(a, k, bucket_size) for a in accumulators], axis=0)
    gap = float(np.linalg.norm(topk_of_mean - mean_of_topk))
    ref = float(np.linalg.norm(mean_acc))
    xi = gap / ref if ref > 0 else 0.0
    return CommutativityGap(gap_norm=gap, reference_norm=ref, xi=xi, n_nodes=P, k=k)
