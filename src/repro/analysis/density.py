"""Stochastic density analysis (paper Appendix B, Figures 1 and 7).

Characterises the fill-in of a sparse reduction: given P nodes each holding
k uniformly random non-zero indices out of N, the expected number of
non-zeros in the union (and hence in the element-wise sum, ignoring
cancellation) is

    E[K] = N * (1 - (1 - k/N)^P)

The paper writes this via inclusion-exclusion,
``E[K] = N * sum_i (-1)^{i-1} C(P, i) (k/N)^i`` — the two forms are equal by
the binomial theorem; we implement both and test their agreement. The union
bound gives ``E[K] <= P*k``, tight when supports are disjoint.

These formulas drive the algorithm selector (the user's "rough idea about
K", §5.3) and reproduce Fig. 1 (density of reduced result) and Fig. 7
(expected reduced size, N=512).
"""

from __future__ import annotations

import numpy as np
from scipy.special import comb

__all__ = [
    "expected_union_size",
    "expected_union_size_inclusion_exclusion",
    "expected_density_of_sum",
    "monte_carlo_union_size",
    "empirical_union_density",
]


def expected_union_size(nnz_per_rank: float, dimension: int, nranks: int) -> float:
    """Closed-form ``E[K] = N (1 - (1 - k/N)^P)`` for uniform supports."""
    if dimension <= 0:
        return 0.0
    if not 0 <= nnz_per_rank <= dimension:
        raise ValueError(f"nnz_per_rank must be in [0, {dimension}], got {nnz_per_rank}")
    if nranks < 0:
        raise ValueError(f"nranks must be >= 0, got {nranks}")
    p_hit = nnz_per_rank / dimension
    # log-space for numerical robustness at large P
    if p_hit >= 1.0:
        return float(dimension)
    miss = np.exp(nranks * np.log1p(-p_hit))
    return float(dimension * (1.0 - miss))


def expected_union_size_inclusion_exclusion(nnz_per_rank: int, dimension: int, nranks: int) -> float:
    """The paper's inclusion-exclusion form of ``E[K]`` (App. B.1).

    Numerically fragile for large P (alternating sum); provided to validate
    the closed form on small instances.
    """
    if dimension <= 0:
        return 0.0
    ratio = nnz_per_rank / dimension
    total = 0.0
    for i in range(1, nranks + 1):
        total += (-1.0) ** (i - 1) * comb(nranks, i, exact=True) * ratio**i
    return float(dimension * total)


def expected_density_of_sum(density_per_rank: float, nranks: int) -> float:
    """Density of the reduced vector: ``1 - (1 - d)^P`` (drives Fig. 1)."""
    if not 0.0 <= density_per_rank <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density_per_rank}")
    if density_per_rank == 1.0:
        return 1.0
    return float(1.0 - np.exp(nranks * np.log1p(-density_per_rank)))


def monte_carlo_union_size(
    nnz_per_rank: int,
    dimension: int,
    nranks: int,
    rng: np.random.Generator,
    trials: int = 16,
) -> float:
    """Empirical mean union size for uniform random supports."""
    sizes = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        hit = np.zeros(dimension, dtype=bool)
        for _ in range(nranks):
            hit[rng.choice(dimension, size=nnz_per_rank, replace=False)] = True
        sizes[t] = hit.sum()
    return float(sizes.mean())


def empirical_union_density(supports: list[np.ndarray], dimension: int) -> float:
    """Density of the union of explicit support sets (drives Fig. 1 from
    measured gradient supports rather than the uniform model)."""
    if dimension <= 0:
        return 0.0
    hit = np.zeros(dimension, dtype=bool)
    for s in supports:
        hit[s] = True
    return float(hit.sum() / dimension)
