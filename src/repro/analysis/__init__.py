"""Stochastic density analysis (paper Appendix B)."""

from .commutativity import CommutativityGap, measure_commutativity_gap
from .density import (
    empirical_union_density,
    expected_density_of_sum,
    expected_union_size,
    expected_union_size_inclusion_exclusion,
    monte_carlo_union_size,
)

__all__ = [
    "CommutativityGap",
    "measure_commutativity_gap",
    "empirical_union_density",
    "expected_density_of_sum",
    "expected_union_size",
    "expected_union_size_inclusion_exclusion",
    "monte_carlo_union_size",
]
