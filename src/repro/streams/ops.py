"""Coordinate-wise reduction operations over sparse streams (§5.2).

The paper supports "arbitrary coordinate-wise associative reduction
operations for which a neutral-element can be defined. (By neutral we mean
that the element which does not change the result of the underlying
operation, e.g., 0 for the sum operation.)" — following Träff's
neutral-element elimination, a sparse stream under an operation ``op``
represents the vector whose *missing* coordinates hold ``op.neutral``;
only non-neutral entries travel on the wire.

Shipped operations: SUM (neutral 0), MAX (neutral 0 — correct for
non-negative data, e.g. counts/indicators), MIN (neutral 0 — correct for
non-positive data), and PROD (neutral 1) for completeness. Custom
operations are one :class:`ReduceOp` away: any associative, commutative
binary ufunc with a neutral element will do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ReduceOp", "SUM", "MAX", "MIN", "PROD", "REDUCE_OPS"]


@dataclass(frozen=True)
class ReduceOp:
    """An associative, commutative element-wise reduction.

    Attributes
    ----------
    name:
        Identifier used in APIs and error messages.
    ufunc:
        A binary numpy ufunc implementing the operation.
    neutral:
        The neutral element: missing sparse entries are assumed to hold
        this value, and contributing it leaves results unchanged.
    """

    name: str
    ufunc: np.ufunc
    neutral: float

    def __hash__(self) -> int:
        # the name alone: a plan is looked up by its op every run, and
        # ops equal in all three fields share a name (equality is unchanged)
        return hash(self.name)

    def combine(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Element-wise ``a op b``."""
        return self.ufunc(a, b, out=out)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


SUM = ReduceOp("sum", np.add, 0.0)
MAX = ReduceOp("max", np.maximum, 0.0)
MIN = ReduceOp("min", np.minimum, 0.0)
PROD = ReduceOp("prod", np.multiply, 1.0)

REDUCE_OPS: dict[str, ReduceOp] = {op.name: op for op in (SUM, MAX, MIN, PROD)}
