"""Adaptive runtime algorithm selection under density drift.

SparCML's §5.3 selection assumes the user's "rough idea about K" holds
for the whole run — but real training sweeps density regimes (top-k
schedules warm up, gradients densify near convergence, elastic worlds
change ``P``). A persistent ``"auto"`` plan
(:func:`~repro.collectives.api.allreduce_plan`) is where the library
re-decides: its first run agrees on the nnz in one round
(:func:`consistent_mean`: a rank-ordered gather to root plus a broadcast
of the mean, bit-identical everywhere), and every later run estimates the
nnz from the newest result the program received from the plan, which is
bit-identical on every rank already and so costs no message. The plan
re-runs :meth:`~repro.costmodel.CostModel.rank` when that estimate
:func:`drifted` from the one its choice was priced from, and logs each
(re-)selection as an :class:`AlgorithmSwitch`, so every rank switches on
the same run and the switch sequence replays identically on every backend.

:class:`AdaptiveSelector` is the same rule as a per-step call, off every
library path: each :meth:`~AdaptiveSelector.step` agrees on the mean of
the ranks' nnz in one :func:`consistent_mean` round and re-selects when it
:func:`drifted` from the anchor (or when the world size changed), pricing
as a plan does (:meth:`CostModel.default`, float32 values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import CostModel, Instance

__all__ = [
    "AdaptiveSelector", "AlgorithmSwitch", "consistent_mean", "drifted", "DRIFT_THRESHOLD",
]

#: relative drift of a rank-consistent nnz estimate from the one the current
#: choice was priced from that re-prices it: what a persistent plan
#: (:func:`~repro.collectives.api.allreduce_plan`) and
#: :class:`AdaptiveSelector` hold their choice against.
DRIFT_THRESHOLD = 0.25


def drifted(anchor: float, estimate: float) -> bool:
    """Whether ``estimate`` moved more than :data:`DRIFT_THRESHOLD`
    (relative) from ``anchor``, the nnz the held choice was priced from:
    the one re-selection test."""
    return abs(estimate - anchor) > DRIFT_THRESHOLD * max(anchor, 1.0)


def consistent_mean(comm, value: float) -> float:
    """One collectively-agreed mean of every rank's ``value``.

    Root gathers (rank order is deterministic), reduces with ``fsum`` (one
    fixed summation order), and broadcasts — so every rank receives the
    *same float*, bit for bit, regardless of backend or scheduling. One
    round; at world size 1 it is free.
    """
    local = float(value)
    if comm.size == 1:
        return local
    votes = comm.gather_to_root(local, root=0)
    return comm.bcast(None if votes is None else math.fsum(votes) / len(votes), root=0)


@dataclass(frozen=True)
class AlgorithmSwitch:
    """One (re-)selection: of an ``"auto"`` plan, at its ``iteration``-th
    run, or of an :class:`AdaptiveSelector`, at its ``iteration``-th step."""

    iteration: int
    algorithm: str
    previous: str | None
    estimate: float
    reason: str

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "algorithm": self.algorithm,
            "previous": self.previous,
            "estimate": self.estimate,
            "reason": self.reason,
        }


class AdaptiveSelector:
    """Re-select the allreduce algorithm of ``dimension``-wide float32
    streams when the ranks' agreed nnz drifts.

    Every rank must call :meth:`step` once per iteration with its local
    ``stream.nnz``; the returned algorithm name is identical on all
    ranks. :attr:`switches` records every (re-)selection.
    """

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        self.algorithm: str | None = None
        self.switches: list[AlgorithmSwitch] = []
        self._anchor = 0.0
        self._world_size = 0
        self._steps = 0

    def step(self, comm, local_nnz: float) -> str:
        """One iteration: agree, maybe re-select; returns the algorithm
        every rank runs this iteration. Collective: one
        :func:`consistent_mean` round."""
        self._steps += 1
        estimate = consistent_mean(comm, local_nnz)
        estimate = min(max(estimate, 0.0), float(self.dimension))
        if self.algorithm is None:
            reason = "initial selection"
        elif comm.size != self._world_size:
            reason = "world size changed"
        elif drifted(self._anchor, estimate):
            reason = f"density drift (anchor {self._anchor:.1f} -> {estimate:.1f})"
        else:
            return self.algorithm
        instance = Instance(self.dimension, comm.size, estimate, 4)
        previous = self.algorithm
        self.algorithm = CostModel.default().choose(instance, comm.topology)
        self._anchor, self._world_size = estimate, comm.size
        self.switches.append(
            AlgorithmSwitch(self._steps, self.algorithm, previous, estimate, reason)
        )
        return self.algorithm
