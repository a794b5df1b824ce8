"""Adaptive runtime algorithm selection under density drift.

SparCML's §5.3 selection assumes the user's "rough idea about K" holds
for the whole run — but real training sweeps density regimes (top-k
schedules warm up, gradients densify near convergence, elastic worlds
change ``P``). A persistent ``"auto"`` plan
(:func:`~repro.collectives.api.allreduce_plan`) is where the library
re-decides: it agrees on every run's nnz, re-runs
:meth:`~repro.costmodel.CostModel.rank` when that estimate
:func:`drifted` from the one its choice was priced from, and logs each
(re-)selection as an :class:`AlgorithmSwitch`. The agreement is one cheap
round (:func:`consistent_mean`: a rank-ordered gather to root plus a
broadcast of the mean), bit-identical everywhere, so every rank switches
on the same run and the switch sequence replays identically on every
backend; the round carries a vector, so a step that launches several
collectives agrees on all their nnz at once.

:class:`AdaptiveSelector` is the same rule as a standalone tool, off every
library path: it folds ``stream.nnz`` into an EWMA per iteration and
re-selects under the same :func:`drifted` test (or when the world size
changes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import CostModel, Instance, SelectionReport

__all__ = [
    "AdaptiveSelector", "AlgorithmSwitch", "Agreed", "consistent_mean", "drifted", "DRIFT_THRESHOLD",
]

#: relative drift of an agreed nnz estimate from the one the current
#: choice was priced from that re-prices it: what a persistent plan
#: (:func:`~repro.collectives.api.allreduce_plan`) and
#: :class:`AdaptiveSelector` hold their choice against.
DRIFT_THRESHOLD = 0.25


def drifted(anchor: float, estimate: float) -> bool:
    """Whether ``estimate`` moved more than :data:`DRIFT_THRESHOLD`
    (relative) from ``anchor``, the nnz the held choice was priced from:
    the one re-selection test."""
    return abs(estimate - anchor) > DRIFT_THRESHOLD * max(anchor, 1.0)


def consistent_mean(comm, value: "float | list[float] | tuple[float, ...]"):
    """One collectively-agreed mean of every rank's ``value``.

    ``value`` is a scalar or a list/tuple of scalars (all ranks pass the
    same length); the result has the same shape, averaged component-wise.
    Root gathers (rank order is deterministic), reduces with ``fsum``
    (one fixed summation order), and broadcasts — so every rank receives
    the *same floats*, bit for bit, regardless of backend or scheduling.
    One round whatever the length; at world size 1 it is free.
    """
    vector = isinstance(value, (list, tuple))
    local = [float(v) for v in value] if vector else float(value)
    if comm.size == 1:
        return local
    votes = comm.gather_to_root(local, root=0)
    mean = None
    if votes is not None:
        columns = zip(*votes) if vector else [votes]
        means = [math.fsum(column) / len(votes) for column in columns]
        mean = means if vector else means[0]
    return comm.bcast(mean, root=0)


@dataclass(frozen=True)
class Agreed:
    """A rank-consistent nnz estimate and the model to price it under.

    What a plan (:class:`~repro.collectives.api.AllreducePlan`) needs in
    order to resolve ``"auto"`` knobs without an agreement round of its
    own: a caller that already ran one hands the result in — the fused
    step (:class:`~repro.core.fusion.GradientFuser`) runs one vector round
    for all its buckets and passes each bucket's entry to that bucket's
    plan, ``plan(sent, agreed=)`` / ``plan.start(..., agreed=)``.
    """

    nnz: float
    model: CostModel = field(default_factory=CostModel.default)


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


@dataclass
class AdaptiveSelector:
    """Re-select the allreduce algorithm when observed density drifts.

    Parameters
    ----------
    model:
        The :class:`~repro.costmodel.CostModel` selection runs under
        (default: the canonical tiered cluster).
    dimension, value_itemsize:
        The stream shape selection is for.
    ewma:
        Smoothing factor of the nnz estimate (1.0 = trust only the last
        iteration).
    sync_every:
        Run the collective agreement every this many iterations; between
        agreements the current algorithm is reused unchanged (a world
        size change always forces an agreement + re-rank).

    Every rank must call :meth:`step` once per iteration with its local
    ``stream.nnz``; the returned algorithm name is identical on all
    ranks. :attr:`switches` records every (re-)selection; :attr:`report`
    holds the latest full :class:`~repro.costmodel.SelectionReport`.
    """

    model: CostModel = field(default_factory=CostModel.default)
    dimension: int = 0
    value_itemsize: int = 4
    ewma: float = 0.25
    sync_every: int = 1

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if not 0.0 < self.ewma <= 1.0:
            raise ValueError(f"ewma must be in (0, 1], got {self.ewma}")
        if self.sync_every < 1:
            raise ValueError(f"sync_every must be >= 1, got {self.sync_every}")
        self.model = CostModel.resolve(self.model)
        self.reset()

    def reset(self) -> None:
        """Forget all observations (e.g. after a dataset change)."""
        self._local_ewma: float | None = None
        self._anchor: float | None = None
        self._world_size: int | None = None
        self._iteration = 0
        self.algorithm: str | None = None
        self.report: SelectionReport | None = None
        self.switches: list[AlgorithmSwitch] = []

    # ------------------------------------------------------------------
    def observe(self, local_nnz: float) -> float:
        """Fold one local observation into the EWMA (non-collective)."""
        x = float(local_nnz)
        if self._local_ewma is None:
            self._local_ewma = x
        else:
            self._local_ewma += self.ewma * (x - self._local_ewma)
        return self._local_ewma

    def step(self, comm, local_nnz: float) -> str:
        """One iteration: observe, agree, maybe re-select; returns the
        algorithm every rank should run this iteration.

        Collective when it syncs (all ranks must call it the same
        iteration — the natural contract, since they are about to run an
        allreduce together anyway).
        """
        self.observe(local_nnz)
        self._iteration += 1
        resized = self._world_size is not None and comm.size != self._world_size
        due = (self._iteration - 1) % self.sync_every == 0
        if self.algorithm is not None and not due and not resized:
            return self.algorithm
        estimate = consistent_mean(comm, self._local_ewma)
        estimate = min(max(estimate, 0.0), float(self.dimension))
        self._world_size = comm.size
        if self.algorithm is None:
            self._select(comm, estimate, "initial selection")
        elif resized:
            self._select(comm, estimate, "world size changed")
        elif drifted(self._anchor, estimate):
            self._select(
                comm, estimate, f"density drift (anchor {self._anchor:.1f} -> {estimate:.1f})"
            )
        return self.algorithm

    def _select(self, comm, estimate: float, reason: str) -> None:
        instance = Instance(
            self.dimension, comm.size, estimate, self.value_itemsize
        )
        report = self.model.rank(instance, topology=comm.topology)
        previous = self.algorithm
        self.report = report
        self.algorithm = report.choice
        self._anchor = estimate
        self.switches.append(
            AlgorithmSwitch(
                iteration=self._iteration,
                algorithm=report.choice,
                previous=previous,
                estimate=estimate,
                reason=reason,
            )
        )

    @property
    def switch_count(self) -> int:
        """Number of *changes* of algorithm (excludes re-confirmations)."""
        return sum(
            1 for s in self.switches
            if s.previous is not None and s.algorithm != s.previous
        )
