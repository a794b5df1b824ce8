"""Adaptive runtime algorithm selection under density drift.

SparCML's §5.3 selection assumes the user's "rough idea about K" holds
for the whole run — but real training sweeps density regimes (top-k
schedules warm up, gradients densify near convergence, elastic worlds
change ``P``). :class:`AdaptiveSelector` closes the loop: it tracks the
*realized* per-iteration sparsity with an EWMA over ``stream.nnz``,
re-runs :meth:`~repro.costmodel.CostModel.rank` when the estimate drifts
past a threshold (or the world size changes), and — crucially — agrees
on the estimate *collectively* so every rank switches algorithm on the
same iteration. The agreement is one cheap round (a rank-ordered gather
to root plus a broadcast of the mean), the same rank-independent
resolution idiom the async driver uses for post-shrink worlds: the mean
of a deterministic, rank-ordered gather is bit-identical everywhere, so
the switch sequence replays identically on every backend. The round
carries a vector, so whatever else the step must agree on — the nnz of
every collective it is about to launch, for ``chunks="auto"`` — rides
along (:meth:`AdaptiveSelector.step_agreeing`) instead of paying a round
of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import CostModel, Instance, SelectionReport

__all__ = ["AdaptiveSelector", "AlgorithmSwitch", "Agreed", "consistent_mean", "DRIFT_THRESHOLD"]

#: relative drift of an agreed nnz estimate from the one the current
#: choice was priced from that re-prices it: the selector's default, and
#: what a persistent plan (:func:`~repro.collectives.api.allreduce_plan`)
#: holds its ``"auto"`` resolution against.
DRIFT_THRESHOLD = 0.25


def consistent_mean(comm, value: "float | list[float] | tuple[float, ...]", tag: int | None = None):
    """One collectively-agreed mean of every rank's ``value``.

    ``value`` is a scalar or a list/tuple of scalars (all ranks pass the
    same length); the result has the same shape, averaged component-wise.
    Root gathers (rank order is deterministic), reduces with ``fsum``
    (one fixed summation order), and broadcasts — so every rank receives
    the *same floats*, bit for bit, regardless of backend or scheduling.
    One round whatever the length; at world size 1 it is free. ``tag``
    is a tag block to run the round on (the gather on ``tag``, the
    broadcast on ``tag + 1``) instead of two fresh ones — a plan's, reused
    by every round.
    """
    vector = isinstance(value, (list, tuple))
    local = [float(v) for v in value] if vector else float(value)
    if comm.size == 1:
        return local
    votes = comm.gather_to_root(local, root=0, tag=tag)
    mean = None
    if votes is not None:
        columns = zip(*votes) if vector else [votes]
        means = [math.fsum(column) / len(votes) for column in columns]
        mean = means if vector else means[0]
    return comm.bcast(mean, root=0, tag=None if tag is None else tag + 1)


@dataclass(frozen=True)
class Agreed:
    """A rank-consistent nnz estimate and the model to price it under.

    What :func:`~repro.collectives.api.resolve_collective` needs in order
    to resolve ``"auto"`` knobs without an agreement round of its own:
    callers that already ran one (:meth:`AdaptiveSelector.step_agreeing`,
    the fused-bucket launch) hand the result in.
    """

    nnz: float
    model: CostModel = field(default_factory=CostModel.default)


@dataclass(frozen=True)
class AlgorithmSwitch:
    """One re-selection event in an adaptive run."""

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
    drift_threshold:
        Relative drift of the agreed estimate from the anchor (the
        estimate at the last selection) that triggers a re-rank.
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
    drift_threshold: float = DRIFT_THRESHOLD
    sync_every: int = 1

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if not 0.0 < self.ewma <= 1.0:
            raise ValueError(f"ewma must be in (0, 1], got {self.ewma}")
        if self.drift_threshold <= 0:
            raise ValueError(
                f"drift_threshold must be positive, got {self.drift_threshold}"
            )
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
        return self.step_agreeing(comm, local_nnz)[0]

    def step_agreeing(
        self, comm, local_nnz: float, launching: "list[float] | tuple" = (),
        tag: "int | None" = None,
    ) -> "tuple[str, list[Agreed]]":
        """:meth:`step`, with passengers on its agreement round.

        ``launching`` holds the local nnz of every collective the caller
        is about to launch; their rank-consistent means come back as
        :class:`Agreed` estimates under this selector's model, in order,
        for :func:`~repro.collectives.api.resolve_collective` to price
        ``chunks="auto"`` with — one round per step instead of one per
        collective. With passengers the round runs every iteration
        (re-selection still follows ``sync_every``). ``tag`` is the round's
        tag block (see :func:`consistent_mean`).
        """
        self.observe(local_nnz)
        self._iteration += 1
        resized = self._world_size is not None and comm.size != self._world_size
        due = (self._iteration - 1) % self.sync_every == 0
        syncing = self.algorithm is None or due or resized
        if not syncing and not launching:
            return self.algorithm, []
        estimate, *means = consistent_mean(comm, [self._local_ewma, *launching], tag)
        agreed = [Agreed(mean, self.model) for mean in means]
        if not syncing:
            return self.algorithm, agreed
        estimate = min(max(estimate, 0.0), float(self.dimension))
        self._world_size = comm.size
        drifted = (
            self._anchor is not None
            and abs(estimate - self._anchor) > self.drift_threshold * max(self._anchor, 1.0)
        )
        if self.algorithm is None or resized or drifted:
            reason = (
                "initial selection" if self.algorithm is None
                else "world size changed" if resized
                else f"density drift (anchor {self._anchor:.1f} -> {estimate:.1f})"
            )
            self._select(comm, estimate, reason)
        return self.algorithm, agreed

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
