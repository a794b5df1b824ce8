"""Run histories and summary reporting for the optimisation drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..streams import SparseStream

__all__ = ["EpochRecord", "RunHistory"]


@dataclass
class EpochRecord:
    """One epoch's metrics at a single rank (ranks agree on the model)."""

    epoch: int
    loss: float
    accuracy: float
    grad_nnz_mean: float = 0.0
    bytes_sent: int = 0


@dataclass
class RunHistory:
    """Accumulated per-epoch records plus final model.

    ``params`` reads as the dense model vector, but a history *holds* it
    as a :class:`~repro.streams.SparseStream` while that is the smaller
    form (§5.1's ``delta``): a sparse linear model trained for a few
    epochs is non-zero on the few percent of its features the data ever
    touched, and callers keep histories by the dozen (sweeps, the repo
    benchmark's segments) and ship them between processes. Every read
    materialises a fresh array — treat it as read-only; a ``-0.0`` entry
    reads back as ``0.0``.

    ``degraded_rank`` is set by drivers that survive a peer failure
    (see :func:`~repro.mlopt.async_sgd.distributed_sgd_async`): it names
    the first failed rank after which this rank continued without
    aggregation. ``None`` means the run stayed fully synchronous.

    ``world_sizes`` is filled by the elastic driver mode
    (``on_failure="shrink"``): one entry per epoch recording how many
    ranks aggregated that epoch (1 for an epoch finished on local
    gradients while the world reformed), so a kill-then-rejoin run reads
    e.g. ``[4, 1, 3, 4]``. Empty for non-elastic runs.

    ``algorithm_switches`` is filled by adaptive runs
    (``distributed_sgd_async(..., adaptive=True)``): one dict per
    (re-)selection the run's ``"auto"`` plans logged
    (:class:`~repro.costmodel.AlgorithmSwitch`; ``iteration`` counts that
    plan's runs), identical on every rank. Rows are in launch order: step
    by step, and within a step plan by plan in the order the plans were
    made — one plan per bucket shape, so fused buckets of different
    shapes may run different algorithms and the last row is the latest
    (re-)selection, not every bucket's. Empty for non-adaptive runs.
    """

    records: list[EpochRecord] = field(default_factory=list)
    degraded_rank: int | None = None
    world_sizes: list[int] = field(default_factory=list)
    algorithm_switches: list[dict] = field(default_factory=list)
    _params: "SparseStream | np.ndarray | None" = field(default=None, repr=False)

    @property
    def params(self) -> np.ndarray | None:
        held = self._params
        return held.to_dense() if isinstance(held, SparseStream) else held

    @params.setter
    def params(self, w: np.ndarray | None) -> None:
        if w is not None and w.dtype == np.float64:
            pairs = SparseStream.from_dense(w)
            if pairs.nnz <= pairs.delta:
                w = pairs
        self._params = w

    def add(self, record: EpochRecord) -> None:
        self.records.append(record)

    @property
    def final_loss(self) -> float:
        return self.records[-1].loss if self.records else float("nan")

    @property
    def losses(self) -> list[float]:
        return [r.loss for r in self.records]
