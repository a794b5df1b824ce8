"""Automatic algorithm selection (paper §5.3: "In practice, allreduce
implementations switch between different implementations depending on the
message size and the number of processes").

The selection procedure itself lives in
:meth:`repro.costmodel.CostModel.rank` — the single cost-model layer
every consumer (this selector, the sweeps, the repo benchmark's
``costmodel.predicted_ms``, the netsim replay, the adaptive runtime
selector) shares. This module keeps the historical thin entry points:

* :func:`choose_algorithm` — build an :class:`~repro.costmodel.Instance`
  and return ``CostModel.rank(...).choice``;
* :func:`dense_stage_two_tier_times` — the ``(flat dsar, hier dsar)``
  predicted-time pair the dynamic-instance branch compares.

``K`` is estimated with the uniform fill-in model of Appendix B when the
user provides no better estimate ("we require the user to have some rough
idea about K", §5.3) — uniform supports are the worst case for fill-in.
"""

from __future__ import annotations

from ..costmodel.model import (
    RING_MIN_RANKS,
    SMALL_MESSAGE_BYTES,
    SCHEDULES,
    CostModel,
    Instance,
)
from ..netsim.model import NetworkModel, TieredNetworkModel
from ..runtime.topology import Topology

__all__ = [
    "choose_algorithm",
    "dense_stage_two_tier_times",
    "SMALL_MESSAGE_BYTES",
    "RING_MIN_RANKS",
    "SCHEDULES",
]


def dense_stage_two_tier_times(
    dimension: int,
    nranks: int,
    nnz_per_rank: float,
    value_itemsize: int,
    topology: Topology,
    network: "NetworkModel | TieredNetworkModel",
) -> tuple[float, float]:
    """Predicted ``(flat dsar, hierarchical dsar)`` times under two tiers.

    The dominating term of a dynamic instance is the dense allgather: the
    result is ``N * itemsize`` bytes that every rank must end up holding.
    On a cluster whose inter-node uplink is shared per host (``m`` ranks
    behind one NIC), the flat algorithm pushes ``m`` ranks' split slices
    and dense partitions through each uplink while the hierarchical one
    pushes a single leader's. A plain :class:`NetworkModel` is treated as
    two equal tiers: the hierarchy then loses whenever bandwidth
    dominates (its extra intra rounds move the full dense vector again)
    and can only pay for itself on latency-bound shapes where collapsing
    the ``(P-1)`` fan-out to ``(H-1)`` covers those rounds.

    Thin wrapper over :meth:`repro.costmodel.CostModel.predict` for the
    two DSAR candidates — kept for callers that want just the comparison
    the selector's dynamic-instance branch runs.
    """
    model = CostModel.resolve(network)
    instance = Instance(dimension, nranks, nnz_per_rank, value_itemsize)
    flat = model.predict(instance, "dsar_split_ag", topology)
    hier = model.predict(instance, "dsar_hier", topology)
    return flat.time_s, hier.time_s


def choose_algorithm(
    dimension: int,
    nranks: int,
    nnz_per_rank: int,
    value_itemsize: int = 4,
    expected_k: float | None = None,
    small_message_bytes: int = SMALL_MESSAGE_BYTES,
    topology: Topology | None = None,
    network: "NetworkModel | TieredNetworkModel | None" = None,
) -> str:
    """Pick a sparse allreduce algorithm for the given instance.

    Parameters
    ----------
    dimension, nranks, nnz_per_rank:
        Problem shape ``N``, ``P``, ``k``.
    value_itemsize:
        Bytes per value (4 for float32).
    expected_k:
        User estimate of the reduced size ``K``; defaults to the uniform
        fill-in expectation ``N (1 - (1 - k/N)^P)``.
    small_message_bytes:
        The latency/bandwidth switch point.
    topology:
        Optional rank -> host map. A hierarchical topology (several
        hosts, several ranks per host) makes the selector prefer
        ``ssar_hier`` for static-sparse instances and run the two-tier
        ``dsar_hier`` vs ``dsar_split_ag`` comparison for dynamic ones;
        ``None`` or a flat/fully-distributed topology selects among the
        flat algorithms.
    network:
        The cost model the selection runs under: anything
        :meth:`~repro.costmodel.CostModel.resolve` accepts (a model
        instance, a :class:`~repro.costmodel.CostModel`, a preset name,
        a ``tiered:INTRA/INTER`` or ``calibrated:<path>`` spec).
        Defaults to the canonical tiered cluster (shared-memory intra +
        InfiniBand inter, :data:`~repro.netsim.model.TIERED_IB_FDR`).
        Pass a plain :class:`~repro.netsim.model.NetworkModel` to model
        a genuinely flat network (equal tiers), under which ``dsar_hier``
        survives only on latency-bound shapes.

    Returns
    -------
    str
        One of :data:`SCHEDULES`. ``ssar_ring`` is reachable only
        through the bandwidth-bound branch (``P >= RING_MIN_RANKS`` and a
        per-rank slice above the latency switch point); ``ssar_hier`` and
        ``dsar_hier`` only with a hierarchical ``topology``.

    See Also
    --------
    repro.costmodel.CostModel.rank : the same selection as a full
        :class:`~repro.costmodel.SelectionReport` (every candidate's
        predicted time, the choice and the reason).
    """
    model = CostModel.resolve(network) if network is not None else CostModel.default()
    instance = Instance(dimension, nranks, nnz_per_rank, value_itemsize, expected_k)
    return model.rank(instance, topology, small_message_bytes).choice
