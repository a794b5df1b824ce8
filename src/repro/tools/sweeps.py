"""Self-contained micro-benchmark sweep (the Fig. 3 left experiment as a
library facility).

The §8.1 synthetic experiment packaged for direct use: run the full
algorithm set over a grid of node counts, replay under a network preset,
and return structured rows. The command-line interface (``python -m
repro sweep-nodes``) renders them as a table; the benchmark harness makes
the same measurements with paper-matched parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.api import ALGORITHMS
from ..collectives.dense import DENSE_ALGORITHMS
from ..costmodel.model import CostModel
from ..netsim import NetworkModel, TieredNetworkModel, replay
from ..runtime import Topology, run_ranks
from ..streams import SparseStream

__all__ = ["SweepPoint", "sweep_node_counts", "ALGORITHM_SET"]

#: every sparse and dense allreduce by name, with the input kind it takes
ALGORITHM_SET = {
    **{name: ("sparse", fn) for name, fn in ALGORITHMS.items()},
    **{name: ("dense", fn) for name, fn in DENSE_ALGORITHMS.items()},
}


@dataclass(frozen=True)
class SweepPoint:
    """One (algorithm, node count) measurement."""

    algorithm: str
    nranks: int
    dimension: int
    nnz: int
    time_s: float
    bytes_sent: int
    messages: int


def _measure(
    name: str,
    nranks: int,
    dimension: int,
    nnz: int,
    model: "CostModel | NetworkModel | TieredNetworkModel",
    seed: int,
    backend: str = "thread",
    ranks_per_node: int | None = None,
) -> SweepPoint:
    kind, algo = ALGORITHM_SET[name]
    topology = (
        Topology.uniform(nranks, min(ranks_per_node, nranks))
        if ranks_per_node is not None
        else None
    )

    def prog(comm):
        gen = np.random.default_rng(seed + comm.rank)
        stream = SparseStream.random_uniform(dimension, nnz=nnz, rng=gen)
        if kind == "dense":
            return algo(comm, stream.to_dense())
        return algo(comm, stream)

    out = run_ranks(prog, nranks, backend=backend, topology=topology)
    # tiered models classify every message by the simulated topology
    # (no --ranks-per-node means one host: everything at intra rates)
    timing = replay(out.trace, model, topology=topology)
    return SweepPoint(
        algorithm=name,
        nranks=nranks,
        dimension=dimension,
        nnz=nnz,
        time_s=timing.makespan,
        bytes_sent=out.trace.total_bytes_sent,
        messages=out.trace.total_messages,
    )


def sweep_node_counts(
    node_counts: list[int],
    dimension: int = 1 << 20,
    density: float = 0.00781,
    network: str | NetworkModel = "aries",
    algorithms: list[str] | None = None,
    seed: int = 9000,
    backend: str = "thread",
    ranks_per_node: int | None = None,
) -> list[SweepPoint]:
    """Reduction time vs node count (the Fig. 3 left sweep).

    Returns one :class:`SweepPoint` per (algorithm, P); ``backend`` selects
    the runtime transport the measured run executes on. ``ranks_per_node``
    simulates hosts of that many ranks each, making the ``ssar_hier`` /
    ``dsar_hier`` rows exercise a real two-tier schedule. ``network``
    accepts anything :meth:`repro.costmodel.CostModel.resolve` does — a
    model instance, a preset name, a ``"tiered:INTRA/INTER"`` spec, or
    ``"calibrated:<path>"`` — so the sweeps replay under exactly the
    network object the selector reasons with; tiered models replay the
    trace against the simulated topology, so hierarchy is rewarded in
    *time*, not just byte counts.
    """
    model = CostModel.resolve(network)
    algorithms = algorithms or list(ALGORITHM_SET)
    _validate_algorithms(algorithms)
    nnz = max(1, int(dimension * density))
    return [
        _measure(name, P, dimension, nnz, model, seed, backend, ranks_per_node)
        for name in algorithms
        for P in node_counts
    ]


def _validate_algorithms(algorithms: list[str]) -> None:
    unknown = set(algorithms) - set(ALGORITHM_SET)
    if unknown:
        raise ValueError(
            f"unknown algorithms {sorted(unknown)}; choose from {sorted(ALGORITHM_SET)}"
        )
