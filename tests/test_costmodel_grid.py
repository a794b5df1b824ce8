"""`CostModel.predict` against the replay of a full-dimension run.

`predict` records each schedule at a reduced dimension (at most
`RECORD_PAIRS` pairs a rank, same density) on its own seeded supports and
scales the trace's bytes back up. Here every eligible schedule runs at the
full dimension N = 2^18 on other supports, and `predict` must read within
[0.8, 1.25] of that run's replay: flat P in {4, 6, 8} and 2x4, d in
{0.1, 1, 10} %, under `tiered_ib_fdr` and `tiered_gige`.

4x4 is measured, not gated: the replay books a shared uplink in the order
it processes transmissions, not the order they become ready, so two runs
of one 4x4 shape on different supports can replay up to ~2x apart.
`python tests/test_costmodel_grid.py` (from `tests/`, `PYTHONPATH=../src`)
prints the whole grid, 4x4 included.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.collectives import ALGORITHMS
from repro.costmodel import SCHEDULES, CostModel, Instance
from repro.netsim import TIERED_GIGE, TIERED_IB_FDR, replay
from repro.runtime import Topology, run_ranks
from repro.streams import SparseStream

DIM = 1 << 18
DENSITIES = (0.001, 0.01, 0.1)
WORLDS = ("4", "6", "8", "2x4")
NETWORKS = (TIERED_IB_FDR, TIERED_GIGE)
BOUND = (0.8, 1.25)


def _topology(world: str) -> "Topology | None":
    return Topology.from_spec(world) if "x" in world else None


def _nranks(world: str) -> int:
    topology = _topology(world)
    return topology.nranks if topology is not None else int(world)


def _run(comm, schedule, streams):
    return schedule(comm, streams[comm.rank])


@lru_cache(maxsize=None)
def full_run(algorithm: str, world: str, density: float):
    """The trace of one full-dimension run, on supports `predict` never sees."""
    nranks, k = _nranks(world), round(DIM * density)
    streams = [
        SparseStream.random_uniform(DIM, k, np.random.default_rng(90_000 + rank))
        for rank in range(nranks)
    ]
    return run_ranks(
        _run, nranks, ALGORITHMS[algorithm], streams, topology=_topology(world)
    ).trace


def ratios(algorithm: str, world: str, density: float) -> list[float]:
    """predict ÷ full-dimension replay, one per network."""
    topology = _topology(world)
    instance = Instance(DIM, _nranks(world), round(DIM * density))
    trace = full_run(algorithm, world, density)
    return [
        CostModel(network).predict(instance, algorithm, topology).time_s
        / replay(trace, network, topology).makespan
        for network in NETWORKS
    ]


def eligible(world: str) -> list[str]:
    topology = _topology(world)
    hierarchical = topology is not None and topology.is_hierarchical
    return [a for a, s in SCHEDULES.items() if hierarchical or not s.hierarchical]


@pytest.mark.parametrize("world", WORLDS)
@pytest.mark.parametrize("density", DENSITIES)
def test_predict_reads_the_replay_of_the_full_run(world, density):
    for algorithm in eligible(world):
        got = ratios(algorithm, world, density)
        for network, ratio in zip(NETWORKS, got):
            assert BOUND[0] <= ratio <= BOUND[1], (algorithm, network.name, ratio)
        full_run.cache_clear()  # one full run held at a time


if __name__ == "__main__":
    print(f"predict / full-dimension replay, N = {DIM}")
    print(f"{'world':<6}{'d':>7}  {'schedule':<14}" + "".join(f"{n.name:>15}" for n in NETWORKS))
    for world in (*WORLDS, "4x4"):
        for density in DENSITIES:
            for algorithm in eligible(world):
                row = "".join(f"{r:15.3f}" for r in ratios(algorithm, world, density))
                print(f"{world:<6}{density:>7.1%}  {algorithm:<14}{row}")
                full_run.cache_clear()
