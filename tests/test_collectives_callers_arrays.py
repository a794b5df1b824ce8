"""A sparse allreduce never hands back, and never changes, its caller's arrays.

``ssar_rec_dbl`` and the binomial reduce under ``ssar_hier`` /
``dsar_hier`` start from the caller's arrays and copy them only where the
result would still hold them (every merge found the other side empty):
with one rank's stream filled and the rest empty that is the filled
rank's path, with every stream filled no rank's. Either way the result
shares no memory with the input, and neither the call nor scaling the
result in place changes the input's arrays or bits.
"""

import numpy as np
import pytest

from repro.collectives import dsar_hierarchical, ssar_hierarchical, ssar_recursive_double
from repro.runtime import run_ranks
from repro.streams import SparseStream

from conftest import make_rank_stream

DIM, NNZ = 512, 24
ALGORITHMS = {
    "ssar_rec_dbl": ssar_recursive_double,
    "ssar_hier": ssar_hierarchical,
    "dsar_hier": dsar_hierarchical,
}


def _arrays(stream: SparseStream) -> list:
    return [stream.dense_payload] if stream.is_dense else [stream.indices, stream.values]


def _leaves_the_input_alone(comm, all_filled):
    checks = {}
    for name, algorithm in ALGORITHMS.items():
        if all_filled or comm.rank == 0:
            stream = make_rank_stream(DIM, NNZ, comm.rank)
        else:
            stream = SparseStream.zeros(DIM, np.float32)
        held = stream.indices, stream.values
        bits = [a.tobytes() for a in held]

        def unchanged():
            return (
                stream.indices is held[0] and stream.values is held[1]
                and [a.tobytes() for a in held] == bits
            )

        result = algorithm(comm, stream)
        shares = any(np.shares_memory(a, b) for a in _arrays(result) for b in held)
        after_call = unchanged()
        result.iscale(2.0)
        checks[name] = (shares, after_call, unchanged())
    return checks


@pytest.mark.parametrize("backend", ["thread", "socket"])
@pytest.mark.parametrize("nranks, topology", [(3, None), (4, None), (4, "2x2")], ids=["P3", "P4", "2x2"])
@pytest.mark.parametrize("all_filled", [False, True], ids=["one-filled", "all-filled"])
def test_a_result_never_holds_or_changes_the_callers_arrays(backend, nranks, topology, all_filled):
    out = run_ranks(_leaves_the_input_alone, nranks, all_filled, backend=backend, topology=topology)
    for rank, checks in enumerate(out.results):
        for name, (shares, after_call, after_scale) in checks.items():
            assert not shares, (rank, name, "the result shares the input's memory")
            assert after_call, (rank, name, "the call changed the input")
            assert after_scale, (rank, name, "scaling the result changed the input")
