"""Backend-parametrized equivalence layer: every collective, every backend.

The contract of the pluggable runtime (ISSUE 1) is that the backends are
*indistinguishable* to the algorithms: same results bit for bit, same
trace byte/message accounting. These tests pin that down for every
collective in :mod:`repro.collectives` at P in {1, 2, 3, 4, 8}, with the
thread backend as the reference each real-transport backend (``process``
pipes, ``shmem`` pipes plus a shared slab, ``socket`` TCP mesh) is held to.
"""

import numpy as np
import pytest

from repro.collectives import (
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
    allreduce_ring,
    dsar_split_allgather,
    run_sparse_allreduce,
    sparse_allgather,
    sparse_allreduce,
    ssar_hierarchical,
    ssar_recursive_double,
    ssar_ring,
    ssar_split_allgather,
)
from repro.runtime import available_backends, get_backend, run_ranks
from repro.streams import SparseStream

from conftest import make_rank_stream, reference_sum

BACKENDS = ["thread", "process", "shmem", "socket"]
WORLD_SIZES = [1, 2, 3, 4, 8]

SPARSE_ALGOS = {
    "ssar_rec_dbl": ssar_recursive_double,
    "ssar_split_ag": ssar_split_allgather,
    "ssar_ring": ssar_ring,
    "ssar_hier": ssar_hierarchical,  # flat fallback path; non-flat below
    "dsar_split_ag": dsar_split_allgather,
}
DENSE_ALGOS = {
    "dense_rec_dbl": allreduce_recursive_doubling,
    "dense_ring": allreduce_ring,
    "dense_rabenseifner": allreduce_rabenseifner,
}

DIM, NNZ = 2048, 64


def _run_sparse(algo, nranks, backend):
    return run_ranks(
        lambda comm: algo(comm, make_rank_stream(DIM, NNZ, comm.rank)), nranks, backend=backend
    )


def test_all_backends_registered():
    assert set(BACKENDS) <= set(available_backends())
    for name in BACKENDS:
        assert get_backend(name).name == name
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("mpi")


@pytest.mark.parametrize("nranks", WORLD_SIZES)
@pytest.mark.parametrize("name,algo", sorted(SPARSE_ALGOS.items()))
class TestSparseCollectiveEquivalence:
    def test_backends_bit_identical(self, name, algo, nranks):
        """All backends agree bit for bit with each other, on every rank."""
        by_backend = {b: _run_sparse(algo, nranks, b) for b in BACKENDS}
        ref = reference_sum(DIM, NNZ, nranks)
        thread_out = by_backend["thread"]
        for backend in BACKENDS[1:]:
            other_out = by_backend[backend]
            for r in range(nranks):
                t, o = thread_out[r].to_dense(), other_out[r].to_dense()
                assert np.array_equal(t, o), (
                    f"{name} P={nranks} rank {r}: thread vs {backend} differ"
                )
                assert np.allclose(t, ref, atol=1e-4)
                assert thread_out[r].is_dense == other_out[r].is_dense

    def test_traces_equivalent(self, name, algo, nranks):
        """Byte accounting is a property of the algorithm, not the backend."""
        by_backend = {b: _run_sparse(algo, nranks, b) for b in BACKENDS}
        thread_out = by_backend["thread"]
        for backend in BACKENDS[1:]:
            other_out = by_backend[backend]
            assert thread_out.trace.total_messages == other_out.trace.total_messages, backend
            assert thread_out.trace.total_bytes_sent == other_out.trace.total_bytes_sent, backend
            for r in range(nranks):
                assert thread_out.trace.bytes_sent_by(r) == other_out.trace.bytes_sent_by(r)


@pytest.mark.parametrize("nranks", WORLD_SIZES)
def test_hier_equivalence_on_simulated_hosts(nranks):
    """ssar_hier under a non-flat topology: every backend agrees bit for
    bit (results and byte accounting) on a simulated two-host world."""
    ranks_per_node = max(1, (nranks + 1) // 2)
    streams = [make_rank_stream(DIM, NNZ, r) for r in range(nranks)]
    by_backend = {
        b: run_sparse_allreduce(streams, "ssar_hier", backend=b, topology=ranks_per_node)
        for b in BACKENDS
    }
    ref = reference_sum(DIM, NNZ, nranks)
    thread_out = by_backend["thread"]
    for backend in BACKENDS[1:]:
        other_out = by_backend[backend]
        for r in range(nranks):
            t, o = thread_out[r].to_dense(), other_out[r].to_dense()
            assert np.array_equal(t, o), f"P={nranks} rank {r}: thread vs {backend}"
            assert np.allclose(t, ref, atol=1e-4)
        assert thread_out.trace.total_bytes_sent == other_out.trace.total_bytes_sent


@pytest.mark.parametrize("nranks", [2, 4, 8])
@pytest.mark.parametrize("algorithm", ["ssar_hier", "dsar_hier"])
@pytest.mark.parametrize("chunks", [2, 4])
def test_chunked_hier_equivalence(algorithm, chunks, nranks):
    """The chunked pipeline joins the equivalence layer: chunked
    ssar_hier/dsar_hier are bit-identical to the unchunked schedule AND
    across all four backends on a simulated two-host world, with
    backend-independent byte accounting."""
    ranks_per_node = max(1, (nranks + 1) // 2)
    streams = [make_rank_stream(DIM, NNZ, r) for r in range(nranks)]
    base = run_sparse_allreduce(streams, algorithm, topology=ranks_per_node)
    by_backend = {
        b: run_sparse_allreduce(
            streams, algorithm, backend=b, topology=ranks_per_node, chunks=chunks
        )
        for b in BACKENDS
    }
    ref = reference_sum(DIM, NNZ, nranks)
    thread_out = by_backend["thread"]
    for r in range(nranks):
        t = thread_out[r].to_dense()
        assert np.array_equal(t, base[r].to_dense()), (
            f"{algorithm} K={chunks} P={nranks} rank {r}: chunked vs unchunked"
        )
        assert np.allclose(t, ref, atol=1e-4)
        assert thread_out[r].is_dense == base[r].is_dense
    for backend in BACKENDS[1:]:
        other_out = by_backend[backend]
        for r in range(nranks):
            assert np.array_equal(thread_out[r].to_dense(), other_out[r].to_dense()), (
                f"{algorithm} K={chunks} P={nranks} rank {r}: thread vs {backend}"
            )
        assert thread_out.trace.total_messages == other_out.trace.total_messages
        assert thread_out.trace.total_bytes_sent == other_out.trace.total_bytes_sent


SPLIT_SCHEMES = {
    # color, key as functions of (rank, size): parity groups, reversed-key
    # halves, and a split that excludes rank 0 entirely (color None)
    "parity": lambda rank, size: (rank % 2, 0),
    "halves_reversed": lambda rank, size: (rank * 2 // max(size, 1), -rank),
    "exclude_rank0": lambda rank, size: (None if rank == 0 else 0, rank),
}


def _split_prog(comm, scheme_name):
    color, key = SPLIT_SCHEMES[scheme_name](comm.rank, comm.size)
    sub = comm.split(color, key)
    if sub is None:
        return None
    out = ssar_recursive_double(sub, make_rank_stream(DIM, NNZ, comm.rank))
    return (sub.rank, sub.size, sub.parent_ranks, out)


@pytest.mark.parametrize("nranks", [2, 3, 4, 8])
@pytest.mark.parametrize("scheme", sorted(SPLIT_SCHEMES))
class TestSplitEquivalence:
    """comm.split joins the equivalence layer: identical group shapes and
    bit-identical collective results on every backend."""

    def test_split_collectives_bit_identical(self, scheme, nranks):
        by_backend = {
            b: run_ranks(_split_prog, nranks, scheme, backend=b) for b in BACKENDS
        }
        thread_out = by_backend["thread"]
        for backend in BACKENDS[1:]:
            other_out = by_backend[backend]
            for r in range(nranks):
                t, o = thread_out[r], other_out[r]
                assert (t is None) == (o is None), f"{scheme} rank {r} on {backend}"
                if t is None:
                    continue
                assert t[:3] == o[:3], f"{scheme} rank {r}: group shape differs"
                assert np.array_equal(t[3].to_dense(), o[3].to_dense()), (
                    f"{scheme} P={nranks} rank {r}: thread vs {backend} differ"
                )
            assert thread_out.trace.total_bytes_sent == other_out.trace.total_bytes_sent

    def test_split_results_match_member_reference(self, scheme, nranks):
        out = run_ranks(_split_prog, nranks, scheme, backend="thread")
        for r in range(nranks):
            if out[r] is None:
                continue
            _sub_rank, _sub_size, members, reduced = out[r]
            ref = sum(
                make_rank_stream(DIM, NNZ, m).to_dense() for m in members
            )
            assert np.allclose(reduced.to_dense(), ref, atol=1e-4)


@pytest.mark.parametrize("nranks", WORLD_SIZES)
@pytest.mark.parametrize("name,algo", sorted(DENSE_ALGOS.items()))
def test_dense_collective_equivalence(name, algo, nranks):
    def prog(comm):
        return algo(comm, make_rank_stream(DIM, NNZ, comm.rank).to_dense())

    by_backend = {b: run_ranks(prog, nranks, backend=b) for b in BACKENDS}
    ref = reference_sum(DIM, NNZ, nranks)
    thread_out = by_backend["thread"]
    for backend in BACKENDS[1:]:
        other_out = by_backend[backend]
        for r in range(nranks):
            assert np.array_equal(thread_out[r], other_out[r]), backend
            assert np.allclose(thread_out[r], ref, atol=1e-4)
        assert thread_out.trace.total_bytes_sent == other_out.trace.total_bytes_sent


@pytest.mark.parametrize("nranks", WORLD_SIZES)
def test_sparse_allgather_equivalence(nranks):
    dim = 600

    def prog(comm):
        lo = comm.rank * dim // comm.size
        hi = (comm.rank + 1) * dim // comm.size
        idx = np.arange(lo, hi, 2, dtype=np.uint32)
        vals = np.full(idx.size, comm.rank + 1.0, dtype=np.float32)
        return sparse_allgather(comm, SparseStream(dim, indices=idx, values=vals))

    by_backend = {b: run_ranks(prog, nranks, backend=b) for b in BACKENDS}
    thread_out = by_backend["thread"]
    for backend in BACKENDS[1:]:
        other_out = by_backend[backend]
        for r in range(nranks):
            assert np.array_equal(thread_out[r].to_dense(), other_out[r].to_dense()), backend
        assert thread_out.trace.total_bytes_sent == other_out.trace.total_bytes_sent


@pytest.mark.parametrize("backend", BACKENDS)
class TestApiOnBothBackends:
    def test_auto_dispatch(self, backend):
        def prog(comm):
            return sparse_allreduce(comm, make_rank_stream(4096, 50, comm.rank), algorithm="auto")

        out = run_ranks(prog, 4, backend=backend)
        assert np.allclose(out[0].to_dense(), reference_sum(4096, 50, 4), atol=1e-4)

    def test_run_sparse_allreduce_driver(self, backend):
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(4)]
        out = run_sparse_allreduce(streams, "ssar_rec_dbl", backend=backend)
        ref = reference_sum(DIM, NNZ, 4)
        for r in range(4):
            assert np.allclose(out[r].to_dense(), ref, atol=1e-4)
        assert out.trace.total_messages > 0

    def test_mlopt_byte_accounting(self, backend):
        """EpochRecord.bytes_sent must come from the backend-neutral
        ``comm.trace``, not thread-world internals (regression: it silently
        reported 0 on the process backend)."""
        from repro.mlopt import LogisticRegression, SGDConfig, distributed_sgd, make_url_like

        ds = make_url_like(n_samples=120, seed=3)

        def prog(comm):
            history = distributed_sgd(
                comm, ds, LogisticRegression(ds.n_features), SGDConfig(epochs=1, lr=0.1, seed=5)
            )
            return history.records[-1].bytes_sent

        out = run_ranks(prog, 2, backend=backend)
        assert out[0] > 0
        # deterministic volume, identical across backends (includes the
        # 8-byte rank-consistent "auto" agreement round per resolution)
        assert out[0] == 13808

    def test_quantized_dsar(self, backend):
        from repro.quant import QSGDQuantizer

        def prog(comm):
            return dsar_split_allgather(
                comm,
                make_rank_stream(2048, 128, comm.rank),
                quantizer=QSGDQuantizer(bits=8, bucket_size=256, seed=7),
            )

        out = run_ranks(prog, 4, backend=backend)
        ref = reference_sum(2048, 128, 4)
        err = np.linalg.norm(out[0].to_dense() - ref) / np.linalg.norm(ref)
        assert err < 0.05
        # quantized codes travel identically: all ranks agree exactly
        for r in range(1, 4):
            assert np.array_equal(out[r].to_dense(), out[0].to_dense())
