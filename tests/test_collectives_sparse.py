"""Tests for the sparse allreduce algorithms (SSAR family) and allgather."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import (
    allgather_blocks,
    allgather_recursive_doubling,
    allgather_ring,
    slice_stream,
    sparse_allgather,
    sparse_allreduce,
    ssar_recursive_double,
    ssar_ring,
    ssar_split_allgather,
)
from repro.runtime import RankError, run_ranks
from repro.streams import SparseStream

from conftest import make_rank_stream, reference_sum

SPARSE_ALGOS = {
    "rec_dbl": ssar_recursive_double,
    "split_ag": ssar_split_allgather,
    "ring": ssar_ring,
}


def run_sparse(algo, nranks: int, dim: int, nnz: int, seed: int = 7000):
    out = run_ranks(
        lambda comm: algo(comm, make_rank_stream(dim, nnz, comm.rank, seed)), nranks
    )
    ref = reference_sum(dim, nnz, nranks, seed)
    return out, ref


class TestSliceStream:
    def test_slices_by_range(self, rng):
        s = SparseStream(100, indices=[5, 20, 50, 99], values=[1.0, 2.0, 3.0, 4.0])
        part = slice_stream(s, 10, 60)
        assert list(part.indices) == [20, 50]
        assert list(part.values) == [2.0, 3.0]

    def test_empty_slice(self):
        s = SparseStream(100, indices=[5], values=[1.0])
        assert slice_stream(s, 50, 60).nnz == 0

    def test_full_slice(self, rng):
        s = SparseStream.random_uniform(100, nnz=20, rng=rng)
        part = slice_stream(s, 0, 100)
        assert np.array_equal(part.indices, s.indices)

    def test_dense_rejected(self):
        s = SparseStream(10, dense=np.zeros(10, dtype=np.float32))
        with pytest.raises(ValueError):
            slice_stream(s, 0, 5)

    @pytest.mark.parametrize("dim", [1, 4096, 1 << 32])
    def test_bounds_match_the_int_search(self, dim, rng):
        """The bounds are searched as uint32 scalars; ``2**32`` cannot be one."""
        idx = np.unique(rng.integers(0, dim, 300, dtype=np.uint64))
        idx[-1] = dim - 1  # the top index, and a bound equal to it below
        s = SparseStream(dim, indices=idx, values=np.ones(idx.size))
        cuts = [0, 1, int(idx[0]), int(idx[idx.size // 2]), dim - 1, dim]
        cuts += [int(c) for c in rng.integers(0, dim + 1, 20, dtype=np.uint64)]
        for lo in cuts:
            for hi in cuts:
                if lo > hi:
                    continue
                part = slice_stream(s, lo, hi)
                start, stop = np.searchsorted(s.indices, [lo, hi])  # int form
                assert np.array_equal(part.indices, s.indices[start:stop])
                assert np.array_equal(part.values, s.values[start:stop])


@pytest.mark.parametrize("name,algo", SPARSE_ALGOS.items())
class TestSparseAllreduce:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    def test_power_of_two(self, name, algo, nranks):
        out, ref = run_sparse(algo, nranks, 4096, 100)
        for r in range(nranks):
            assert np.allclose(out[r].to_dense(), ref, atol=1e-4), f"{name} rank {r}"

    @pytest.mark.parametrize("nranks", [3, 5, 6])
    def test_non_power_of_two(self, name, algo, nranks):
        out, ref = run_sparse(algo, nranks, 2048, 64)
        for r in range(nranks):
            assert np.allclose(out[r].to_dense(), ref, atol=1e-4)

    def test_empty_contributions(self, name, algo):
        out, ref = run_sparse(algo, 4, 1024, 0)
        for r in range(4):
            assert out[r].stored_nonzeros == 0

    def test_single_nonzero(self, name, algo):
        out, ref = run_sparse(algo, 4, 512, 1)
        for r in range(4):
            assert np.allclose(out[r].to_dense(), ref, atol=1e-5)

    def test_full_overlap_inputs(self, name, algo):
        """All ranks contribute the same support: K = k (§5.3 extreme 2)."""
        idx = np.arange(0, 1000, 10, dtype=np.uint32)

        def prog(comm):
            vals = np.full(idx.size, float(comm.rank + 1), dtype=np.float32)
            return algo(comm, SparseStream(8192, indices=idx, values=vals))

        out = run_ranks(prog, 4)
        result = out[0]
        assert result.nnz == idx.size  # no fill-in
        expected = np.zeros(8192, dtype=np.float32)
        expected[idx] = 1 + 2 + 3 + 4
        assert np.allclose(result.to_dense(), expected)

    def test_disjoint_inputs_max_fillin(self, name, algo):
        """Disjoint supports: K = kP (§5.3 extreme 1)."""
        k, P, dim = 50, 4, 8192

        def prog(comm):
            idx = np.arange(comm.rank * k, (comm.rank + 1) * k, dtype=np.uint32)
            return algo(comm, SparseStream(dim, indices=idx, values=np.ones(k, dtype=np.float32)))

        out = run_ranks(prog, P)
        assert out[0].nnz == k * P

    def test_float64_values(self, name, algo):
        out = run_ranks(
            lambda comm: algo(
                comm, make_rank_stream(1024, 30, comm.rank, value_dtype=np.float64)
            ),
            4,
        )
        ref = np.sum(
            [make_rank_stream(1024, 30, r, value_dtype=np.float64).to_dense() for r in range(4)],
            axis=0,
        )
        assert np.allclose(out[0].to_dense(), ref, atol=1e-10)

    def test_dense_input_accepted(self, name, algo):
        """Dense-representation inputs are sparsified at entry."""
        def prog(comm):
            s = make_rank_stream(512, 20, comm.rank).densify()
            return algo(comm, s)

        out = run_ranks(prog, 4)
        ref = reference_sum(512, 20, 4)
        assert np.allclose(out[0].to_dense(), ref, atol=1e-4)

    def test_results_identical_across_ranks(self, name, algo):
        out, _ = run_sparse(algo, 8, 2048, 64)
        base = out[0].to_dense()
        for r in range(1, 8):
            assert np.array_equal(out[r].to_dense(), base)


class TestFillInSwitching:
    def test_high_density_switches_to_dense(self):
        """When fill-in crosses delta, rec-dbl output becomes dense."""
        dim, P = 1024, 8  # delta = 512
        out, ref = run_sparse(ssar_recursive_double, P, dim, 200)  # K ~ 1024*0.79
        assert out[0].is_dense
        assert np.allclose(out[0].to_dense(), ref, atol=1e-4)

    def test_low_density_stays_sparse(self):
        out, _ = run_sparse(ssar_recursive_double, 4, 65536, 100)
        assert not out[0].is_dense


class TestSparseAllreduceApi:
    def test_auto_dispatch(self):
        def prog(comm):
            return sparse_allreduce(comm, make_rank_stream(4096, 50, comm.rank), algorithm="auto")

        out = run_ranks(prog, 4)
        assert np.allclose(out[0].to_dense(), reference_sum(4096, 50, 4), atol=1e-4)

    def test_unknown_algorithm(self):
        def prog(comm):
            return sparse_allreduce(comm, make_rank_stream(64, 4, comm.rank), algorithm="bogus")

        with pytest.raises(RankError):
            run_ranks(prog, 2)

    @pytest.mark.parametrize("algo", ["ssar_rec_dbl", "ssar_split_ag", "ssar_ring", "dsar_split_ag"])
    def test_named_dispatch(self, algo):
        def prog(comm):
            return sparse_allreduce(comm, make_rank_stream(2048, 40, comm.rank), algorithm=algo)

        out = run_ranks(prog, 4)
        assert np.allclose(out[0].to_dense(), reference_sum(2048, 40, 4), atol=1e-4)


class TestAllgather:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    def test_recursive_doubling_blocks(self, nranks):
        def prog(comm):
            return allgather_recursive_doubling(comm, f"blk{comm.rank}")

        out = run_ranks(prog, nranks)
        expected = [f"blk{r}" for r in range(nranks)]
        assert all(out[r] == expected for r in range(nranks))

    def test_recursive_doubling_requires_pow2(self):
        def prog(comm):
            return allgather_recursive_doubling(comm, 0)

        with pytest.raises(RankError):
            run_ranks(prog, 3)

    @pytest.mark.parametrize("nranks", [1, 2, 3, 5, 8])
    def test_ring_blocks(self, nranks):
        def prog(comm):
            return allgather_ring(comm, comm.rank * 11)

        out = run_ranks(prog, nranks)
        expected = [r * 11 for r in range(nranks)]
        assert all(out[r] == expected for r in range(nranks))

    @pytest.mark.parametrize("nranks", [2, 3, 4, 6, 8])
    def test_dispatch_any_p(self, nranks):
        def prog(comm):
            return allgather_blocks(comm, comm.rank)

        out = run_ranks(prog, nranks)
        assert out[0] == list(range(nranks))

    @pytest.mark.parametrize("nranks", [2, 4, 5, 8])
    def test_sparse_allgather_disjoint(self, nranks):
        dim = 1000

        def prog(comm):
            lo = comm.rank * dim // comm.size
            hi = (comm.rank + 1) * dim // comm.size
            idx = np.arange(lo, hi, 2, dtype=np.uint32)
            vals = np.full(idx.size, comm.rank + 1.0, dtype=np.float32)
            return sparse_allgather(comm, SparseStream(dim, indices=idx, values=vals))

        out = run_ranks(prog, nranks)
        ref = np.zeros(dim, dtype=np.float32)
        for r in range(nranks):
            lo, hi = r * dim // nranks, (r + 1) * dim // nranks
            ref[np.arange(lo, hi, 2)] = r + 1.0
        for r in range(nranks):
            assert np.allclose(out[r].to_dense(), ref)

    def test_sparse_allgather_rejects_dense(self):
        def prog(comm):
            s = SparseStream(10, dense=np.zeros(10, dtype=np.float32))
            return sparse_allgather(comm, s)

        with pytest.raises(RankError):
            run_ranks(prog, 2)


@settings(max_examples=15, deadline=None)
@given(
    nranks=st.integers(min_value=1, max_value=8),
    dim=st.integers(min_value=8, max_value=2000),
    algo_name=st.sampled_from(sorted(SPARSE_ALGOS)),
    seed=st.integers(0, 10_000),
)
def test_property_sparse_allreduce_matches_reference(nranks, dim, algo_name, seed):
    """All algorithms compute the exact sum for arbitrary shapes/densities."""
    gen = np.random.default_rng(seed)
    nnz = int(gen.integers(0, dim + 1))
    algo = SPARSE_ALGOS[algo_name]
    out, ref = run_sparse(algo, nranks, dim, nnz, seed=seed)
    for r in range(nranks):
        assert np.allclose(out[r].to_dense(), ref, atol=1e-3)
