"""Public API surface and cross-cutting edge cases.

Guards the stability of the documented import surface (README examples
must keep working), exercises float16 streams end to end, and covers a
few seams not owned by any single module's test file.
"""

import numpy as np
import pytest

import repro
from repro.runtime import run_ranks
from repro.streams import SparseStream


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_readme_symbols_importable(self):
        # exactly the names the README quickstart uses
        for name in (
            "SparseStream", "run_ranks", "sparse_allreduce", "replay", "ARIES",
            "TopKSGDConfig", "quantized_topk_sgd", "dense_sgd", "dense_allreduce",
            "QSGDQuantizer", "ErrorFeedback", "Trace", "NetworkModel",
        ):
            assert hasattr(repro, name), name

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_all_exports_resolve(self):
        import repro.analysis
        import repro.collectives
        import repro.core
        import repro.costmodel
        import repro.frameworks
        import repro.mlopt
        import repro.netsim
        import repro.nn
        import repro.quant
        import repro.runtime
        import repro.streams

        for mod in (
            repro.analysis, repro.collectives, repro.core, repro.costmodel,
            repro.frameworks, repro.mlopt, repro.netsim, repro.nn,
            repro.quant, repro.runtime, repro.streams,
        ):
            for name in mod.__all__:
                assert getattr(mod, name, None) is not None, f"{mod.__name__}.{name}"

    def test_quickstart_snippet_runs(self):
        """The README quickstart, verbatim in miniature."""
        def program(comm):
            gen = np.random.default_rng(comm.rank)
            stream = SparseStream.random_uniform(1 << 12, nnz=50, rng=gen)
            return repro.sparse_allreduce(comm, stream, algorithm="auto")

        out = run_ranks(program, 4)
        timing = repro.replay(out.trace, repro.ARIES)
        assert timing.makespan > 0
        assert out.trace.summary()["messages"] > 0


class TestFloat16Streams:
    def test_fp16_roundtrip(self, rng):
        s = SparseStream.random_uniform(256, nnz=20, rng=rng, value_dtype=np.float16)
        assert s.value_dtype == np.dtype(np.float16)
        assert s.to_dense().dtype == np.float16

    def test_fp16_delta_is_one_third(self):
        s = SparseStream.zeros(900, value_dtype=np.float16)
        assert s.delta == 300  # N * 2 / 6

    def test_fp16_wire_bytes(self):
        s = SparseStream(1000, indices=[1, 2], values=[1.0, 2.0], value_dtype=np.float16)
        from repro.config import STREAM_HEADER_BYTES

        assert s.nbytes_payload == STREAM_HEADER_BYTES + 2 * (4 + 2)

    @pytest.mark.parametrize("algorithm", ["ssar_rec_dbl", "ssar_split_ag"])
    def test_fp16_collectives(self, algorithm):
        P, dim, nnz = 4, 1024, 30

        def make(rank):
            gen = np.random.default_rng(600 + rank)
            return SparseStream.random_uniform(dim, nnz=nnz, rng=gen, value_dtype=np.float16)

        def prog(comm):
            return repro.sparse_allreduce(comm, make(comm.rank), algorithm=algorithm)

        out = run_ranks(prog, P)
        ref = np.sum([make(r).to_dense().astype(np.float64) for r in range(P)], axis=0)
        # fp16 accumulation tolerance
        assert np.allclose(out[0].to_dense().astype(np.float64), ref, atol=2e-2)

    def test_fp16_halves_traffic_vs_fp32(self):
        P, dim, nnz = 2, 1 << 16, 2000

        def run_with(dtype):
            def prog(comm):
                gen = np.random.default_rng(comm.rank)
                s = SparseStream.random_uniform(dim, nnz=nnz, rng=gen, value_dtype=dtype)
                return repro.sparse_allreduce(comm, s, algorithm="ssar_rec_dbl")

            return run_ranks(prog, P).trace.total_bytes_sent

        fp32 = run_with(np.float32)
        fp16 = run_with(np.float16)
        # pair bytes: 4+4 -> 4+2, i.e. 25% saving
        assert fp16 < fp32
        assert fp16 / fp32 == pytest.approx(6 / 8, rel=0.05)


class TestCrossCuttingEdges:
    def test_dimension_zero_stream(self):
        s = SparseStream.zeros(0)
        assert s.nnz == 0
        assert s.to_dense().shape == (0,)

    def test_single_rank_everything(self):
        """P=1 degenerate case across the API surface."""
        def prog(comm):
            gen = np.random.default_rng(0)
            s = SparseStream.random_uniform(128, nnz=8, rng=gen)
            a = repro.sparse_allreduce(comm, s, "ssar_rec_dbl")
            b = repro.sparse_allreduce(comm, s, "dsar_split_ag")
            c = repro.dense_allreduce(comm, s.to_dense())
            comm.barrier()
            return a, b, c

        out = run_ranks(prog, 1)
        a, b, c = out[0]
        assert np.allclose(a.to_dense(), c, atol=1e-6)
        assert np.allclose(b.to_dense(), c, atol=1e-6)

    def test_choose_algorithm_matches_executed_path(self):
        """The selector's choice must execute without error for shapes
        across the decision boundaries."""
        for dim, nnz in [(1 << 16, 10), (1 << 20, 40_000), (4096, 1500)]:
            algo = repro.CostModel.default().choose(repro.Instance(dim, 4, nnz))

            def prog(comm, dim=dim, nnz=nnz, algo=algo):
                gen = np.random.default_rng(comm.rank)
                s = SparseStream.random_uniform(dim, nnz=nnz, rng=gen)
                return repro.sparse_allreduce(comm, s, algorithm=algo)

            out = run_ranks(prog, 4)
            assert out[0].dimension == dim
