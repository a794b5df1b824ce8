"""End-to-end integration tests crossing module boundaries.

These exercise the full pipeline the benchmarks rely on: execute a real
distributed workload on the thread backend, replay the trace under a
network model, and check the paper-level qualitative claims.
"""

import numpy as np

from repro import (
    ARIES,
    GIGE,
    SparseStream,
    TopKSGDConfig,
    dense_allreduce,
    dense_sgd,
    quantized_topk_sgd,
    replay,
    run_ranks,
    sparse_allreduce,
)
from repro.mlopt import LogisticRegression, SGDConfig, distributed_sgd, make_url_like
from repro.nn import make_eval_fn, make_grad_fn, make_mlp

from conftest import make_rank_stream


class TestMicrobenchClaims:
    """Qualitative shape of Fig. 3 at test scale."""

    def test_sparse_beats_dense_at_low_density(self):
        dim, nnz, P = 1 << 18, 500, 8  # d ~ 0.2%

        def sparse(comm):
            return sparse_allreduce(comm, make_rank_stream(dim, nnz, comm.rank), "ssar_rec_dbl")

        def dense(comm):
            return dense_allreduce(comm, make_rank_stream(dim, nnz, comm.rank).to_dense())

        t_sparse = replay(run_ranks(sparse, P).trace, ARIES).makespan
        t_dense = replay(run_ranks(dense, P).trace, ARIES).makespan
        assert t_dense / t_sparse > 10

    def test_dsar_bounded_speedup_at_high_density(self):
        """§5.3.3: when the result is dense, sparsity alone caps at 2/kappa."""
        dim, P = 1 << 14, 8
        nnz = dim // 3  # massive fill-in: result dense

        def dsar(comm):
            return sparse_allreduce(comm, make_rank_stream(dim, nnz, comm.rank), "dsar_split_ag")

        def dense(comm):
            return dense_allreduce(comm, make_rank_stream(dim, nnz, comm.rank).to_dense())

        t_dsar = replay(run_ranks(dsar, P).trace, ARIES.with_(gamma=0)).makespan
        t_dense = replay(run_ranks(dense, P).trace, ARIES.with_(gamma=0)).makespan
        assert t_dense / t_dsar < 4.0 * 1.3  # 2/kappa = 4 for float32 (+slack)

    def test_rec_dbl_wins_small_split_wins_large(self):
        """The latency/bandwidth crossover that drives the selector.

        Recursive doubling wins latency-bound instances. The split wins
        when supports overlap (K clearly below P*k): doubling re-ships the
        growing partial sums every round while the split moves each reduced
        coordinate once (§5.3.2: it "dominates ... as long as the number of
        non-zero indices is relatively low compared to the overall reduced
        size").
        """
        P = 8

        def run(algo, nnz, dim, stride=1):
            def prog(c):
                gen = np.random.default_rng(4000 + c.rank)
                # stride > 1: supports overlap heavily (K << P*k) but stay
                # spread over the whole dimension (balanced partitions)
                candidates = dim // stride
                idx = np.sort(gen.choice(candidates, size=nnz, replace=False) * stride)
                s = SparseStream(
                    dim, indices=idx.astype(np.uint32),
                    values=np.ones(nnz, dtype=np.float32), copy=False,
                )
                return sparse_allreduce(c, s, algo)

            out = run_ranks(prog, P)
            return replay(out.trace, ARIES.with_(gamma=0)).makespan

        # tiny payload: recursive doubling's log2(P) alpha wins
        assert run("ssar_rec_dbl", 10, 1 << 20) < run("ssar_split_ag", 10, 1 << 20)
        # large overlapping payload: the split's bandwidth optimality wins
        big = dict(nnz=60_000, dim=1 << 22, stride=20)
        assert run("ssar_split_ag", **big) < run("ssar_rec_dbl", **big)

    def test_network_ordering_preserved(self):
        """Identical trace, slower network -> proportionally slower replay."""
        dim, nnz, P = 1 << 16, 300, 4
        out = run_ranks(
            lambda c: sparse_allreduce(c, make_rank_stream(dim, nnz, c.rank), "ssar_rec_dbl"), P
        )
        assert replay(out.trace, GIGE).makespan > replay(out.trace, ARIES).makespan * 10


class TestEndToEndTraining:
    def test_url_workload_speedup_and_same_model(self):
        """Table 2 shape: same model, sparse comm strictly cheaper."""
        ds = make_url_like(scale=0.002, n_samples=240)
        P = 4

        def prog(comm, mode):
            model = LogisticRegression(ds.n_features, reg=1e-5)
            cfg = SGDConfig(epochs=2, batch_size=30, lr=1.0, mode=mode)
            return distributed_sgd(comm, ds, model, cfg)

        sp = run_ranks(prog, P, "sparse")
        dn = run_ranks(prog, P, "dense")
        assert np.allclose(sp[0].params, dn[0].params, atol=1e-5)
        t_sp = replay(sp.trace, GIGE).makespan
        t_dn = replay(dn.trace, GIGE).makespan
        assert t_dn / t_sp > 1.2

    def test_topk_sgd_recovers_dense_accuracy(self):
        """Fig. 4a shape at test scale: sparse+quantized matches dense."""
        from repro.mlopt import make_cifar_like

        ds = make_cifar_like(n_samples=384, dim=128)
        P, steps = 4, 100

        def topk(comm):
            net = make_mlp(128, 10, hidden=(48,), seed=11)
            cfg = TopKSGDConfig(k=8, bucket_size=512, lr=0.06, quantizer_bits=4)
            return quantized_topk_sgd(
                comm, make_grad_fn(net, ds, comm, 32, seed=4), net.n_params, steps, cfg,
                make_eval_fn(net, ds, 256), eval_every=steps, init_params=net.param_vector(),
            )

        def dense(comm):
            net = make_mlp(128, 10, hidden=(48,), seed=11)
            return dense_sgd(
                comm, make_grad_fn(net, ds, comm, 32, seed=4), net.n_params, steps,
                lr=0.06 / comm.size, eval_fn=make_eval_fn(net, ds, 256),
                eval_every=steps, init_params=net.param_vector(),
            )

        topk_out = run_ranks(topk, P)
        dense_out = run_ranks(dense, P)
        acc_topk = topk_out[0].history[-1]["accuracy"]
        acc_dense = dense_out[0].history[-1]["accuracy"]
        assert acc_topk >= acc_dense - 0.05  # "< 0.5% accuracy loss" at scale
        assert dense_out[0].mean_bytes_per_step / topk_out[0].mean_bytes_per_step > 10

    def test_trace_accumulates_across_collectives(self):
        """One trace object can hold a whole training run for replay."""
        dim, P = 1 << 12, 4

        def prog(comm):
            for step in range(3):
                s = make_rank_stream(dim, 50, comm.rank, base_seed=8000 + step)
                sparse_allreduce(comm, s, "ssar_rec_dbl")
            return None

        out = run_ranks(prog, P)
        result = replay(out.trace, ARIES)
        assert result.makespan > 0
        # 3 collectives x log2(4) rounds x 4 ranks sends
        sends = sum(1 for e in out.trace.events(0) if e.op == "send")
        assert sends == 3 * 2


class TestQuantizedPipeline:
    def test_dsar_quantized_training_still_converges(self):
        """Full Algorithm 1 with the quantized-DSAR path as the collective."""
        dim, P, steps = 2048, 4, 60
        centre = np.random.default_rng(3).standard_normal(dim).astype(np.float32)

        def grad_fn_for(rank):
            g = np.random.default_rng(100 + rank)

            def fn(params, step):
                return ((params - centre) / P + g.standard_normal(dim) * 0.01).astype(np.float32)

            return fn

        def prog(comm):
            cfg = TopKSGDConfig(
                k=256, bucket_size=512, lr=0.4, lr_decay=0.02, algorithm="dsar_split_ag",
                quantizer_bits=8,
            )
            return quantized_topk_sgd(comm, grad_fn_for(comm.rank), dim, steps, cfg)

        out = run_ranks(prog, P)
        err = np.linalg.norm(out[0].params - centre) / np.linalg.norm(centre)
        assert err < 0.2
        for r in range(1, P):
            assert np.array_equal(out[r].params, out[0].params)
