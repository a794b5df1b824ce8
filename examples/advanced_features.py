#!/usr/bin/env python
"""Tour of the library's secondary features (paper §5.2, §7, §8.4, §9).

1. arbitrary reduction operations over sparse streams (max shown),
2. tensor fusion: coalescing layer gradients into communication buckets,
3. asynchronous (pipelined) aggregation in MPI-OPT,
4. on-disk dataset partitioning (the MPI-IO stand-in),
5. momentum correction + warm-up (the DGC techniques of §8.4).

Run:  python examples/advanced_features.py
"""

import tempfile

import numpy as np

from repro import GIGE, SparseStream, replay, run_ranks, sparse_allreduce
from repro.core import GradientFuser, TopKSGDConfig, quantized_topk_sgd
from repro.mlopt import (
    LogisticRegression,
    SGDConfig,
    distributed_sgd,
    distributed_sgd_async,
    load_shard,
    make_url_like,
    save_dataset,
)
from repro.nn import make_mlp

P = 4


def demo_reduce_ops() -> None:
    print("=== 1. reduction operations (sparse max) ===")

    def prog(comm):
        gen = np.random.default_rng(comm.rank)
        idx = gen.choice(10_000, size=100, replace=False)
        vals = np.abs(gen.standard_normal(100)).astype(np.float32)
        s = SparseStream(10_000, indices=idx, values=vals)
        return sparse_allreduce(comm, s, algorithm="ssar_rec_dbl", op="max")

    out = run_ranks(prog, P)
    print(f"element-wise max over {P} ranks: K={out[0].nnz} nonzeros, "
          f"max value {out[0].values.max():.3f}\n")


def demo_tensor_fusion() -> None:
    print("=== 2. tensor fusion ===")
    net = make_mlp(512, 10, hidden=(128, 64, 32), seed=0)
    for threshold, label in ((0, "layer-wise"), (1 << 16, "fused 64KB"), (1 << 30, "whole model")):
        fuser = GradientFuser.from_network(net, min_bucket_bytes=threshold)

        def prog(comm, fuser=fuser):
            efs = fuser.make_error_feedback(k=8, bucket_size=512)
            grad = np.random.default_rng(comm.rank).standard_normal(net.n_params).astype(np.float32)
            fuser.i_fused_allreduce(comm, grad, efs, algorithm="ssar_rec_dbl").wait()
            return None

        out = run_ranks(prog, P)
        t = replay(out.trace, GIGE).makespan
        print(f"  {label:12s}: {fuser.n_buckets:2d} buckets, "
              f"{out.trace.total_messages:4d} messages, GigE {t * 1e3:6.2f}ms")
    print()


def demo_async_aggregation() -> None:
    print("=== 3. asynchronous (pipelined) aggregation ===")
    ds = make_url_like(scale=0.004, n_samples=400)
    cfg = SGDConfig(epochs=2, batch_size=25, lr=0.5, mode="sparse")

    sync = run_ranks(
        lambda c: distributed_sgd(c, ds, LogisticRegression(ds.n_features, 1e-5), cfg), P
    )
    asyn = run_ranks(
        lambda c: distributed_sgd_async(c, ds, LogisticRegression(ds.n_features, 1e-5), cfg), P
    )
    drift = np.linalg.norm(sync[0].params - asyn[0].params) / np.linalg.norm(sync[0].params)
    print(f"  sync loss {sync[0].final_loss:.4f} vs async loss {asyn[0].final_loss:.4f} "
          f"(parameter drift {drift:.1%} from 1-step staleness)\n")


def demo_disk_partitioning() -> None:
    print("=== 4. on-disk dataset partitioning ===")
    ds = make_url_like(scale=0.004, n_samples=400)
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(tmp, ds)
        shards = [load_shard(tmp, r, P) for r in range(P)]
        print(f"  wrote {ds.n_samples}x{ds.n_features}; each of {P} ranks maps only "
              f"its shard: {[s.n_samples for s in shards]} rows\n")


def demo_dgc() -> None:
    print("=== 5. momentum correction + warm-up (DGC, §8.4) ===")
    dim = 256
    centre = np.random.default_rng(3).standard_normal(dim)

    def grad_fn_for(rank):
        g = np.random.default_rng(rank)

        def fn(params, step):
            return ((params - centre) / P + g.standard_normal(dim) * 0.02).astype(np.float32)

        return fn

    cfg = TopKSGDConfig(
        k=4, bucket_size=64, lr=0.1, momentum=0.5, warmup_steps=30, lr_decay=0.02
    )
    out = run_ranks(lambda c: quantized_topk_sgd(c, grad_fn_for(c.rank), dim, 200, cfg), P)
    err = np.linalg.norm(out[0].params - centre) / np.linalg.norm(centre)
    first, last = out[0].bytes_sent_per_step[0], out[0].bytes_sent_per_step[-1]
    print(f"  converged to {err:.1%} of ||x*||; warm-up sent {first}B/step early "
          f"vs {last}B/step at steady state")


if __name__ == "__main__":
    demo_reduce_ops()
    demo_tensor_fusion()
    demo_async_aggregation()
    demo_disk_partitioning()
    demo_dgc()
