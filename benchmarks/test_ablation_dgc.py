"""Ablation: momentum correction and warm-up (§8.4's DGC techniques).

The paper deployed momentum correction and warm-up training when pushing
ResNet50 to high sparsity at large batch sizes — i.e. at *aggressive
effective step sizes*. This bench isolates both knobs on an
ill-conditioned quadratic in two regimes:

* a **stable** step size: every variant converges; the corrections cost
  nothing (same traffic, same error);
* an **aggressive** step size (edge of stability): plain TopK SGD blows
  up while momentum correction keeps the run bounded and warm-up further
  stabilises the early phase — the §8.4 deployment scenario.
"""

from __future__ import annotations

from common import fmt_bytes, format_table, write_result  # noqa: E402  (path bootstrap: keep before repro imports)

import numpy as np

from repro.core import TopKSGDConfig, quantized_topk_sgd
from repro.runtime import run_ranks


DIM = 256
P = 4
STEPS = 300
MOMENTUM = 0.9


def _setup():
    scales = np.logspace(0, 1.5, DIM)  # condition number ~30
    centre = np.random.default_rng(17).standard_normal(DIM)

    def grad_fn_for(rank):
        g = np.random.default_rng(70 + rank)

        def fn(params, step):
            return (
                scales * (params - centre) / P + g.standard_normal(DIM) * 0.01
            ).astype(np.float32)

        return fn

    return grad_fn_for, centre


def _run_regime(lr: float):
    grad_fn_for, centre = _setup()
    m = MOMENTUM

    def plain(comm):
        cfg = TopKSGDConfig(k=4, bucket_size=64, lr=lr / (1 - m), lr_decay=0.005)
        return quantized_topk_sgd(comm, grad_fn_for(comm.rank), DIM, STEPS, cfg)

    def corrected(comm):
        cfg = TopKSGDConfig(k=4, bucket_size=64, lr=lr, momentum=m, lr_decay=0.005)
        return quantized_topk_sgd(comm, grad_fn_for(comm.rank), DIM, STEPS, cfg)

    def corrected_warmup(comm):
        cfg = TopKSGDConfig(
            k=4, bucket_size=64, lr=lr, momentum=m, lr_decay=0.005, warmup_steps=40
        )
        return quantized_topk_sgd(comm, grad_fn_for(comm.rank), DIM, STEPS, cfg)

    out = {}
    for name, prog in (
        ("plain topk", plain),
        ("+momentum corr.", corrected),
        ("+corr.+warmup", corrected_warmup),
    ):
        run = run_ranks(prog, P)
        err = float(np.linalg.norm(run[0].params - centre) / np.linalg.norm(centre))
        out[name] = {
            "err": err,
            "bytes": sum(run[0].bytes_sent_per_step),
            "early_bytes": sum(run[0].bytes_sent_per_step[:40]),
        }
    return out


def _run_experiment():
    return {"stable (lr=0.003)": _run_regime(0.003), "aggressive (lr=0.005)": _run_regime(0.005)}


def test_ablation_momentum_warmup(benchmark):
    regimes = benchmark.pedantic(_run_experiment, rounds=1, iterations=1)
    rows = []
    for regime, variants in regimes.items():
        for name, v in variants.items():
            err = "diverged" if (not np.isfinite(v["err"]) or v["err"] > 100) else f"{v['err']:.4f}"
            rows.append([regime, name, err, fmt_bytes(v["bytes"]), fmt_bytes(v["early_bytes"])])
    write_result(
        "ablation_dgc",
        format_table(
            ["regime", "variant", "rel. error", "total bytes", "first-40-step bytes"],
            rows, title="Ablation: momentum correction + warm-up (§8.4 / DGC)",
        )
        + "\nAt stable step sizes the corrections are free; at aggressive step\n"
        "sizes (the high-sparsity/large-batch regime of §8.4) they are what\n"
        "keeps sparse training from destabilising.\n",
    )

    stable = regimes["stable (lr=0.003)"]
    aggressive = regimes["aggressive (lr=0.005)"]
    # stable: everything converges
    for name, v in stable.items():
        assert v["err"] < 0.2, f"stable {name}: {v['err']}"
    # aggressive: the corrections dominate plain TopK
    plain_err = aggressive["plain topk"]["err"]
    warm_err = aggressive["+corr.+warmup"]["err"]
    assert not np.isfinite(plain_err) or warm_err < plain_err / 2
    assert warm_err <= aggressive["+momentum corr."]["err"] * 1.2
    # warm-up spends visibly more early traffic
    assert (
        aggressive["+corr.+warmup"]["early_bytes"]
        > 2 * aggressive["+momentum corr."]["early_bytes"]
    )
