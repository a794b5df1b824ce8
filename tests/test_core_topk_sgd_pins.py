"""Bit pins of Algorithm 1's driver with and without the §8.4 corrections.

Each case runs a fixed configuration on the thread backend and pins the
sha256 of the final parameters (identical on every rank) and the
run-length form of ``bytes_sent_per_step``. Any change to the step —
the order of the velocity update, the warm-up's k sequence, the
quantizer's seed, the selection — moves a pin.
"""

import hashlib
from functools import partial
from itertools import groupby

import numpy as np
import pytest

from repro.core import TopKSGDConfig, quantized_topk_sgd
from repro.runtime import run_ranks


def _ablation_grads(dim, nranks):
    """``benchmarks/test_ablation_dgc.py``'s ill-conditioned quadratic."""
    scales = np.logspace(0, 1.5, dim)
    centre = np.random.default_rng(17).standard_normal(dim)

    def grad_fn_for(rank):
        g = np.random.default_rng(70 + rank)

        def fn(params, step):
            return (scales * (params - centre) / nranks + g.standard_normal(dim) * 0.01).astype(
                np.float32
            )

        return fn

    return grad_fn_for


def _quadratic_grads(dim, nranks, noise=0.02):
    """``tests/test_core_dgc.py``'s distributed quadratic."""
    centres = [np.random.default_rng(500 + r).standard_normal(dim) * 2 for r in range(nranks)]

    def grad_fn_for(rank):
        g = np.random.default_rng(900 + rank)

        def fn(params, step):
            return ((params - centres[rank]) / nranks + g.standard_normal(dim) * noise).astype(
                np.float32
            )

        return fn

    return grad_fn_for


def _ablation_plain(comm, lr):
    cfg = TopKSGDConfig(k=4, bucket_size=64, lr=lr / (1 - 0.9), lr_decay=0.005)
    return quantized_topk_sgd(comm, _ablation_grads(256, 4)(comm.rank), 256, 300, cfg)


def _ablation_corrected(comm, lr):
    cfg = TopKSGDConfig(k=4, bucket_size=64, lr=lr, momentum=0.9, lr_decay=0.005)
    return quantized_topk_sgd(comm, _ablation_grads(256, 4)(comm.rank), 256, 300, cfg)


def _ablation_corrected_warmup(comm, lr):
    cfg = TopKSGDConfig(
        k=4, bucket_size=64, lr=lr, momentum=0.9, lr_decay=0.005, warmup_steps=40
    )
    return quantized_topk_sgd(comm, _ablation_grads(256, 4)(comm.rank), 256, 300, cfg)


def _dgc_warmup(comm):
    cfg = TopKSGDConfig(
        k=4, bucket_size=64, lr=0.1, momentum=0.5, warmup_steps=20, lr_decay=0.02
    )
    return quantized_topk_sgd(comm, _quadratic_grads(128, 4)(comm.rank), 128, 200, cfg)


def _plain_quantized(comm):
    cfg = TopKSGDConfig(k=16, bucket_size=64, lr=0.3, lr_decay=0.02, quantizer_bits=4)
    return quantized_topk_sgd(comm, _quadratic_grads(128, 4, 0.05)(comm.rank), 128, 160, cfg)


#: ``bytes_sent_per_step`` of the ablation's runs: k = 4 of every 64 all
#: along, or k decaying from 16 over a 40-step warm-up
STEADY = [(136, 300)]
WARMUP = [(520, 1), (488, 2), (456, 2), (424, 3), (392, 2), (360, 3), (328, 3),
          (296, 3), (264, 3), (232, 4), (200, 5), (168, 6), (136, 263)]

#: case -> (program, sha256 of the final params, (bytes, run length) pairs);
#: the six ablation cases are the rows of the §8.4 ablation's table
PINS = {
    "ablation stable plain": (
        partial(_ablation_plain, lr=0.003),
        "a566eaf748aa45801f1e1771b4e3123b904904422978735fdc40ef7ad1f6eaa1",
        STEADY,
    ),
    "ablation stable +momentum corr.": (
        partial(_ablation_corrected, lr=0.003),
        "32fa04a40b3cca84244d11a8d91f9fbd85a225712fae7408359ba15e01f948be",
        STEADY,
    ),
    "ablation stable +corr.+warmup": (
        partial(_ablation_corrected_warmup, lr=0.003),
        "8fe250ace0936edd32f1c5929ea62329ca6bb5aea6ac38d0456a2195313ae646",
        WARMUP,
    ),
    "ablation plain": (
        partial(_ablation_plain, lr=0.005),
        "19db07e9e032f885dc9166b7435c4846b8d21f5644d8522e4019fbad0ee07f4a",
        STEADY,
    ),
    "ablation +momentum corr.": (
        partial(_ablation_corrected, lr=0.005),
        "1c8ffa07d60038eb86394e1a832d789336f1db31625f2d61ab5271494a038612",
        STEADY,
    ),
    "ablation +corr.+warmup": (
        partial(_ablation_corrected_warmup, lr=0.005),
        "a077485acc61fbf578063aa7a7e5bc385b4c649fbe1f0e9a01c6cf5aed5e3f9c",
        WARMUP,
    ),
    "dgc warm-up": (
        _dgc_warmup,
        "d6f8e53e446b006657fccd1d5ac26a1f117ee80b9e834532bceb5a8a3b79ab9a",
        [(264, 1), (248, 1), (232, 1), (216, 1), (200, 1), (184, 2), (168, 1),
         (152, 2), (136, 1), (120, 2), (104, 3), (88, 3), (72, 181)],
    ),
    "plain 4-bit": (
        _plain_quantized,
        "3b5a3341e4b14df3f7fb04b8743a0bd278bbd1410f688c8fd5baf19ce353f6ff",
        [(156, 160)],
    ),
}


@pytest.mark.parametrize("case", list(PINS))
def test_final_params_and_bytes_per_step_are_pinned(case):
    prog, params_sha, runs = PINS[case]
    out = run_ranks(prog, 4)
    for r in range(1, 4):
        assert np.array_equal(out[r].params, out[0].params)
    got_sha = hashlib.sha256(out[0].params.tobytes()).hexdigest()
    got_runs = [(b, len(list(g))) for b, g in groupby(out[0].bytes_sent_per_step)]
    assert got_runs == runs
    assert got_sha == params_sha
