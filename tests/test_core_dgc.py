"""Tests for momentum correction and sparsity warm-up (§8.4, DGC [38]),
the two options of Algorithm 1's driver."""

import numpy as np
import pytest

from repro.core import ErrorFeedback, TopKSGDConfig, quantized_topk_sgd
from repro.runtime import RankError, run_ranks


def make_quadratic(dim, nranks, noise=0.02):
    centres = [np.random.default_rng(500 + r).standard_normal(dim) * 2 for r in range(nranks)]
    optimum = np.mean(centres, axis=0)

    def grad_fn_for(rank):
        g = np.random.default_rng(900 + rank)

        def fn(params, step):
            return ((params - centres[rank]) / nranks + g.standard_normal(dim) * noise).astype(
                np.float32
            )

        return fn

    return grad_fn_for, optimum


class TestWarmupSchedule:
    """The per-bucket k the driver selects with at each step."""

    @staticmethod
    def selected_ks(monkeypatch, steps, **config):
        ks, select = [], ErrorFeedback.select

        def recording_select(ef, scaled_gradient):
            ks.append(ef.k)
            return select(ef, scaled_gradient)

        monkeypatch.setattr(ErrorFeedback, "select", recording_select)
        cfg = TopKSGDConfig(momentum=0.9, **config)
        dim = cfg.bucket_size or 1024

        def prog(comm):
            grad = np.ones(dim, np.float32)
            return quantized_topk_sgd(comm, lambda p, s: grad, dim, steps, cfg)

        run_ranks(prog, 1)
        return ks

    def test_no_warmup_is_constant(self, monkeypatch):
        ks = self.selected_ks(monkeypatch, 5, k=4, bucket_size=512, warmup_steps=0)
        assert ks == [4] * 5

    def test_starts_dense_ends_at_target(self, monkeypatch):
        ks = self.selected_ks(monkeypatch, 12, k=4, bucket_size=512, warmup_steps=10)
        assert ks[0] == 128  # 25% of the bucket
        assert ks[10:] == [4, 4]

    def test_monotone_decay(self, monkeypatch):
        ks = self.selected_ks(monkeypatch, 25, k=2, bucket_size=256, warmup_steps=20)
        assert all(a >= b for a, b in zip(ks, ks[1:]))
        assert min(ks) == 2

    def test_target_above_dense_fraction(self, monkeypatch):
        # if the target is already denser than the warm-up start, stay there
        ks = self.selected_ks(monkeypatch, 3, k=200, bucket_size=512, warmup_steps=10)
        assert ks == [200] * 3

    def test_global_selection_starts_from_a_quarter_of_the_model(self, monkeypatch):
        ks = self.selected_ks(monkeypatch, 11, k=8, bucket_size=None, warmup_steps=10)
        assert ks[0] == 256  # 25% of the 1024 coordinates
        assert ks[10] == 8


class TestDGCSGD:
    """Algorithm 1 with momentum correction (and warm-up where set)."""

    def test_converges_on_quadratic(self):
        dim, P = 128, 4
        grad_fn_for, optimum = make_quadratic(dim, P)
        cfg = TopKSGDConfig(
            k=4, bucket_size=64, lr=0.1, momentum=0.5, warmup_steps=20, lr_decay=0.02
        )

        def prog(comm):
            return quantized_topk_sgd(comm, grad_fn_for(comm.rank), dim, 200, cfg)

        out = run_ranks(prog, P)
        err = np.linalg.norm(out[0].params - optimum) / np.linalg.norm(optimum)
        assert err < 0.2

    def test_replicas_identical(self):
        dim, P = 64, 4
        grad_fn_for, _ = make_quadratic(dim, P)
        cfg = TopKSGDConfig(k=4, bucket_size=32, lr=0.05, momentum=0.9)

        def prog(comm):
            return quantized_topk_sgd(comm, grad_fn_for(comm.rank), dim, 30, cfg)

        out = run_ranks(prog, P)
        for r in range(1, P):
            assert np.array_equal(out[r].params, out[0].params)

    def test_warmup_sends_more_bytes_early(self):
        dim, P = 1 << 13, 2
        grad_fn_for, _ = make_quadratic(dim, P)
        cfg = TopKSGDConfig(k=2, bucket_size=512, lr=0.05, momentum=0.9, warmup_steps=30)

        def prog(comm):
            return quantized_topk_sgd(comm, grad_fn_for(comm.rank), dim, 40, cfg)

        out = run_ranks(prog, P)
        per_step = out[0].bytes_sent_per_step
        # warm-up phase (dense-ish) must send much more than steady state
        assert per_step[0] > 10 * per_step[-1]
        # decreasing through warm-up
        assert per_step[0] >= per_step[10] >= per_step[29] >= per_step[-1]

    def test_momentum_correction_beats_no_momentum_on_ill_conditioned(self):
        """On an ill-conditioned quadratic, corrected momentum converges
        faster than plain TopK SGD at matched effective step sizes."""
        dim, P = 64, 2
        scales = np.logspace(0, 1.3, dim)  # condition number ~20
        centre = np.random.default_rng(7).standard_normal(dim)

        def grad_fn_for(rank):
            g = np.random.default_rng(40 + rank)

            def fn(params, step):
                return (scales * (params - centre) / P
                        + g.standard_normal(dim) * 0.01).astype(np.float32)

            return fn

        steps = 150
        m = 0.9
        dgc_cfg = TopKSGDConfig(k=8, bucket_size=32, lr=0.02, momentum=m, lr_decay=0.01)
        plain_cfg = TopKSGDConfig(k=8, bucket_size=32, lr=0.02 / (1 - m), lr_decay=0.01)

        dgc_out = run_ranks(
            lambda c: quantized_topk_sgd(c, grad_fn_for(c.rank), dim, steps, dgc_cfg), P
        )
        plain_out = run_ranks(
            lambda c: quantized_topk_sgd(c, grad_fn_for(c.rank), dim, steps, plain_cfg), P
        )
        err = lambda p: np.linalg.norm(p - centre) / np.linalg.norm(centre)
        assert err(dgc_out[0].params) < err(plain_out[0].params) * 1.5

    def test_quantized_variant(self):
        dim, P = 128, 4
        grad_fn_for, optimum = make_quadratic(dim, P)
        cfg = TopKSGDConfig(
            k=8, bucket_size=64, lr=0.1, momentum=0.5, lr_decay=0.02, quantizer_bits=8
        )

        def prog(comm):
            return quantized_topk_sgd(comm, grad_fn_for(comm.rank), dim, 200, cfg)

        out = run_ranks(prog, P)
        err = np.linalg.norm(out[0].params - optimum) / np.linalg.norm(optimum)
        assert err < 0.25

    def test_eval_history(self):
        dim, P = 32, 2
        grad_fn_for, optimum = make_quadratic(dim, P)
        cfg = TopKSGDConfig(k=4, bucket_size=16, lr=0.1, momentum=0.5)

        def prog(comm):
            return quantized_topk_sgd(
                comm, grad_fn_for(comm.rank), dim, 11, cfg,
                eval_fn=lambda p: {"d": float(np.linalg.norm(p - optimum))},
                eval_every=5,
            )

        out = run_ranks(prog, P)
        assert [h["step"] for h in out[0].history] == [0, 5, 10]

    @pytest.mark.parametrize("momentum,passes", [(0.0, 3), (0.5, 4)])
    def test_velocity_update_is_charged_to_the_trace(self, momentum, passes):
        """The gradient step is charged 3 passes over the float32 gradient,
        one more with the velocity update."""
        dim = 64
        cfg = TopKSGDConfig(k=4, bucket_size=32, momentum=momentum)

        def prog(comm):
            grad = np.ones(dim, np.float32)
            quantized_topk_sgd(comm, lambda p, s: grad, dim, 2, cfg)

        trace = run_ranks(prog, 2).trace
        for rank in range(2):
            charged = [e.nbytes for e in trace.events(rank) if e.label == "grad"]
            assert charged == [passes * dim * 4] * 2

    def test_invalid_momentum(self):
        cfg = TopKSGDConfig(k=1, momentum=1.0)

        def prog(comm):
            return quantized_topk_sgd(comm, lambda p, s: np.zeros(4, np.float32), 4, 1, cfg)

        with pytest.raises(RankError):
            run_ranks(prog, 2)

    def test_bad_grad_shape(self):
        cfg = TopKSGDConfig(k=1, momentum=0.9)

        def prog(comm):
            return quantized_topk_sgd(comm, lambda p, s: np.zeros(3, np.float32), 4, 1, cfg)

        with pytest.raises(RankError):
            run_ranks(prog, 2)
