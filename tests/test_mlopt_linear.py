"""Tests for the linear models: gradient correctness and sparsity structure."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.mlopt import LinearSVM, LogisticRegression, make_sparse_classification
from repro.mlopt.linear import sparse_grad_from_batch


@pytest.fixture
def small_dataset():
    return make_sparse_classification(80, 500, 15, seed=11)


class TestSparseGradFromBatch:
    def test_matches_dense_matmul(self, small_dataset):
        X = small_dataset.X[:10]
        dloss = np.random.default_rng(0).standard_normal(10)
        stream = sparse_grad_from_batch(X, dloss)
        dense_ref = np.asarray(X.T @ dloss).ravel() / 10
        assert np.allclose(stream.to_dense(), dense_ref, atol=1e-5)

    def test_support_is_row_union(self, small_dataset):
        X = small_dataset.X[:5]
        stream = sparse_grad_from_batch(X, np.ones(5))
        union = np.unique(X.indices)
        assert set(stream.indices.tolist()) <= set(union.tolist())

    def test_empty_batch(self):
        X = sp.csr_matrix((0, 100), dtype=np.float32)
        stream = sparse_grad_from_batch(X, np.empty(0))
        assert stream.nnz == 0

    def test_wrong_dloss_shape(self, small_dataset):
        with pytest.raises(ValueError):
            sparse_grad_from_batch(small_dataset.X[:5], np.ones(4))


@pytest.mark.parametrize("model_cls", [LogisticRegression, LinearSVM])
class TestLinearModels:
    def test_grad_stream_matches_dense_grad(self, model_cls, small_dataset):
        """Sparse data-term gradient + reg == reference dense gradient."""
        model = model_cls(small_dataset.n_features, reg=1e-3)
        rng = np.random.default_rng(1)
        w = rng.standard_normal(small_dataset.n_features) * 0.1
        stream = model.grad_stream(w, small_dataset.X, small_dataset.y)
        full = model.grad_dense(w, small_dataset.X, small_dataset.y)
        assert np.allclose(stream.to_dense() + model.reg * w, full, atol=1e-4)

    def test_gradient_check_finite_difference(self, model_cls, small_dataset):
        """Dense gradient vs central differences on random coordinates."""
        model = model_cls(small_dataset.n_features, reg=1e-3)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(small_dataset.n_features) * 0.05
        grad = model.grad_dense(w, small_dataset.X, small_dataset.y)
        eps = 1e-6
        # probe only coordinates with data support (others are reg-only)
        support = np.unique(small_dataset.X.indices)[:20]
        for j in support:
            w_p, w_m = w.copy(), w.copy()
            w_p[j] += eps
            w_m[j] -= eps
            num = (model.loss(w_p, small_dataset.X, small_dataset.y)
                   - model.loss(w_m, small_dataset.X, small_dataset.y)) / (2 * eps)
            assert num == pytest.approx(grad[j], abs=5e-4)

    def test_loss_decreases_under_gd(self, model_cls, small_dataset):
        model = model_cls(small_dataset.n_features, reg=1e-4)
        w = np.zeros(small_dataset.n_features)
        losses = [model.loss(w, small_dataset.X, small_dataset.y)]
        for _ in range(30):
            w -= 0.5 * model.grad_dense(w, small_dataset.X, small_dataset.y)
            losses.append(model.loss(w, small_dataset.X, small_dataset.y))
        assert losses[-1] < losses[0] * 0.9

    def test_accuracy_improves(self, model_cls, small_dataset):
        model = model_cls(small_dataset.n_features, reg=1e-4)
        w = np.zeros(small_dataset.n_features)
        for _ in range(60):
            w -= 0.5 * model.grad_dense(w, small_dataset.X, small_dataset.y)
        assert model.accuracy(w, small_dataset.X, small_dataset.y) > 0.7

    def test_regularization_shrinks(self, model_cls):
        model = model_cls(10, reg=0.1)
        w = np.ones(10)
        model.apply_regularization(w, lr=1.0)
        assert np.allclose(w, 0.9)

    def test_invalid_construction(self, model_cls):
        with pytest.raises(ValueError):
            model_cls(0)
        with pytest.raises(ValueError):
            model_cls(10, reg=-1.0)

    def test_empty_eval(self, model_cls):
        model = model_cls(50)
        X = sp.csr_matrix((0, 50), dtype=np.float32)
        assert model.accuracy(np.zeros(50), X, np.empty(0)) == 0.0


class TestLossShapes:
    def test_logistic_loss_at_zero_weights(self, small_dataset):
        model = LogisticRegression(small_dataset.n_features, reg=0.0)
        # log(2) at w = 0
        assert model.loss(np.zeros(small_dataset.n_features), small_dataset.X,
                          small_dataset.y) == pytest.approx(np.log(2), abs=1e-6)

    def test_hinge_loss_at_zero_weights(self, small_dataset):
        model = LinearSVM(small_dataset.n_features, reg=0.0)
        assert model.loss(np.zeros(small_dataset.n_features), small_dataset.X,
                          small_dataset.y) == pytest.approx(1.0, abs=1e-6)

    def test_hinge_gradient_zero_when_margins_large(self):
        model = LinearSVM(4, reg=0.0)
        X = sp.csr_matrix(np.eye(4, dtype=np.float32))
        y = np.ones(4, dtype=np.float32)
        w = np.full(4, 10.0)  # every margin = 10 > 1
        grad = model.grad_dense(w, X, y)
        assert np.allclose(grad, 0.0)


class TestLossWakesNoThreadPool:
    def test_l2_term_equals_the_dot_form(self, small_dataset):
        w = np.random.default_rng(3).standard_normal(small_dataset.n_features)
        model = LogisticRegression(small_dataset.n_features, reg=0.5)
        data_term = LogisticRegression(small_dataset.n_features, reg=0.0).loss(
            w, small_dataset.X, small_dataset.y
        )
        got = model.loss(w, small_dataset.X, small_dataset.y)
        assert got == pytest.approx(data_term + 0.25 * float(w @ w), rel=1e-12)

    @pytest.mark.skipif(os.cpu_count() == 1, reason="a one-core host has no pool to wake")
    def test_no_pool_spins_after_a_loss(self):
        """CPU the process burns outside the calling thread across one
        ``loss`` on a 2^18-vector and the 50 ms after it. With ``w @ w``
        an OpenBLAS worker spin-waits through the sleep (> 100 ms on a
        multi-core host). In a fresh interpreter, so no earlier test's
        BLAS call is still spinning."""
        script = textwrap.dedent("""
            import time
            import numpy as np
            from repro.mlopt import LogisticRegression, make_sparse_classification
            ds = make_sparse_classification(64, 1 << 18, 20, seed=1)
            w = np.random.default_rng(0).standard_normal(1 << 18)
            model = LogisticRegression(ds.n_features)
            model.loss(w, ds.X, ds.y)
            time.sleep(0.5)
            process0, thread0 = time.process_time(), time.thread_time()
            model.loss(w, ds.X, ds.y)
            time.sleep(0.05)
            print((time.process_time() - process0) - (time.thread_time() - thread0))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        assert float(out.stdout) < 0.010
