"""Tests for asynchronous (pipelined) gradient aggregation."""

import numpy as np
import pytest

from repro.core import GradientFuser
from repro.mlopt import (
    LogisticRegression,
    SGDConfig,
    distributed_sgd,
    distributed_sgd_async,
    make_sparse_classification,
)
from repro.runtime import RankError, run_ranks

from conftest import reference_bucket_indices


@pytest.fixture(scope="module")
def dataset():
    return make_sparse_classification(200, 2000, 20, seed=41)


def run_mode(dataset, nranks, driver, epochs=2):
    def prog(comm):
        cfg = SGDConfig(epochs=epochs, batch_size=25, lr=0.5, mode="sparse")
        return driver(comm, dataset, LogisticRegression(dataset.n_features, 1e-5), cfg)

    return run_ranks(prog, nranks)


class TestAsyncSGD:
    def test_tracks_synchronous_trajectory(self, dataset):
        """One step of staleness must barely perturb the final model."""
        sync = run_mode(dataset, 4, distributed_sgd)
        asyn = run_mode(dataset, 4, distributed_sgd_async)
        rel = np.linalg.norm(sync[0].params - asyn[0].params) / max(
            np.linalg.norm(sync[0].params), 1e-12
        )
        assert rel < 0.1

    def test_loss_decreases(self, dataset):
        out = run_mode(dataset, 4, distributed_sgd_async, epochs=4)
        assert out[0].final_loss < out[0].losses[0]

    def test_same_bytes_as_sync(self, dataset):
        """The pipeline changes *when* reductions complete, not their size."""
        sync = run_mode(dataset, 4, distributed_sgd)
        asyn = run_mode(dataset, 4, distributed_sgd_async)
        ratio = asyn.trace.total_bytes_sent / sync.trace.total_bytes_sent
        assert 0.9 < ratio < 1.1

    def test_ranks_agree(self, dataset):
        out = run_mode(dataset, 4, distributed_sgd_async)
        for r in range(1, 4):
            assert np.allclose(out[r].params, out[0].params, atol=1e-9)

    def test_non_power_of_two(self, dataset):
        out = run_mode(dataset, 3, distributed_sgd_async)
        assert len(out[0].losses) == 2

    def test_dense_mode_rejected(self, dataset):
        def prog(comm):
            cfg = SGDConfig(epochs=1, batch_size=25, lr=0.5, mode="dense")
            return distributed_sgd_async(
                comm, dataset, LogisticRegression(dataset.n_features, 1e-5), cfg
            )

        with pytest.raises(RankError):
            run_ranks(prog, 2)

    def test_history_records_epochs(self, dataset):
        out = run_mode(dataset, 2, distributed_sgd_async, epochs=3)
        assert [r.epoch for r in out[0].records] == [0, 1, 2]
        assert all(r.bytes_sent > 0 for r in out[0].records)


class TestFusedAsyncSGD:
    """The repo benchmark's configuration at a twentieth of its width:
    fused buckets, adaptive ``"auto"``, auto chunks, 2 hosts x 2 ranks,
    URL-like features (a step's gradient fills ~0.3 % of a bucket)."""

    NRANKS = 4
    STEPS_PER_EPOCH = 4

    @pytest.fixture(scope="class")
    def dataset(self):
        return make_sparse_classification(
            self.NRANKS * self.STEPS_PER_EPOCH * 8, 50_000, 30, seed=5,
            powerlaw_exponent=1.15, name="url-like",
        )

    def _run(self, dataset, backend):
        def prog(comm):
            cfg = SGDConfig(epochs=2, batch_size=8, lr=0.5, algorithm="auto", seed=3)
            fuser = GradientFuser([(f"layer{i}", 12_500) for i in range(4)], min_bucket_bytes=0)
            return distributed_sgd_async(
                comm, dataset, LogisticRegression(dataset.n_features), cfg,
                fuser=fuser, fuser_k=32, chunks="auto", adaptive=True,
            )

        return run_ranks(prog, self.NRANKS, backend=backend, topology="2x2")

    @pytest.fixture(scope="class")
    def thread_run(self, dataset):
        return self._run(dataset, "thread")

    @pytest.mark.parametrize("backend", ["thread", "process", "shmem", "socket"])
    def test_params_bit_equal_across_ranks_and_backends(self, dataset, thread_run, backend):
        out = self._run(dataset, backend)
        for history in out:
            assert np.array_equal(history.params, thread_run[0].params)
            assert history.losses == thread_run[0].losses
            assert history.algorithm_switches == thread_run[0].algorithm_switches
        assert out.trace.total_bytes_sent == thread_run.trace.total_bytes_sent

    def test_params_bit_equal_to_selecting_with_the_zeros(self, dataset, thread_run, monkeypatch):
        """Shipping 32 of every 512 coordinates, explicit zeros and all,
        trains the same model bit for bit: ``x + 0.0 == x``."""
        monkeypatch.setattr("repro.core.topk.topk_bucket_indices", reference_bucket_indices)
        padded = self._run(dataset, "thread")
        assert np.array_equal(padded[0].params, thread_run[0].params)
        assert padded[0].losses == thread_run[0].losses
        assert padded.trace.total_messages == thread_run.trace.total_messages
        assert padded.trace.total_bytes_sent > 10 * thread_run.trace.total_bytes_sent

    def test_no_frame_carries_an_explicit_zero(self, thread_run):
        """Every pair on the wire started as a gradient non-zero, and on
        2x2 one travels at most four hops (to its leader, across, and in
        both hosts' broadcasts) at 8 bytes; what is left per message is a
        header or an agreement-round word."""
        nonzeros = sum(
            round(record.grad_nnz_mean * self.STEPS_PER_EPOCH)
            for history in thread_run for record in history.records
        )
        trace = thread_run.trace
        assert trace.total_bytes_sent <= 4 * 8 * nonzeros + 64 * trace.total_messages
