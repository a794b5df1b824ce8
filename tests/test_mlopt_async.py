"""Tests for asynchronous (pipelined) gradient aggregation."""

import numpy as np
import pytest

from repro.mlopt import (
    LogisticRegression,
    SGDConfig,
    distributed_sgd,
    distributed_sgd_async,
    make_sparse_classification,
)
from repro.runtime import RankError, run_ranks


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
