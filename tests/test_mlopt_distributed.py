"""Tests for the distributed SGD and SCD drivers (MPI-OPT, §8.2)."""

import pickle

import numpy as np
import pytest

from repro.mlopt import (
    LinearSVM,
    LogisticRegression,
    SCDConfig,
    SGDConfig,
    distributed_scd,
    distributed_sgd,
    distributed_sgd_async,
    make_sparse_classification,
)
from repro.mlopt import async_sgd, scd, sgd
from repro.mlopt.metrics import RunHistory
from repro.runtime import SEND, run_ranks


@pytest.fixture(scope="module")
def dataset():
    return make_sparse_classification(240, 3000, 25, seed=21)


class _EventSliceSentBytes:
    """The reference per-epoch count: slice the rank's events recorded since
    the previous read and sum the sends."""

    def __init__(self, comm):
        self._cursor = len(comm.trace.events(comm.world_rank))

    def since_last_read(self, comm):
        fresh = comm.trace.events(comm.world_rank)[self._cursor:]
        self._cursor += len(fresh)
        return sum(e.nbytes for e in fresh if e.op == SEND)


def run_sgd(dataset, nranks, mode, algorithm="auto", epochs=2, model_cls=LogisticRegression):
    def prog(comm):
        model = model_cls(dataset.n_features, reg=1e-5)
        cfg = SGDConfig(epochs=epochs, batch_size=30, lr=0.8, mode=mode, algorithm=algorithm)
        return distributed_sgd(comm, dataset, model, cfg)

    return run_ranks(prog, nranks)


class TestDistributedSGD:
    def test_sparse_equals_dense_exactly(self, dataset):
        """Natural-sparsity communication is lossless: identical params."""
        sparse_out = run_sgd(dataset, 4, "sparse")
        dense_out = run_sgd(dataset, 4, "dense", "dense_rabenseifner")
        assert np.allclose(sparse_out[0].params, dense_out[0].params, atol=1e-5)

    def test_loss_decreases(self, dataset):
        out = run_sgd(dataset, 4, "sparse", epochs=4)
        losses = out[0].losses
        assert losses[-1] < losses[0]

    def test_ranks_agree_on_history(self, dataset):
        out = run_sgd(dataset, 4, "sparse")
        for r in range(1, 4):
            assert out[r].losses == out[0].losses

    @pytest.mark.parametrize("algorithm", ["ssar_rec_dbl", "ssar_split_ag", "dsar_split_ag"])
    def test_all_collectives_agree(self, dataset, algorithm):
        auto = run_sgd(dataset, 4, "sparse", "auto")
        other = run_sgd(dataset, 4, "sparse", algorithm)
        assert np.allclose(auto[0].params, other[0].params, atol=1e-4)

    def test_svm_variant(self, dataset):
        out = run_sgd(dataset, 4, "sparse", model_cls=LinearSVM, epochs=3)
        assert out[0].final_loss < 1.0  # below the w=0 hinge loss

    def test_sparse_moves_fewer_bytes(self, dataset):
        sparse_out = run_sgd(dataset, 4, "sparse")
        dense_out = run_sgd(dataset, 4, "dense")
        assert sparse_out.trace.total_bytes_sent < dense_out.trace.total_bytes_sent / 2

    def test_gradient_nnz_recorded(self, dataset):
        out = run_sgd(dataset, 2, "sparse")
        assert out[0].records[0].grad_nnz_mean > 0

    def test_bytes_per_epoch_recorded(self, dataset):
        out = run_sgd(dataset, 2, "sparse")
        assert all(r.bytes_sent > 0 for r in out[0].records)

    @pytest.mark.parametrize("driver", ["sgd", "scd"])
    def test_epoch_bytes_partition_the_trace(self, dataset, driver):
        """An epoch counts the events recorded since the previous read,
        each once: the records add up to what the rank sent inside the
        driver, and traffic from before it belongs to no epoch."""

        def prog(comm):
            comm.bcast(np.ones(64), root=0)
            before = comm.trace.bytes_sent_by(comm.rank)
            model = LogisticRegression(dataset.n_features, reg=1e-5)
            if driver == "sgd":
                cfg = SGDConfig(epochs=3, batch_size=30, lr=0.8)
                return before, distributed_sgd(comm, dataset, model, cfg)
            cfg = SCDConfig(epochs=3, iterations_per_epoch=5, block_size=50, lr=0.8)
            return before, distributed_scd(comm, dataset, model, cfg)

        out = run_ranks(prog, 4)
        assert out[0][0] > 0
        for rank, (before, history) in enumerate(out):
            in_epochs = sum(r.bytes_sent for r in history.records)
            assert in_epochs == out.trace.bytes_sent_by(rank) - before

    @pytest.mark.parametrize("backend", ["thread", "socket"])
    @pytest.mark.parametrize("driver", ["sgd", "scd", "async_sgd"])
    def test_epoch_bytes_equal_the_event_slice_reference(self, dataset, driver, backend, monkeypatch):
        """Summing the byte column from a row cursor gives every epoch the
        bytes that slicing the rank's events and summing their sends gives."""

        def prog(comm):
            model = LogisticRegression(dataset.n_features, reg=1e-5)
            if driver != "scd":
                train = distributed_sgd if driver == "sgd" else distributed_sgd_async
                history = train(comm, dataset, model, SGDConfig(epochs=3, batch_size=30, lr=0.8))
            else:
                cfg = SCDConfig(epochs=3, iterations_per_epoch=5, block_size=50, lr=0.8)
                history = distributed_scd(comm, dataset, model, cfg)
            return [r.bytes_sent for r in history.records]

        columns = run_ranks(prog, 4, backend=backend).results
        for module in (sgd, scd, async_sgd):
            monkeypatch.setattr(module, "SentBytes", _EventSliceSentBytes)
        assert columns == run_ranks(prog, 4, backend=backend).results
        assert all(sent > 0 for rank in columns for sent in rank)

    def test_non_power_of_two_ranks(self, dataset):
        out = run_sgd(dataset, 3, "sparse")
        assert len(out[0].losses) == 2

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SGDConfig(mode="nope")
        with pytest.raises(ValueError):
            SGDConfig(batch_size=0)


class TestDistributedSCD:
    def run_scd(self, dataset, nranks, mode, iters=20):
        def prog(comm):
            model = LogisticRegression(dataset.n_features, reg=1e-5)
            cfg = SCDConfig(
                epochs=2, iterations_per_epoch=iters, block_size=50, lr=0.8, mode=mode
            )
            return distributed_scd(comm, dataset, model, cfg)

        return run_ranks(prog, nranks)

    def test_sparse_equals_dense(self, dataset):
        sp_out = self.run_scd(dataset, 4, "sparse")
        dn_out = self.run_scd(dataset, 4, "dense")
        assert np.allclose(sp_out[0].params, dn_out[0].params, atol=1e-5)

    def test_loss_decreases(self, dataset):
        out = self.run_scd(dataset, 4, "sparse", iters=40)
        assert out[0].final_loss < np.log(2)

    def test_sparse_allgather_moves_fewer_bytes(self, dataset):
        """The §8.2 SCD claim: sparse allgather ~ 5x less communication."""
        sp_out = self.run_scd(dataset, 4, "sparse")
        dn_out = self.run_scd(dataset, 4, "dense")
        assert dn_out.trace.total_bytes_sent / sp_out.trace.total_bytes_sent > 3

    def test_updates_stay_in_rank_slices(self, dataset):
        """Each rank's updates live in its coordinate slice (disjointness)."""
        out = self.run_scd(dataset, 4, "sparse", iters=5)
        # all ranks end with identical parameters despite disjoint updates
        for r in range(1, 4):
            assert np.allclose(out[r].params, out[0].params)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            SCDConfig(mode="invalid")


class TestRunHistoryHoldsTheModelAsPairs:
    def test_sparse_model_round_trips_bit_for_bit(self):
        w = np.zeros(100_000)
        w[[3, 70, 99_999]] = [1.5, np.nan, -2.0 ** -1060]
        history = RunHistory()
        history.params = w
        assert history.params is not w  # a fresh array per read
        assert np.array_equal(history.params.view(np.uint64), w.view(np.uint64))
        assert history.params.dtype == np.float64
        assert len(pickle.dumps(history)) < w.nbytes // 100
        clone = pickle.loads(pickle.dumps(history))
        assert np.array_equal(clone.params.view(np.uint64), w.view(np.uint64))

    def test_dense_or_foreign_models_are_held_as_given(self):
        history = RunHistory()
        assert history.params is None
        for w in (np.arange(1.0, 9.0), np.zeros(8, dtype=np.float32), np.zeros(8, dtype=np.int64)):
            history.params = w
            assert history.params is w
        history.params = None
        assert history.params is None
