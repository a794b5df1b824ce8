"""Tests for asynchronous (pipelined) gradient aggregation."""

import hashlib

import numpy as np
import pytest

from repro.collectives.api import cached_plans
from repro.core import GradientFuser
from repro.costmodel import CostModel, Instance
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


def run_mode(dataset, nranks, driver, epochs=2, algorithm="auto"):
    def prog(comm):
        cfg = SGDConfig(epochs=epochs, batch_size=25, lr=0.5, mode="sparse", algorithm=algorithm)
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
        """The pipeline changes *when* reductions complete, not their size:
        both drivers run the same schedule (``"auto"`` resolves per call in
        the synchronous driver, once from a dataset estimate in this one)."""
        sync = run_mode(dataset, 4, distributed_sgd, algorithm="ssar_rec_dbl")
        asyn = run_mode(dataset, 4, distributed_sgd_async, algorithm="ssar_rec_dbl")
        ratio = asyn.trace.total_bytes_sent / sync.trace.total_bytes_sent
        assert 0.9 < ratio < 1.1

    def test_static_resolve_prices_float32_values(self, dataset):
        """Without adaptive plans, ``"auto"`` resolves once from the
        dataset's mean batch nnz, priced at the 4-byte values
        ``grad_stream`` ships (at 8 bytes this world picked another)."""

        def prog(comm):
            cfg = SGDConfig(epochs=1, batch_size=25, lr=0.5, mode="sparse")
            distributed_sgd_async(comm, dataset, LogisticRegression(dataset.n_features, 1e-5), cfg)
            return [plan.algorithm for plan in cached_plans(comm)]

        est_nnz = max(1, int(dataset.X.nnz / dataset.n_samples * 25))
        choose = CostModel.default().choose
        want = choose(Instance(dataset.n_features, 4, est_nnz, 4))
        assert want != choose(Instance(dataset.n_features, 4, est_nnz, 8))
        assert run_ranks(prog, 4).results == [[want]] * 4

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
    BACKENDS = ["thread", "process", "shmem", "socket"]

    #: the thread-backend run as computed while the driver still densified
    #: every gradient before the fuser selected from it: sha256 of every
    #: rank's params, the losses and the switch log. Selecting from the
    #: gradient's pairs must train this model bit for bit, on every backend.
    PINNED_DIGEST = "2ec1b4152796c083a68312ecf915a780eeecb9f674125c87b6c88d844928e64f"
    PINNED_LOSSES = [0.6896238392433802, 0.6852374959816757]
    PINNED_SWITCHES = [
        {"iteration": 1, "algorithm": "ssar_hier", "previous": None, "estimate": 27.75,
         "reason": "initial selection"},
        {"iteration": 24, "algorithm": "ssar_hier", "previous": "ssar_hier", "estimate": 37.5,
         "reason": "density drift (anchor 27.8 -> 37.5)"},
        {"iteration": 29, "algorithm": "ssar_hier", "previous": "ssar_hier", "estimate": 27.25,
         "reason": "density drift (anchor 37.5 -> 27.2)"},
        {"iteration": 32, "algorithm": "ssar_hier", "previous": "ssar_hier", "estimate": 35.0,
         "reason": "density drift (anchor 27.2 -> 35.0)"},
    ]

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
    def runs(self, dataset):
        """``runs(backend)``: the run on ``backend``, made once per class."""
        made = {}

        def run(backend):
            if backend not in made:
                made[backend] = self._run(dataset, backend)
            return made[backend]

        return run

    @pytest.fixture(scope="class")
    def thread_run(self, runs):
        return runs("thread")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_run_is_pinned(self, runs, backend):
        for history in runs(backend):
            assert hashlib.sha256(history.params.tobytes()).hexdigest() == self.PINNED_DIGEST
            assert history.losses == self.PINNED_LOSSES
            assert history.algorithm_switches == self.PINNED_SWITCHES

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_params_bit_equal_across_ranks_and_backends(self, thread_run, runs, backend):
        out = runs(backend)
        for history in out:
            assert np.array_equal(history.params, thread_run[0].params)
            assert history.losses == thread_run[0].losses
            assert history.algorithm_switches == thread_run[0].algorithm_switches
        assert out.trace.total_bytes_sent == thread_run.trace.total_bytes_sent

    def test_params_bit_equal_to_selecting_with_the_zeros(self, dataset, thread_run, monkeypatch):
        """Shipping 32 of every 512 coordinates, explicit zeros and all,
        trains the same model bit for bit: ``x + 0.0 == x``. The driver
        selects among the residual's tracked support; the padded rule
        reads the whole residual instead."""

        def zeros_and_all(vec, k, bucket_size, candidates=None):
            return reference_bucket_indices(vec, k, bucket_size)

        monkeypatch.setattr("repro.core.topk.topk_bucket_indices", zeros_and_all)
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
