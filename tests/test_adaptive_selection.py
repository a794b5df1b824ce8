"""Tests for adaptive runtime selection (`repro/costmodel/adaptive.py`)
and the rank-consistent `algorithm="auto"` / `chunks="auto"` resolution:
the drifting-density switch must be bit-identical on all four backends,
and skewed per-rank densities must not deadlock the blocking auto path."""

import numpy as np
import pytest

from repro.collectives import choose_algorithm, run_sparse_allreduce, sparse_allreduce
from repro.collectives.api import resolve_collective
from repro.core import GradientFuser
from repro.costmodel import AdaptiveSelector, Agreed, CostModel, Instance, consistent_mean
from repro.mlopt import (
    LogisticRegression,
    SGDConfig,
    distributed_sgd_async,
    make_sparse_classification,
)
from repro.runtime import Topology, run_ranks
from repro.runtime.trace import MARK, SEND

from conftest import make_rank_stream, reference_sum

BACKENDS = ["thread", "process", "shmem", "socket"]

DIMENSION = 4096
NRANKS = 4

#: per-iteration nnz ramp: starts latency-bound (ssar_rec_dbl), ends past
#: the delta threshold (dsar) — the selector must switch mid-run.
DRIFT_SCHEDULE = [20, 24, 30, 400, 1200, 1800, 1800, 1800]


class FakeComm:
    """World-of-one stand-in for the unit tests (no transport)."""

    def __init__(self, size=1, topology=None):
        self.size = size
        self.topology = topology

    def gather_to_root(self, obj, root=0, tag=None):
        return [obj] * self.size

    def bcast(self, obj, root=0, tag=None):
        return obj


class TestAdaptiveSelectorUnit:
    def test_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            AdaptiveSelector(dimension=0)
        with pytest.raises(ValueError, match="ewma"):
            AdaptiveSelector(dimension=10, ewma=0.0)
        with pytest.raises(ValueError, match="drift_threshold"):
            AdaptiveSelector(dimension=10, drift_threshold=0.0)
        with pytest.raises(ValueError, match="sync_every"):
            AdaptiveSelector(dimension=10, sync_every=0)

    def test_model_spec_resolved(self):
        sel = AdaptiveSelector(model="tiered_gige", dimension=100)
        assert isinstance(sel.model, CostModel)
        assert sel.model.name == "tiered_gige"

    def test_ewma(self):
        sel = AdaptiveSelector(dimension=1000, ewma=0.5)
        assert sel.observe(100) == 100.0
        assert sel.observe(200) == 150.0
        assert sel.observe(150) == 150.0

    def test_initial_selection_then_stable(self):
        sel = AdaptiveSelector(dimension=DIMENSION)
        comm = FakeComm()
        first = sel.step(comm, 50)
        assert first == sel.algorithm and sel.report is not None
        for _ in range(5):
            assert sel.step(comm, 50) == first
        assert len(sel.switches) == 1 and sel.switch_count == 0
        assert sel.switches[0].previous is None
        assert sel.switches[0].reason == "initial selection"

    def test_drift_triggers_reselection(self):
        sel = AdaptiveSelector(dimension=DIMENSION, ewma=1.0, drift_threshold=0.25)
        comm = FakeComm(size=NRANKS)
        assert sel.step(comm, 50) == "ssar_rec_dbl"
        algo = sel.step(comm, 3000)
        assert algo == "dsar_split_ag"
        assert sel.switch_count == 1
        assert "drift" in sel.switches[-1].reason

    def test_sync_every_skips_agreement(self):
        sel = AdaptiveSelector(dimension=DIMENSION, ewma=1.0, sync_every=4)
        comm = FakeComm(size=NRANKS)
        sel.step(comm, 50)
        # drifts immediately, but the next sync is 3 iterations away
        assert sel.step(comm, 3000) == "ssar_rec_dbl"
        assert sel.step(comm, 3000) == "ssar_rec_dbl"
        assert sel.step(comm, 3000) == "ssar_rec_dbl"
        assert sel.step(comm, 3000) == "dsar_split_ag"

    def test_world_resize_forces_reselection(self):
        sel = AdaptiveSelector(dimension=DIMENSION, sync_every=100)
        sel.step(FakeComm(size=4), 50)
        sel.step(FakeComm(size=3), 50)  # off-sync, but the world changed
        assert len(sel.switches) == 2
        assert sel.switches[-1].reason == "world size changed"

    def test_estimate_clamped_to_dimension(self):
        sel = AdaptiveSelector(dimension=100, ewma=1.0)
        sel.step(FakeComm(), 100)
        assert sel.switches[-1].estimate <= 100.0

    def test_passengers_ride_the_selectors_round(self):
        sel = AdaptiveSelector(model="tiered_gige", dimension=DIMENSION, sync_every=3)
        comm = FakeComm(size=NRANKS)
        algorithm, agreed = sel.step_agreeing(comm, 50, [40.0, 60.0])
        assert algorithm == sel.algorithm
        assert agreed == [Agreed(40.0, sel.model), Agreed(60.0, sel.model)]
        # off-sync: passengers still get their round, the selection rests
        sel.step_agreeing(comm, 3000, [70.0])
        assert len(sel.switches) == 1
        # ...and without passengers an off-sync step costs nothing
        assert sel.step_agreeing(comm, 3000) == (sel.algorithm, [])

    def test_switch_to_dict(self):
        sel = AdaptiveSelector(dimension=DIMENSION)
        sel.step(FakeComm(), 50)
        d = sel.switches[0].to_dict()
        assert d["iteration"] == 1 and d["previous"] is None
        assert d["algorithm"] == sel.algorithm


def _consistent_mean_prog(comm):
    return consistent_mean(comm, float(10 * (comm.rank + 1)))


def _consistent_vector_prog(comm):
    return consistent_mean(comm, [10 * (comm.rank + 1), comm.rank, 0.1 * comm.rank])


def _drift_prog(comm):
    """Training-loop shape: adapt the algorithm while density ramps."""
    selector = AdaptiveSelector(dimension=DIMENSION, ewma=1.0)
    algorithms, sums = [], []
    for it, nnz in enumerate(DRIFT_SCHEDULE):
        local_nnz = nnz + 3 * comm.rank  # ranks disagree locally
        algorithm = selector.step(comm, local_nnz)
        algorithms.append(algorithm)
        stream = make_rank_stream(DIMENSION, local_nnz, comm.rank, 5000 + it)
        total = sparse_allreduce(comm, stream, algorithm=algorithm)
        sums.append(total.to_dense())
    return algorithms, sums, [s.to_dict() for s in selector.switches]


class TestConsistentMean:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identical_on_every_rank(self, backend):
        out = run_ranks(_consistent_mean_prog, 4, backend=backend)
        assert all(v == out[0] for v in out.results)
        assert out[0] == pytest.approx(25.0)

    def test_world_of_one_is_free(self):
        out = run_ranks(_consistent_mean_prog, 1)
        assert out[0] == 10.0 and out.trace.total_bytes_sent == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_vector_is_one_round_identical_on_every_rank(self, backend):
        out = run_ranks(_consistent_vector_prog, 4, backend=backend)
        assert all(v == out[0] for v in out.results)
        assert out[0][:2] == [25.0, 1.5] and out[0][2] == pytest.approx(0.15)
        # one gather + one binomial bcast, whatever the vector's length
        assert out.trace.total_messages == 2 * (4 - 1)


class TestAdaptiveDrift:
    def test_switches_mid_run_bit_identical_across_backends(self):
        """The acceptance pin: a drifting-density run provably switches
        algorithm mid-run, identically on all four backends."""
        by_backend = {b: run_ranks(_drift_prog, NRANKS, backend=b) for b in BACKENDS}
        ref_algos, ref_sums, ref_switches = by_backend["thread"][0]
        # the drift provably switched the algorithm mid-run
        assert ref_algos[0] == "ssar_rec_dbl"
        assert ref_algos[-1] == "dsar_split_ag"
        assert len(set(ref_algos)) >= 2
        for backend, out in by_backend.items():
            for rank in range(NRANKS):
                algos, sums, switches = out[rank]
                assert algos == ref_algos, (backend, rank)
                assert switches == ref_switches, (backend, rank)
                for it, dense in enumerate(sums):
                    assert np.array_equal(dense, ref_sums[it]), (backend, rank, it)

    def test_switch_record_names_the_transition(self):
        out = run_ranks(_drift_prog, NRANKS, backend="thread")
        switches = out[0][2]
        changes = [s for s in switches if s["previous"] and s["previous"] != s["algorithm"]]
        assert changes and changes[0]["previous"] == "ssar_rec_dbl"
        assert changes[0]["algorithm"] == "dsar_split_ag"
        assert "drift" in changes[0]["reason"]


SKEW_NNZ = {0: 100}  # rank 0 is sparse; everyone else is dense
SKEW_DEFAULT = 3000


def _skewed_auto_prog(comm):
    nnz = SKEW_NNZ.get(comm.rank, SKEW_DEFAULT)
    stream = make_rank_stream(DIMENSION, nnz, comm.rank)
    return sparse_allreduce(comm, stream, algorithm="auto").to_dense()


class TestSkewedAutoRegression:
    def test_local_choices_disagree(self):
        """The trap this regression guards: per-rank *local* resolution
        picks different algorithms for these densities."""
        sparse_choice = choose_algorithm(DIMENSION, NRANKS, SKEW_NNZ[0])
        dense_choice = choose_algorithm(DIMENSION, NRANKS, SKEW_DEFAULT)
        assert sparse_choice != dense_choice

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_blocking_auto_does_not_deadlock(self, backend):
        """Before the rank-consistent estimate, this run deadlocked: each
        rank resolved "auto" from its own nnz and ran different
        collectives. Now all ranks agree first."""
        expected = np.zeros(DIMENSION, dtype=np.float64)
        for r in range(NRANKS):
            expected += make_rank_stream(
                DIMENSION, SKEW_NNZ.get(r, SKEW_DEFAULT), r
            ).to_dense()
        out = run_ranks(_skewed_auto_prog, NRANKS, backend=backend, timeout=120.0)
        for rank in range(NRANKS):
            assert np.allclose(out[rank], expected, atol=1e-3), rank


class TestAutoChunks:
    def test_auto_chunks_matches_unchunked_bits(self):
        streams = [make_rank_stream(DIMENSION, 300, r) for r in range(4)]
        auto = run_sparse_allreduce(
            streams, "ssar_hier", topology="2x2", chunks="auto"
        )
        one = run_sparse_allreduce(streams, "ssar_hier", topology="2x2", chunks=1)
        for rank in range(4):
            assert np.array_equal(auto[rank].to_dense(), one[rank].to_dense())

    def test_flat_algorithm_ignores_auto_silently(self):
        streams = [make_rank_stream(DIMENSION, 300, r) for r in range(4)]
        out = run_sparse_allreduce(streams, "ssar_rec_dbl", chunks="auto")
        assert np.allclose(out[0].to_dense(), reference_sum(DIMENSION, 300, 4), atol=1e-3)

    def test_auto_with_auto_algorithm(self):
        streams = [make_rank_stream(DIMENSION, 300, r) for r in range(4)]
        out = run_sparse_allreduce(streams, "auto", topology="2x2", chunks="auto")
        assert np.allclose(out[0].to_dense(), reference_sum(DIMENSION, 300, 4), atol=1e-3)


class _SilentComm:
    """A communicator that fails the test if anything is sent."""

    size = 4
    topology = Topology.from_spec("2x2")

    def gather_to_root(self, obj, root=0):
        raise AssertionError("a pre-agreed resolve must not communicate")


class TestPreAgreedResolve:
    STREAM = make_rank_stream(1 << 20, 10486, 0)
    INSTANCE = Instance(1 << 20, 4, 10486.0, 4)

    def test_no_messages_and_the_default_model_keeps_one_chunk(self):
        fn, kwargs = resolve_collective(
            _SilentComm(), self.STREAM, "auto", chunks="auto", agreed=Agreed(10486.0)
        )
        assert fn.__name__ == "ssar_hierarchical" and kwargs["chunks"] == 1

    def test_priced_under_the_agreed_model_not_the_default(self):
        default = CostModel.default()
        free = CostModel(
            default.network.with_(intra=default.intra.with_(launch=0.0))
        )
        _, kwargs = resolve_collective(
            _SilentComm(), self.STREAM, "ssar_hier", chunks="auto",
            agreed=Agreed(10486.0, free),
        )
        assert kwargs["chunks"] == free.auto_chunks(
            self.INSTANCE, "ssar_hier", _SilentComm.topology
        )
        assert kwargs["chunks"] > 1


def _fused_selector_prog(comm, schedule):
    fuser = GradientFuser([("a", 1024), ("b", 1024)], min_bucket_bytes=0)
    ef = fuser.make_error_feedback(k=16, bucket_size=None)
    selector = AdaptiveSelector(dimension=1024, ewma=1.0)
    gen = np.random.default_rng(60 + comm.rank)
    outs = []
    for _ in schedule:
        grad = gen.standard_normal(2048).astype(np.float32)
        outs.append(
            fuser.fused_topk_allreduce(comm, grad, ef, selector=selector).copy()
        )
    return outs, [s.to_dict() for s in selector.switches], selector.algorithm


class TestFuserSelector:
    def test_selector_resolves_per_call(self):
        out = run_ranks(_fused_selector_prog, 2, [0, 1, 2])
        outs, switches, algorithm = out[0]
        assert len(outs) == 3 and switches
        assert algorithm in ("ssar_rec_dbl", "ssar_split_ag")
        # both ranks saw the same switch sequence
        assert out[1][1] == switches

    def test_selector_requires_auto(self):
        def prog(comm):
            fuser = GradientFuser([("a", 64)], min_bucket_bytes=0)
            ef = fuser.make_error_feedback(k=8, bucket_size=None)
            selector = AdaptiveSelector(dimension=64)
            grad = np.ones(64, dtype=np.float32)
            with pytest.raises(ValueError, match="auto"):
                fuser.fused_topk_allreduce(
                    comm, grad, ef, algorithm="ssar_ring", selector=selector
                )
            return True

        assert run_ranks(prog, 2)[0] is True


class TestAsyncAdaptive:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_sparse_classification(200, 2000, 20, seed=41)

    def _run(self, dataset, adaptive):
        def prog(comm):
            cfg = SGDConfig(epochs=3, batch_size=25, lr=0.5, mode="sparse")
            return distributed_sgd_async(
                comm, dataset, LogisticRegression(dataset.n_features, 1e-5), cfg,
                adaptive=adaptive,
            )

        return run_ranks(prog, 4)

    def test_records_switches_and_ranks_agree(self, dataset):
        out = self._run(dataset, adaptive=True)
        for rank in range(4):
            history = out[rank]
            assert history.algorithm_switches  # at least the initial selection
            assert history.algorithm_switches == out[0].algorithm_switches
            assert np.allclose(history.params, out[0].params, atol=1e-9)
        assert out[0].final_loss < out[0].losses[0]

    def test_non_adaptive_records_nothing(self, dataset):
        out = self._run(dataset, adaptive=False)
        assert out[0].algorithm_switches == []

    def test_adaptive_requires_auto(self, dataset):
        def prog(comm):
            cfg = SGDConfig(
                epochs=1, batch_size=25, lr=0.5, mode="sparse",
                algorithm="ssar_rec_dbl",
            )
            with pytest.raises(ValueError, match="auto"):
                distributed_sgd_async(
                    comm, dataset, LogisticRegression(dataset.n_features, 1e-5),
                    cfg, adaptive=True,
                )
            return True

        assert run_ranks(prog, 2)[0] is True


def _sends_per_step(trace, rank, mark="compute"):
    """Send events of ``rank`` between consecutive ``mark`` marks."""
    steps, current = [], None
    for event in trace.events(rank):
        if event.op == MARK and event.label == mark:
            if current is not None:
                steps.append(current)
            current = []
        elif current is not None and event.op == SEND:
            current.append(event)
    return steps


class TestOneAgreementRoundPerAsyncStep:
    """`distributed_sgd_async(adaptive=True, chunks="auto")` agrees once
    per step: the selector's estimate and the nnz that chunk pricing
    needs share a round (was 1 + one per launched collective)."""

    NRANKS = 4
    BUCKETS = 4

    @pytest.fixture(scope="class")
    def dataset(self):
        return make_sparse_classification(200, 2000, 20, seed=41)

    def _run(self, dataset, fused):
        def prog(comm):
            cfg = SGDConfig(epochs=1, batch_size=10, lr=0.5, mode="sparse")
            fuser = (
                GradientFuser([(f"t{i}", 500) for i in range(self.BUCKETS)], min_bucket_bytes=0)
                if fused else None
            )
            return distributed_sgd_async(
                comm, dataset, LogisticRegression(dataset.n_features, 1e-5), cfg,
                fuser=fuser, fuser_k=4, chunks="auto", adaptive=True,
            )

        return run_ranks(prog, self.NRANKS, topology="2x2")

    @pytest.mark.parametrize("fused", [True, False])
    def test_one_round_and_a_pinned_message_count_per_step(self, dataset, fused):
        out = self._run(dataset, fused)
        round_sends = 2 * (self.NRANKS - 1)  # gather to root + binomial bcast
        # steady state: this step's round + the previous step's collectives,
        # each 2 intra reduces + 2 leader exchanges + 2 bcasts on 2x2
        expected = round_sends + 6 * (self.BUCKETS if fused else 1)
        for step in range(1, 4):
            sends = [
                event
                for rank in range(self.NRANKS)
                for event in _sends_per_step(out.trace, rank)[step]
            ]
            assert len(sends) == expected
            # launches run in contexts of their own; what stays in the
            # backend's context is the rank thread's own traffic
            assert sum(e.context == () for e in sends) == round_sends

    def test_fused_selector_prices_the_launched_instance(self, dataset):
        """The default selector is shaped like a fused float32 top-k
        bucket (here 500 wide, 4 survivors), not the raw float64
        gradient (2000 wide, ~200 nnz)."""
        out = self._run(dataset, fused=True)
        first = out[0].algorithm_switches[0]
        assert first["reason"] == "initial selection"
        assert 0 < first["estimate"] <= 4.0
        assert all(out[r].algorithm_switches == out[0].algorithm_switches for r in range(4))
