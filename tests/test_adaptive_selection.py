"""Tests for adaptive runtime selection (`repro/costmodel/adaptive.py`)
and the rank-consistent `algorithm="auto"` / `chunks="auto"` resolution:
the drifting-density switch — of an `AdaptiveSelector` and of an "auto"
plan's switch log — must be bit-identical on all four backends, and
skewed per-rank densities must not deadlock the blocking auto path."""

import numpy as np
import pytest

import repro.collectives.api as api
from repro.collectives import run_sparse_allreduce, sparse_allreduce
from repro.collectives.api import cached_plan
from repro.core import GradientFuser
from repro.costmodel import AdaptiveSelector, CostModel, Instance, consistent_mean
from repro.costmodel.adaptive import drifted
from repro.mlopt import (
    LogisticRegression,
    SGDConfig,
    distributed_sgd_async,
    make_sparse_classification,
)
from repro.runtime import FaultPlan, run_ranks
from repro.runtime.trace import MARK, SEND
from repro.streams import SparseStream

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
        sel = AdaptiveSelector(dimension=DIMENSION, ewma=1.0)
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

    def test_switch_to_dict(self):
        sel = AdaptiveSelector(dimension=DIMENSION)
        sel.step(FakeComm(), 50)
        d = sel.switches[0].to_dict()
        assert d["iteration"] == 1 and d["previous"] is None
        assert d["algorithm"] == sel.algorithm


def _consistent_mean_prog(comm):
    return consistent_mean(comm, float(10 * (comm.rank + 1)))


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


def _plan_drift_prog(comm):
    """The same ramp through one "auto" plan, which re-selects by itself."""
    sums = []
    for it, nnz in enumerate(DRIFT_SCHEDULE):
        stream = make_rank_stream(DIMENSION, nnz + 3 * comm.rank, comm.rank, 5000 + it)
        sums.append(sparse_allreduce(comm, stream, "auto").to_dense())
    return sums, [s.to_dict() for s in cached_plan(comm, stream).switches]


class TestDrifted:
    def test_threshold_is_relative_and_strict(self):
        assert not drifted(100.0, 125.0) and not drifted(100.0, 75.0)
        assert drifted(100.0, 125.5) and drifted(100.0, 74.5)

    def test_anchor_is_floored_at_one(self):
        # an empty anchor still tolerates a quarter of one entry
        assert not drifted(0.0, 0.25)
        assert drifted(0.0, 0.5)


class TestPlanSwitchLog:
    def test_identical_on_every_rank_and_backend(self):
        by_backend = {b: run_ranks(_plan_drift_prog, NRANKS, backend=b) for b in BACKENDS}
        ref_sums, ref_switches = by_backend["thread"][0]
        first = ref_switches[0]
        assert first["reason"] == "initial selection" and first["previous"] is None
        assert first["algorithm"] == "ssar_rec_dbl"
        assert any(
            s["reason"].startswith("density drift")
            and s["previous"] != "dsar_split_ag" == s["algorithm"]
            for s in ref_switches
        ), ref_switches
        for backend, out in by_backend.items():
            for rank in range(NRANKS):
                sums, switches = out[rank]
                assert switches == ref_switches, (backend, rank)
                for it, dense in enumerate(sums):
                    assert np.array_equal(dense, ref_sums[it]), (backend, rank, it)

    def test_a_fixed_algorithm_logs_nothing(self):
        def prog(comm):
            for it, nnz in enumerate(DRIFT_SCHEDULE):
                stream = make_rank_stream(DIMENSION, nnz, comm.rank, 5000 + it)
                sparse_allreduce(comm, stream, "ssar_split_ag")
            return cached_plan(comm, stream, "ssar_split_ag").switches

        assert run_ranks(prog, NRANKS).results == [[]] * NRANKS

    def test_steady_density_logs_only_the_initial_selection(self):
        def prog(comm):
            for it in range(5):
                stream = make_rank_stream(DIMENSION, 100 + it, comm.rank, 5000 + it)
                sparse_allreduce(comm, stream, "auto")
            return [s.to_dict() for s in cached_plan(comm, stream).switches]

        out = run_ranks(prog, NRANKS)
        (only,) = out[0]
        assert only["iteration"] == 1 and only["reason"] == "initial selection"
        assert only["previous"] is None and only["estimate"] == 100.0
        assert all(switches == out[0] for switches in out.results)

    def test_fused_async_history_is_read_off_the_plans(self, monkeypatch):
        ran = []

        def spy(name, fn):
            def run(*args, **kwargs):
                ran.append(name)
                return fn(*args, **kwargs)
            return run

        for name, fn in list(api.ALGORITHMS.items()):
            monkeypatch.setitem(api.ALGORITHMS, name, spy(name, fn))
        dataset = make_sparse_classification(200, 2000, 20, seed=41)

        def prog(comm):
            cfg = SGDConfig(epochs=2, batch_size=10, lr=0.5, mode="sparse")
            fuser = GradientFuser([(f"t{i}", 500) for i in range(4)], min_bucket_bytes=0)
            return distributed_sgd_async(
                comm, dataset, LogisticRegression(dataset.n_features, 1e-5), cfg,
                fuser=fuser, fuser_k=4, chunks="auto", adaptive=True,
            )

        out = run_ranks(prog, NRANKS, topology="2x2")
        switches = out[0].algorithm_switches
        assert switches and all(h.algorithm_switches == switches for h in out.results)
        assert ran[-1] == switches[-1]["algorithm"]
        assert set(ran) == {s["algorithm"] for s in switches}

    def test_a_run_reports_only_its_own_selections(self):
        """Plans outlive a run on their communicator: the next run resets
        them, so it selects afresh and its history holds its own rows, not
        an earlier run's or an unrelated call's."""
        dataset = make_sparse_classification(200, 2000, 20, seed=41)

        def train(comm):
            cfg = SGDConfig(epochs=2, batch_size=10, lr=0.5, mode="sparse")
            fuser = GradientFuser([(f"t{i}", 500) for i in range(4)], min_bucket_bytes=0)
            return distributed_sgd_async(
                comm, dataset, LogisticRegression(dataset.n_features, 1e-5), cfg,
                fuser=fuser, fuser_k=4, chunks="auto", adaptive=True,
            ).algorithm_switches

        def prog(comm):
            first = train(comm)
            # the fused buckets' plan, run by hand at a far denser nnz
            stream = make_rank_stream(500, 400, comm.rank)
            sparse_allreduce(comm, stream, "auto", chunks="auto")
            return first, train(comm)

        for first, second in run_ranks(prog, NRANKS, topology="2x2").results:
            assert first[0]["reason"] == "initial selection" and first[0]["iteration"] == 1
            assert second == first


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
        choose = CostModel.default().choose
        sparse_choice = choose(Instance(DIMENSION, NRANKS, SKEW_NNZ[0]))
        dense_choice = choose(Instance(DIMENSION, NRANKS, SKEW_DEFAULT))
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

    def test_non_adaptive_resolves_once_per_membership(self, dataset, monkeypatch):
        chosen = []
        real = CostModel.choose

        def counting(self, *args, **kwargs):
            chosen.append(real(self, *args, **kwargs))
            return chosen[-1]

        monkeypatch.setattr(CostModel, "choose", counting)
        self._run(dataset, adaptive=False)
        assert len(chosen) == 4 and len(set(chosen)) == 1  # one per rank

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
    """`distributed_sgd_async(adaptive=True, chunks="auto")` agrees once,
    at its plans' first launch: every later step sends only its
    collectives (was one round per step, and before that 1 + one per
    launched collective)."""

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
        steps = [
            [event for rank in range(self.NRANKS) for event in _sends_per_step(out.trace, rank)[step]]
            for step in range(4)
        ]
        # the first step launches: its plan (the buckets are one size) agrees
        assert len(steps[0]) == round_sends
        assert all(e.context == () for e in steps[0])
        # from the second step on: the previous step's collectives, joined
        # here, each 2 intra reduces + 2 leader exchanges + 2 bcasts on
        # 2x2; launches run in contexts of their own, so nothing is left
        # in the backend's context, where the round ran
        for sends in steps[1:]:
            assert len(sends) == 6 * (self.BUCKETS if fused else 1)
            assert sum(e.context == () for e in sends) == 0

    def test_fused_selector_prices_the_launched_instance(self, dataset):
        """The default selector is shaped like a fused float32 top-k
        bucket (here 500 wide, 4 survivors), not the raw float64
        gradient (2000 wide, ~200 nnz)."""
        out = self._run(dataset, fused=True)
        first = out[0].algorithm_switches[0]
        assert first["reason"] == "initial selection"
        assert 0 < first["estimate"] <= 4.0
        assert all(out[r].algorithm_switches == out[0].algorithm_switches for r in range(4))


#: per-run nnz of the drift runs: steady, then a jump at run 5 that the
#: plans see only once a run-5 result is received
JUMP_SCHEDULE = [20] * 4 + [1200] * 4
JUMP_RUN = 5


def _rows(trace, rank):
    """``rank``'s rows as ``{run: [(op, peer, tag, nbytes, label, context), ...]}``,
    each ``run:``-prefixed mark holding the rows up to the next one, the
    schedules' own marks included (``seq`` left out: two plans number
    their frames on the same channels)."""
    rows, current = {}, None
    for event in trace.events(rank):
        if event.op == MARK and event.label.startswith("run:"):
            current = rows.setdefault(event.label[4:], [])
        elif current is not None:
            current.append(
                (event.op, event.peer, event.tag, event.nbytes, event.label, event.context)
            )
    return rows


def _auto_runs_prog(comm):
    """Every "auto" surface, each run followed by a twin run of the fixed
    algorithm the plan held for it: blocking ``sparse_allreduce``,
    ``plan.start`` (joined at once, then pipelined one run deep, as
    ``distributed_sgd_async`` joins), and fused blocking and async steps."""
    logs = {}
    for t, nnz in enumerate(JUMP_SCHEDULE):
        stream = make_rank_stream(DIMENSION, nnz, comm.rank, 6000 + t)
        comm.mark(f"run:blocking{t}")
        sparse_allreduce(comm, stream, "auto")
        held = cached_plan(comm, stream).switches[-1].algorithm
        comm.mark(f"run:blocking{t}-fixed")
        sparse_allreduce(comm, stream, held)
    logs["blocking"] = cached_plan(comm, stream).switches

    plan = api.allreduce_plan(comm, DIMENSION, np.float32)
    for t, nnz in enumerate(JUMP_SCHEDULE):
        stream = make_rank_stream(DIMENSION, nnz, comm.rank, 6000 + t)
        comm.mark(f"run:start{t}")
        plan.start(stream).wait()
        comm.mark(f"run:start{t}-fixed")
        api.allreduce_plan(comm, DIMENSION, np.float32, plan.switches[-1].algorithm).start(
            stream
        ).wait()
    logs["start"] = plan.switches

    comm.mark("run:pipelined")
    plan, pending = api.allreduce_plan(comm, DIMENSION, np.float32), None
    for t, nnz in enumerate(JUMP_SCHEDULE):
        handle = plan.start(make_rank_stream(DIMENSION, nnz, comm.rank, 6000 + t))
        if pending is not None:
            pending.wait()
        pending = handle
    pending.wait()
    logs["pipelined"] = plan.switches

    fuser = GradientFuser([(f"t{i}", 1024) for i in range(4)], min_bucket_bytes=0)
    for mode in ("fused", "fused_async"):
        auto, fixed = fuser.make_error_feedback(4, 64), fuser.make_error_feedback(4, 64)
        plan = cached_plan(comm, SparseStream.zeros(1024, np.float32))
        plan.reset()
        for t in range(4):
            grad = np.random.default_rng(6100 + 7 * t + comm.rank).standard_normal(4096)
            for suffix, efs in (("", auto), ("-fixed", fixed)):
                # the four buckets share one plan: the fixed twin runs what it holds
                algorithm = plan.switches[-1].algorithm if suffix else "auto"
                comm.mark(f"run:{mode}{t}{suffix}")
                if mode == "fused":
                    fuser.fused_topk_allreduce(comm, grad, efs, algorithm)
                else:
                    fuser.i_fused_allreduce(comm, grad, efs, algorithm).wait()
        logs[mode] = plan.switches
    comm.mark("run:end")
    return {mode: [s.to_dict() for s in switches] for mode, switches in logs.items()}


class TestAutoRunsSendOnlyTheirSchedule:
    """After an "auto" plan's first run, each run's trace rows are exactly
    those of the schedule it holds — no agreement round, on any surface —
    and the switch logs are identical on every rank and backend, also
    under a seeded delay plan that reorders completion across ranks."""

    FAULTS = FaultPlan(seed=11, delay_rate=0.3, delay_s=0.001)

    @pytest.fixture(scope="class")
    def runs(self):
        made = {}

        def run(backend):
            if backend not in made:
                made[backend] = run_ranks(
                    _auto_runs_prog, NRANKS, backend=backend, topology="2x2",
                    fault_plan=self.FAULTS, timeout=120.0,
                )
            return made[backend]

        return run

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_runs_after_the_first_are_their_schedules_rows(self, runs, backend):
        out = runs(backend)
        for rank in range(NRANKS):
            rows = _rows(out.trace, rank)
            for mode, runs_of_mode in (
                ("blocking", len(JUMP_SCHEDULE)), ("start", len(JUMP_SCHEDULE)),
                ("fused", 4), ("fused_async", 4),
            ):
                for t in range(1, runs_of_mode):
                    assert any(op == SEND for op, *_ in rows[f"{mode}{t}"]), (mode, t, rank)
                    assert rows[f"{mode}{t}"] == rows[f"{mode}{t}-fixed"], (mode, t, rank)
        for mode in ("blocking", "start"):
            first = [
                op for rank in range(NRANKS)
                for op, *_ in _rows(out.trace, rank)[f"{mode}0"] if op == SEND
            ]
            fixed = [
                op for rank in range(NRANKS)
                for op, *_ in _rows(out.trace, rank)[f"{mode}0-fixed"] if op == SEND
            ]
            # the first run adds one scalar round: gather to root + binomial bcast
            assert len(first) == len(fixed) + 2 * (NRANKS - 1), mode

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_switch_logs_identical_on_every_rank_and_backend(self, runs, backend):
        reference = runs("thread")[0]
        assert all(logs == reference for logs in runs(backend).results)

    def test_a_drift_switch_lands_on_the_first_run_after_its_result(self, runs):
        logs = runs("thread")[0]
        for mode, lands in (
            # a blocking run's result is received when it returns
            ("blocking", JUMP_RUN + 1), ("start", JUMP_RUN + 1),
            # the pipelined program joins run 5 only after it started run 6
            ("pipelined", JUMP_RUN + 2),
        ):
            first, *drifts = logs[mode]
            assert first["reason"] == "initial selection" and first["iteration"] == 1
            assert drifts and drifts[0]["iteration"] == lands, (mode, logs[mode])
            assert drifts[0]["reason"].startswith("density drift")
            assert drifts[0]["algorithm"] != first["algorithm"]

    def test_constant_density_logs_only_the_initial_selection(self, runs):
        logs = runs("thread")[0]
        for mode in ("fused", "fused_async"):
            (only,) = logs[mode]
            assert only["iteration"] == 1 and only["reason"] == "initial selection"
