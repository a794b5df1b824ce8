"""Fault injection and typed failure surfacing, pinned on all four backends.

The acceptance contract of the fault harness:

* a killed rank makes every *surviving* rank raise
  :class:`RankFailedError` naming the dead rank — on thread, process,
  shmem and socket alike;
* a dropped message plus ``op_timeout=`` raises :class:`CommTimeoutError`
  (a typed, attributed error — not a hang, not a bare ``RuntimeError``);
* injected delays never change results (bit-identical to fault-free);
* the same :class:`FaultPlan` seed reproduces the same failure sequence.

Plus the satellite regressions: typed rendezvous errors, a message queued
before an abort still received, and ``split`` color validation.
"""

import json
import pickle
import socket as socketlib
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import FaultPlan, dense_allreduce
from repro.collectives import dsar_hierarchical, ssar_hierarchical
from repro.runtime import (
    AbortState,
    CommTimeoutError,
    RankError,
    RankFailedError,
    RankKilledError,
    RendezvousError,
    RendezvousTimeoutError,
    ThreadWorld,
    WorldAbortedError,
    i_collective,
    run_ranks,
)
from repro.runtime import rendezvous as sb

from conftest import make_rank_stream

BACKENDS = ["thread", "process", "shmem", "socket"]
NB_BACKENDS = ["thread", "process"]  # where i_collective is supported


# ----------------------------------------------------------------------
# FaultPlan: pure, deterministic decisions
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_same_seed_same_sequence(self):
        a = FaultPlan(seed=42, drop_rate=0.3, delay_rate=0.2)
        b = FaultPlan(seed=42, drop_rate=0.3, delay_rate=0.2)
        seq = [a.action(0, 1, (), 3, s) for s in range(200)]
        assert seq == [b.action(0, 1, (), 3, s) for s in range(200)]
        # non-trivial plans exercise every branch
        assert {act for act, _ in seq} == {"drop", "delay", "pass"}

    def test_different_seed_different_sequence(self):
        a = FaultPlan(seed=1, drop_rate=0.5)
        b = FaultPlan(seed=2, drop_rate=0.5)
        assert [a.action(0, 1, (), 0, s) for s in range(64)] != [
            b.action(0, 1, (), 0, s) for s in range(64)
        ]

    def test_rates_are_respected(self):
        plan = FaultPlan(seed=7, drop_rate=0.25)
        drops = sum(plan.action(0, 1, (), 0, s)[0] == "drop" for s in range(2000))
        assert 0.18 < drops / 2000 < 0.32  # keyed-hash uniform ~ Binomial

    def test_explicit_keys_override_rates(self):
        plan = FaultPlan(drops=frozenset({(0, 1, 5, 0)}), delays={(1, 0, 5, 2): 0.5})
        assert plan.action(0, 1, (), 5, 0) == ("drop", 0.0)
        assert plan.action(1, 0, (), 5, 2) == ("delay", 0.5)
        assert plan.action(0, 1, (), 5, 1) == ("pass", 0.0)

    def test_kills(self):
        plan = FaultPlan(kill_rank=2, kill_after_ops=5)
        assert not plan.kills(2, 4)
        assert plan.kills(2, 5)
        assert plan.kills(2, 6)
        assert not plan.kills(1, 99)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=0.7, delay_rate=0.7)
        with pytest.raises(ValueError):
            FaultPlan(delay_s=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(kill_after_ops=0)

    def test_from_spec(self):
        plan = FaultPlan.from_spec("seed=7,drop=0.02,delay=0.1/0.005,kill=2@40")
        assert plan.seed == 7
        assert plan.drop_rate == 0.02
        assert plan.delay_rate == 0.1
        assert plan.delay_s == 0.005
        assert plan.kill_rank == 2
        assert plan.kill_after_ops == 40
        assert FaultPlan.from_spec("kill=1").kill_after_ops == 1
        assert FaultPlan.from_spec("delay=0.5").delay_s == FaultPlan().delay_s

    @pytest.mark.parametrize(
        "spec", ["frobnicate=1", "drop", "drop=x", "kill=a@b", "revive=2@80"]
    )
    def test_from_spec_rejects_garbage(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(spec)

    def test_describe_mentions_every_clause(self):
        text = FaultPlan.from_spec("seed=3,drop=0.1,kill=1@9").describe()
        assert "seed=3" in text and "drop=0.1" in text and "kill=1@9" in text

    def test_pinned_clauses_round_trip(self):
        plan = FaultPlan(
            drops=frozenset({(0, 1, 5, 0), (2, 3, 7, 9)}),
            delays={(1, 0, 5, 2): 0.5},
        )
        text = plan.describe()
        assert "pindrop=0:1:5:0" in text
        assert "pindelay=1:0:5:2/0.5" in text
        assert FaultPlan.from_spec(text) == plan


_message_keys = st.tuples(
    st.integers(0, 7), st.integers(0, 7), st.integers(0, 99), st.integers(0, 999)
)


@st.composite
def _fault_plans(draw):
    """Any *representable* plan: a trigger threshold (``kill_after_ops``)
    without its rank is inert and deliberately not emitted by
    ``describe``, so the strategy never builds one."""
    kill = draw(st.none() | st.tuples(st.integers(0, 7), st.integers(1, 500)))
    kwargs = {
        "seed": draw(st.integers(-(2**31), 2**31)),
        "drop_rate": draw(st.floats(0.0, 0.5, allow_nan=False)),
        "delay_rate": draw(st.floats(0.0, 0.5, allow_nan=False)),
        "delay_s": draw(st.floats(0.0, 1.0, allow_nan=False)),
        "drops": frozenset(draw(st.sets(_message_keys, max_size=3))),
        "delays": draw(
            st.dictionaries(_message_keys, st.floats(0.0, 1.0, allow_nan=False), max_size=3)
        ),
    }
    if kill is not None:
        kwargs["kill_rank"], kwargs["kill_after_ops"] = kill
    return FaultPlan(**kwargs)


class TestFaultPlanSpecRoundTrip:
    @given(plan=_fault_plans())
    def test_round_trip(self, plan):
        assert FaultPlan.from_spec(plan.describe()) == plan


# ----------------------------------------------------------------------
# typed error taxonomy
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_rank_failed_is_world_aborted(self):
        err = RankFailedError(3)
        assert isinstance(err, WorldAbortedError)
        assert err.rank == 3
        assert "rank 3" in str(err)

    def test_comm_timeout_is_timeout(self):
        err = CommTimeoutError("slow", source=1, tag=5, timeout=0.5)
        assert isinstance(err, TimeoutError)
        assert not isinstance(err, WorldAbortedError)
        assert (err.source, err.tag, err.timeout) == (1, 5, 0.5)

    def test_rendezvous_family(self):
        assert issubclass(RendezvousError, RuntimeError)
        assert issubclass(RendezvousTimeoutError, RendezvousError)
        assert issubclass(RendezvousTimeoutError, TimeoutError)

    @pytest.mark.parametrize(
        "err",
        [
            RankFailedError(7),
            RankFailedError(2, "custom message"),
            CommTimeoutError("late", source=0, tag=9, timeout=1.5),
        ],
    )
    def test_pickle_roundtrip(self, err):
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is type(err)
        assert str(clone) == str(err)
        assert clone.__dict__ == err.__dict__

    def test_abort_state_first_failure_wins(self):
        state = AbortState()
        assert isinstance(state.error(), WorldAbortedError)
        state.set(failed_rank=4)
        state.set(failed_rank=9)  # later attribution must not overwrite
        state.set()
        err = state.error()
        assert isinstance(err, RankFailedError)
        assert err.rank == 4


# ----------------------------------------------------------------------
# kill: every survivor raises RankFailedError naming the dead rank
# ----------------------------------------------------------------------
def _survivor_prog(comm):
    try:
        return dense_allreduce(comm, np.full(8, float(comm.rank + 1)))
    except RankFailedError as exc:
        return ("failed", exc.rank)


class TestKilledRank:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_survivors_learn_the_dead_rank(self, backend):
        nranks, victim = 3, 1
        with pytest.raises(RankError) as ei:
            run_ranks(
                _survivor_prog,
                nranks,
                backend=backend,
                fault_plan=FaultPlan(kill_rank=victim, kill_after_ops=1),
            )
        err = ei.value
        cause = err.__cause__
        # the world-level error is attributed to the victim...
        assert isinstance(cause, (RankFailedError, RankKilledError))
        assert cause.rank == victim
        # ...and every surviving rank observed RankFailedError naming it
        assert err.partial_results is not None
        for rank, value in enumerate(err.partial_results):
            if rank == victim:
                assert value is None
            else:
                assert value == ("failed", victim)

    def test_thread_kill_raises_instead_of_exiting(self):
        # thread ranks share the pytest process: the kill must unwind, not
        # os._exit, and still attribute the abort to the victim
        with pytest.raises(RankError) as ei:
            run_ranks(
                _survivor_prog,
                2,
                backend="thread",
                fault_plan=FaultPlan(kill_rank=0, kill_after_ops=1),
            )
        assert isinstance(ei.value.__cause__, RankKilledError)
        assert ei.value.__cause__.rank == 0


# ----------------------------------------------------------------------
# drop + op_timeout: typed CommTimeoutError, fast, never a hang
# ----------------------------------------------------------------------
def _p2p_prog(comm):
    if comm.rank == 0:
        comm.send(np.arange(4.0), dest=1, tag=5)
        return "sent"
    return comm.recv(source=0, tag=5)


class TestDroppedMessage:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_drop_raises_comm_timeout(self, backend):
        plan = FaultPlan(drops=frozenset({(0, 1, 5, 0)}))
        with pytest.raises(RankError) as ei:
            run_ranks(_p2p_prog, 2, backend=backend, fault_plan=plan, op_timeout=0.75)
        cause = ei.value.__cause__
        assert isinstance(cause, CommTimeoutError)
        assert type(cause) is not RuntimeError  # typed, not bare
        assert cause.source == 0
        assert cause.tag == 5
        assert cause.timeout == 0.75
        assert "op_timeout" in str(cause)

    def test_no_timeout_no_spurious_failure(self):
        # op_timeout generous, nothing dropped: the same program completes
        out = run_ranks(_p2p_prog, 2, backend="thread", op_timeout=30.0)
        assert out[0] == "sent"
        np.testing.assert_array_equal(out[1], np.arange(4.0))


# ----------------------------------------------------------------------
# delays: pure jitter, results bit-identical to the fault-free run
# ----------------------------------------------------------------------
def _allreduce_prog(comm):
    rng = np.random.default_rng(31 + comm.rank)
    return dense_allreduce(comm, rng.standard_normal(64))


class TestDelaysAreHarmless:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_under_jitter(self, backend):
        clean = run_ranks(_allreduce_prog, 3, backend=backend)
        jittered = run_ranks(
            _allreduce_prog,
            3,
            backend=backend,
            fault_plan=FaultPlan(seed=11, delay_rate=1.0, delay_s=0.0005),
        )
        for r in range(3):
            np.testing.assert_array_equal(clean[r], jittered[r])


# ----------------------------------------------------------------------
# hierarchical collectives under faults: the two-tier schedules surface
# the same typed errors as the flat ones on a multi-host topology
# ----------------------------------------------------------------------
_HIER_ALGOS = {"ssar_hier": ssar_hierarchical, "dsar_hier": dsar_hierarchical}


def _hier_kill_prog(comm, algo):
    stream = make_rank_stream(256, 32, comm.rank)
    try:
        _HIER_ALGOS[algo](comm, stream)
        # the kill may land after this rank already holds its result; the
        # barrier guarantees every survivor observes the dead rank
        comm.barrier()
        return "clean"
    except RankFailedError as exc:
        return ("failed", exc.rank)


def _hier_drop_prog(comm, algo):
    stream = make_rank_stream(256, 32, comm.rank)
    try:
        _HIER_ALGOS[algo](comm, stream)
        return "clean"
    except (CommTimeoutError, RankFailedError) as exc:
        return ("typed", type(exc).__name__)


class TestHierCollectivesUnderFaults:
    """kill= and drop= against ssar_hier/dsar_hier on a 2x4 world."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algo", sorted(_HIER_ALGOS))
    def test_kill_surfaces_typed_error(self, backend, algo):
        nranks, victim = 8, 3
        with pytest.raises(RankError) as ei:
            run_ranks(
                _hier_kill_prog,
                nranks,
                algo,
                backend=backend,
                topology="2x4",
                fault_plan=FaultPlan(kill_rank=victim, kill_after_ops=2),
                op_timeout=30.0,
            )
        err = ei.value
        cause = err.__cause__
        assert isinstance(cause, (RankFailedError, RankKilledError, CommTimeoutError))
        assert cause.rank == victim
        assert err.partial_results is not None
        for rank, value in enumerate(err.partial_results):
            if rank == victim:
                assert value is None
                continue
            assert value[0] == "failed"
            if backend == "socket":
                # socket failure detection is peer-observed: a survivor
                # mid-exchange with a peer that is itself unwinding from
                # the victim's death can attribute the failure to that
                # peer (a cascade), so only require a typed failure
                # naming some *other* rank
                assert value[1] != rank
            else:
                assert value[1] == victim

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algo", sorted(_HIER_ALGOS))
    def test_full_drop_times_out_typed(self, backend, algo):
        out = run_ranks(
            _hier_drop_prog,
            8,
            algo,
            backend=backend,
            topology="2x4",
            fault_plan=FaultPlan(drop_rate=1.0),
            op_timeout=0.75,
        )
        # every rank's first blocked receive hits its own op_timeout; no
        # rank hangs and no error is a bare RuntimeError
        assert all(value[0] == "typed" for value in out)
        assert "CommTimeoutError" in {value[1] for value in out}


# ----------------------------------------------------------------------
# reproducibility: one seed, one failure sequence, every run
# ----------------------------------------------------------------------
class TestSeedReproducibility:
    def test_same_plan_fails_identically_twice(self):
        plan = FaultPlan(seed=123, drop_rate=0.5)
        # locate the first message the plan will drop on channel 0 -> 1, tag 7
        first_drop = next(
            s for s in range(100) if plan.action(0, 1, (), 7, s)[0] == "drop"
        )

        def prog(comm, n=first_drop + 1):
            if comm.rank == 0:
                for _ in range(n):
                    comm.send(np.zeros(2), dest=1, tag=7)
                return None
            return [comm.recv(source=0, tag=7) for _ in range(n)]

        observed = []
        for _ in range(2):
            with pytest.raises(RankError) as ei:
                run_ranks(prog, 2, backend="thread", fault_plan=plan, op_timeout=0.5)
            cause = ei.value.__cause__
            observed.append((type(cause), cause.source, cause.tag, str(cause)))
        assert observed[0] == observed[1]
        assert observed[0][0] is CommTimeoutError


# ----------------------------------------------------------------------
# satellite: propagation through SubCommunicator and i_collective proxies
# ----------------------------------------------------------------------
def _subcomm_prog(comm):
    try:
        sub = comm.split(color=comm.rank % 2)
        while True:  # until the victim's death surfaces; the run timeout bounds it
            peer = 1 - sub.rank
            if sub.rank == 0:
                sub.send(np.arange(2.0), dest=peer, tag=1)
                sub.recv(source=peer, tag=2)
            else:
                sub.recv(source=peer, tag=1)
                sub.send(np.arange(2.0), dest=peer, tag=2)
    except RankFailedError as exc:
        return ("failed", exc.rank)


def _nonblocking_prog(comm):
    try:
        for _ in range(20):
            handle = i_collective(comm, dense_allreduce, np.full(4, 1.0))
            handle.wait()
        return "ok"
    except RankFailedError as exc:
        return ("failed", exc.rank)


def _nested_launch_prog(comm):
    """Fused buckets on one progress thread, each bucket a chunked
    ``ssar_hier`` whose leader stage is a launch *inside* that launch."""
    from repro.core import GradientFuser

    fuser = GradientFuser([("a", 128), ("b", 128)], min_bucket_bytes=0)
    efs = fuser.make_error_feedback(k=8, bucket_size=32)
    grad = np.random.default_rng(17 + comm.rank).standard_normal(256)
    try:
        for _ in range(20):
            fuser.i_fused_allreduce(comm, grad, efs, algorithm="ssar_hier", chunks=2).wait()
        return "ok"
    except RankFailedError as exc:
        return ("failed", exc.rank)


def _proxy_state_prog(comm):
    """What a split, a shrunk world and a split of it report of the
    backend's fault plan and abort flag."""
    sub, world = comm.split(0), comm.shrink()
    return (
        sub.fault_plan, world.fault_plan, world.split(0).fault_plan,
        sub.aborted is comm.aborted, world.aborted is comm.aborted,
    )


class TestFailurePropagationThroughProxies:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_proxies_report_the_backend_fault_plan_and_abort_flag(self, backend):
        plan = FaultPlan(seed=1, delay_rate=0.1, delay_s=1e-4)
        out = run_ranks(_proxy_state_prog, 2, backend=backend, fault_plan=plan)
        assert out.results == [(plan, plan, plan, True, True)] * 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_subcommunicator_surfaces_rank_failure(self, backend):
        """Ranks 0 and 2 form a group the victim is not in and never
        address it after the split, yet its death reaches them through
        the sub-communicator. What the transports guarantee is *when*: a
        peer's death is observed at the survivor's next transport
        operation or probe that has to wait (the blocked thread reads
        every inbound channel, the dead one's EOF included), not
        asynchronously — a rank that stops communicating is never
        interrupted. So the groups exchange until the failure surfaces
        instead of a fixed count the victim might outlive."""
        victim = 3
        with pytest.raises(RankError) as ei:
            run_ranks(
                _subcomm_prog,
                4,
                backend=backend,
                timeout=60.0,
                fault_plan=FaultPlan(kill_rank=victim, kill_after_ops=25),
            )
        err = ei.value
        assert err.partial_results is not None
        survivors = [v for r, v in enumerate(err.partial_results) if r != victim]
        assert survivors == [("failed", victim)] * 3

    @pytest.mark.parametrize("backend", NB_BACKENDS)
    def test_i_collective_surfaces_rank_failure(self, backend):
        victim = 2
        with pytest.raises(RankError) as ei:
            run_ranks(
                _nonblocking_prog,
                3,
                backend=backend,
                fault_plan=FaultPlan(kill_rank=victim, kill_after_ops=15),
            )
        err = ei.value
        assert err.partial_results is not None
        survivors = [v for r, v in enumerate(err.partial_results) if r != victim]
        assert survivors == [("failed", victim)] * 2

    @pytest.mark.parametrize("backend", NB_BACKENDS)
    @pytest.mark.parametrize("kill_after_ops", [4, 7, 11, 30])
    def test_kill_inside_a_nested_launch(self, backend, kill_after_ops):
        """The victim is a host leader, so its ops tick on three threads
        (rank, fused launch, chunk launch inside it) — wherever the kill
        lands, every survivor learns the victim's name."""
        victim = 2
        with pytest.raises(RankError) as ei:
            run_ranks(
                _nested_launch_prog,
                4,
                backend=backend,
                topology="2x2",
                fault_plan=FaultPlan(kill_rank=victim, kill_after_ops=kill_after_ops),
            )
        err = ei.value
        assert isinstance(err.__cause__, (RankFailedError, RankKilledError))
        assert err.__cause__.rank == victim
        survivors = [v for r, v in enumerate(err.partial_results) if r != victim]
        assert survivors == [("failed", victim)] * 3


# ----------------------------------------------------------------------
# satellite: a message queued before the abort is still received
# ----------------------------------------------------------------------
class TestQueuedMessageWinsOverAbort:
    def test_thread(self):
        world = ThreadWorld(2)
        world.comm(1).send(np.arange(3.0), dest=0, tag=0)
        world.abort(failed_rank=1)
        np.testing.assert_array_equal(world.comm(0).recv(source=1, tag=0), np.arange(3.0))
        with pytest.raises(RankFailedError) as ei:  # the channel is empty now: the abort surfaces
            world.comm(0).recv(source=1, tag=0)
        assert ei.value.rank == 1

    def test_process(self):
        def prog(comm):
            if comm.rank == 1:
                comm.send(np.arange(3.0), 0, tag=0)
                raise ValueError("rank 1 fails after sending")
            # tag 1 never comes: reading the channel queues tag 0's frame,
            # then finds rank 1 gone
            with pytest.raises(RankFailedError):
                comm.recv(1, tag=1)
            assert comm.aborted.is_set()
            return comm.recv(1, tag=0)

        with pytest.raises(RankError) as ei:
            run_ranks(prog, 2, backend="process", timeout=60.0)
        assert isinstance(ei.value.original, ValueError)
        np.testing.assert_array_equal(ei.value.partial_results[0], np.arange(3.0))


# ----------------------------------------------------------------------
# satellite: split validates color before advancing collective counters
# ----------------------------------------------------------------------
class TestSplitColorValidation:
    def test_bad_color_raises_typeerror_locally(self):
        def prog(comm):
            with pytest.raises(TypeError, match="split color"):
                comm.split(color=[comm.rank])  # unhashable: no atomic compare
            # the failed attempt must not have advanced any counter: a
            # subsequent valid split still lines up across all ranks
            sub = comm.split(color=comm.rank % 2)
            return sub.sendrecv(comm.rank, peer=1 - sub.rank, tag=3)

        out = run_ranks(prog, 4)
        assert out.results == [2, 3, 0, 1]

    def test_array_color_rejected(self):
        def prog(comm):
            comm.split(color=np.array([1, 2]))  # elementwise ==, unhashable

        with pytest.raises(RankError) as ei:
            run_ranks(prog, 2)
        assert isinstance(ei.value.__cause__, TypeError)

    def test_none_color_still_opts_out(self):
        def prog(comm):
            sub = comm.split(color=None if comm.rank == 0 else 1)
            return None if sub is None else sub.size

        out = run_ranks(prog, 3)
        assert out.results == [None, 2, 2]


# ----------------------------------------------------------------------
# satellite: typed rendezvous failures
# ----------------------------------------------------------------------
class TestRendezvousErrors:
    def test_wrong_world_size_is_typed(self):
        srv = socketlib.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        addr = srv.getsockname()

        def bad_server():
            conn, _ = srv.accept()
            try:
                sb._recv_blob(conn)
                # reply with one address where two were promised
                sb._send_blob(conn, json.dumps([0, [0, 1], [["127.0.0.1", 1]]]).encode())
            finally:
                conn.close()
                srv.close()

        threading.Thread(target=bad_server, daemon=True).start()
        with pytest.raises(RendezvousError, match="expected 2") as ei:
            sb._register(addr, "join", 0, 2, ("127.0.0.1", 9), timeout=10.0)
        assert not isinstance(ei.value, RendezvousTimeoutError)

    def test_assembly_timeout_is_typed(self):
        srv = socketlib.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        addr = srv.getsockname()

        def silent_server():
            conn, _ = srv.accept()
            try:
                sb._recv_blob(conn)  # register the rank, never answer
                conn.recv(1)  # hold the connection open until client gives up
            finally:
                conn.close()
                srv.close()

        threading.Thread(target=silent_server, daemon=True).start()
        with pytest.raises(RendezvousTimeoutError, match="never fully"):
            sb._register(addr, "join", 0, 2, ("127.0.0.1", 9), timeout=0.5)


# ----------------------------------------------------------------------
# graceful degradation: async SGD survives a dead peer
# ----------------------------------------------------------------------
class TestAsyncSGDGracefulDegradation:
    def test_survivors_finish_degraded(self):
        from repro.mlopt import (
            LogisticRegression,
            SGDConfig,
            distributed_sgd_async,
            make_sparse_classification,
        )

        dataset = make_sparse_classification(120, 500, 12, seed=5)

        def prog(comm):
            cfg = SGDConfig(epochs=2, batch_size=20, lr=0.5, mode="sparse")
            model = LogisticRegression(dataset.n_features, 1e-5)
            return distributed_sgd_async(comm, dataset, model, cfg)

        victim = 2
        with pytest.raises(RankError) as ei:
            run_ranks(
                prog,
                4,
                backend="thread",
                fault_plan=FaultPlan(kill_rank=victim, kill_after_ops=8),
            )
        err = ei.value
        assert err.partial_results is not None
        for rank, history in enumerate(err.partial_results):
            if rank == victim:
                assert history is None
                continue
            # every survivor finished the full run on local gradients
            assert history.degraded_rank == victim
            assert len(history.records) == 2
            assert history.params is not None
            assert np.isfinite(history.final_loss)

    @pytest.mark.parametrize("kill_after_ops", [3, 6, 9, 12, 15])
    @pytest.mark.parametrize("fused", [False, True])
    def test_death_during_the_launch_round_degrades_too(self, kill_after_ops, fused):
        """With ``adaptive`` / ``chunks="auto"`` every step runs an
        agreement round on the rank thread *before* the launch; a peer
        that dies there must degrade the survivors like one that dies
        behind the join (it used to escape as an unhandled error)."""
        from repro.core import GradientFuser
        from repro.mlopt import (
            LogisticRegression,
            SGDConfig,
            distributed_sgd_async,
            make_sparse_classification,
        )

        dataset = make_sparse_classification(120, 512, 12, seed=5)

        def prog(comm):
            # 12 steps of >= 4 transport ops on every rank: each kill
            # point below lands inside the run, most in a launch round
            cfg = SGDConfig(epochs=2, batch_size=5, lr=0.5, mode="sparse")
            model = LogisticRegression(dataset.n_features, 1e-5)
            fuser = (
                GradientFuser([("a", 256), ("b", 256)], min_bucket_bytes=0) if fused else None
            )
            return distributed_sgd_async(
                comm, dataset, model, cfg,
                fuser=fuser, fuser_k=8, chunks="auto", adaptive=True,
            )

        victim = 1
        with pytest.raises(RankError) as ei:
            run_ranks(
                prog, 4, backend="thread", topology="2x2",
                fault_plan=FaultPlan(kill_rank=victim, kill_after_ops=kill_after_ops),
            )
        for rank, history in enumerate(ei.value.partial_results):
            if rank == victim:
                assert history is None
                continue
            assert history is not None, f"rank {rank} did not survive"
            assert history.degraded_rank == victim
            assert len(history.records) == 2 and np.isfinite(history.final_loss)
