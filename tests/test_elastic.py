"""Elastic worlds: epochs, shrink barrier, rejoin, and stale frames.

The acceptance contract of the elastic runtime:

* a rank killed by a :class:`FaultPlan` mid-collective leaves the
  survivors able to ``comm.shrink()`` into a working (P-1)-rank world
  whose collectives are bit-identical on every backend;
* a dead thread rank rejoins through
  :func:`~repro.runtime.elastic.thread_rejoin` (the socket analog is
  ``serve-rank --rejoin``) and the regrown world computes with all P
  ranks again;
* frames and operations belonging to a superseded epoch surface as typed
  :class:`StaleEpochError` / wire-level drops — never silent corruption;
* the async SGD driver's ``on_failure="shrink"`` mode records the
  aggregating world size per epoch and hands a rejoiner the live model.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.collectives.dense import allreduce_recursive_doubling
from repro.runtime import (
    CommTimeoutError,
    ElasticWorld,
    FaultPlan,
    RankError,
    RankFailedError,
    StaleEpochError,
    ThreadWorld,
    run_ranks,
    thread_rejoin,
)
from repro.runtime import rendezvous as sb
from repro.runtime.context import parse_context
from repro.runtime.nonblocking import _BufferedComm
from repro.runtime.topology import Topology
from repro.runtime.faults import RankKilledError

BACKENDS = ["thread", "process", "shmem", "socket"]


# ----------------------------------------------------------------------
# kill -> shrink -> bit-identical collectives, every backend
# ----------------------------------------------------------------------
def _kill_shrink_prog(comm):
    vec = np.full(4, float(comm.rank + 1))
    try:
        out = allreduce_recursive_doubling(comm, vec.copy())
        # the kill may land after a survivor already holds its result;
        # the barrier guarantees every survivor observes the dead rank
        comm.barrier()
    except RankFailedError:
        new_world = comm.shrink()
        out = allreduce_recursive_doubling(new_world, vec.copy())
        return (
            "shrunk",
            new_world.epoch,
            new_world.size,
            tuple(float(x) for x in out),
        )
    return ("clean", tuple(float(x) for x in out))


class TestShrinkAfterKill:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_survivors_reform_bit_identical(self, backend):
        victim = 2
        with pytest.raises(RankError) as ei:
            run_ranks(
                _kill_shrink_prog,
                4,
                backend=backend,
                fault_plan=FaultPlan(kill_rank=victim, kill_after_ops=2),
                timeout=120.0,
            )
        parts = ei.value.partial_results
        assert parts is not None
        assert parts[victim] is None
        # ranks 0, 1, 3 contribute 1+2+4 = 7 per element in the new world
        expected = ("shrunk", 1, 3, (7.0, 7.0, 7.0, 7.0))
        for rank in (0, 1, 3):
            assert parts[rank] == expected, f"rank {rank}: {parts[rank]}"


# ----------------------------------------------------------------------
# a fault plan is state of the backend communicator: it survives shrink()
# ----------------------------------------------------------------------
def _plan_across_shrink_prog(comm):
    if comm.rank == 2:
        return "left"
    wire = comm.backend
    ops = [wire._fault_ops]
    world = comm.shrink(dead=[2])
    ops.append(wire._fault_ops)
    assert world.backend is wire and world.parent is wire
    allreduce_recursive_doubling(world, np.ones(4))
    ops.append(wire._fault_ops)
    if world.rank == 0:
        world.send(np.arange(4.0), dest=1, tag=5)
        return ("sent", ops)
    try:
        world.recv(source=0, tag=5)
        return ("delivered", ops)
    except CommTimeoutError as exc:
        return ("dropped", exc.source, ops)


class TestFaultPlanSurvivesShrink:
    @pytest.mark.parametrize("backend", ["thread", "socket"])
    def test_plan_keeps_ticking_and_applying(self, backend):
        # every message is delayed (harmless), and the first message rank 0
        # sends rank 1 on tag 5 *of the post-shrink world* is pinned lost
        pinned = (0, 1, parse_context("e1"), 5, 0)
        plan = FaultPlan(
            seed=3, delay_rate=1.0, delay_s=0.0002, drops=frozenset({pinned})
        )
        out = run_ranks(
            _plan_across_shrink_prog, 3, backend=backend, fault_plan=plan,
            op_timeout=1.0, timeout=120.0,
        )
        assert out[2] == "left"
        assert out[0][0] == "sent"
        assert out[1][:2] == ("dropped", 0), out[1]
        for rank in (0, 1):
            before, after_barrier, after_collective = out[rank][-1]
            # the membership barrier and the post-shrink collective both
            # passed through the plan
            assert before < after_barrier < after_collective


# ----------------------------------------------------------------------
# one delegation: every proxy stack reads the backend's state
# ----------------------------------------------------------------------
class TestProxyStacksReadTheSameState:
    @pytest.mark.parametrize("elastic", [False, True])
    @pytest.mark.parametrize(
        "stack",
        [(), ("sub",), ("buf",), ("sub", "buf"), ("buf", "sub"), ("sub", "sub", "buf"),
         ("buf", "sub", "buf")],
    )
    def test_epoch_timeout_topology_backend(self, elastic, stack):
        topo = Topology.uniform(4, 2)
        world = ThreadWorld(4, op_timeout=7.0, topology=topo)
        backend = world.comm(1)
        comm = backend
        if elastic:
            backend.epoch = 1
            comm = ElasticWorld(backend, range(4), 1)
        for layer in stack:
            comm = comm.subgroup(range(4)) if layer == "sub" else _BufferedComm(comm, 0)
        assert comm.backend is backend
        assert comm.epoch == backend.epoch == int(elastic)
        assert comm.op_timeout == 7.0
        assert comm.topology == topo
        assert comm.world_rank == 1
        backend.op_timeout = 3.0  # delegated, not snapshotted
        assert comm.op_timeout == 3.0


# ----------------------------------------------------------------------
# grow(): the world a membership change returns is the current one
# ----------------------------------------------------------------------
def _rows(comm):
    """This rank's trace rows so far, without their sequence numbers."""
    return [
        (e.op, e.peer, e.tag, e.nbytes, e.label, e.context)
        for e in comm.trace.events(comm.rank)
    ]


def _grow_nothing_pending_prog(comm):
    if comm.rank == 2:
        return "left"
    world = comm.shrink(dead=[2])
    before = len(_rows(comm))
    grown = world.grow()
    during = _rows(comm)[before:]
    world.bcast(None, root=0)  # what the leader sends when nothing is pending
    return grown is world, during, _rows(comm)[before + len(during):]


def _grow_superseded_prog(comm):
    if comm.rank == 2:
        return "left"
    first = comm.shrink(dead=[2])
    second = first.shrink()
    before = len(_rows(comm))
    errors = []
    for world in (comm, first):
        try:
            world.grow()
            errors.append("no error")
        except StaleEpochError as exc:
            errors.append((exc.frame_epoch, exc.current_epoch))
    return errors, len(_rows(comm)) - before, second.grow() is second


class TestGrow:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nothing_pending_returns_the_same_world_after_one_bcast(self, backend):
        out = run_ranks(_grow_nothing_pending_prog, 3, backend=backend, timeout=120.0)
        assert out[2] == "left"
        for rank in (0, 1):
            same, during, bcast = out[rank]
            assert same is True
            assert during and during == bcast, (rank, during, bcast)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_superseded_world_raises_and_sends_nothing(self, backend):
        out = run_ranks(_grow_superseded_prog, 3, backend=backend, timeout=120.0)
        assert out[2] == "left"
        for rank in (0, 1):
            # the backend communicator is epoch 0's world, the first
            # shrink's is epoch 1's; the second shrink moved to epoch 2
            assert out[rank] == ([(0, 2), (1, 2)], 0, True), out[rank]


# ----------------------------------------------------------------------
# full thread-backend cycle: kill -> shrink -> rejoin -> regrow
# ----------------------------------------------------------------------
class TestThreadRejoinCycle:
    def test_shrink_then_rejoin_restores_full_world(self):
        world = ThreadWorld(4, op_timeout=30.0)
        victim = 2
        results: dict[int, object] = {}
        failures: dict[int, object] = {}
        stale: dict[int, object] = {}

        def survivor(rank: int) -> None:
            comm = world.comm(rank)
            vec = np.full(4, float(rank + 1))
            try:
                allreduce_recursive_doubling(comm, vec.copy())
                results[rank] = "unexpected clean finish"
                return
            except RankFailedError as exc:
                failures[rank] = exc.rank
            shrunk = comm.shrink()
            out1 = allreduce_recursive_doubling(shrunk, vec.copy())
            grown = shrunk
            for _ in range(4000):
                grown = grown.grow()
                if grown.size == 4:
                    break
                time.sleep(0.002)
            out2 = allreduce_recursive_doubling(grown, vec.copy())
            try:
                shrunk.send(b"x", dest=(rank + 1) % shrunk.size, tag=1)
                stale[rank] = "no error"
            except StaleEpochError as exc:
                stale[rank] = (exc.frame_epoch, exc.current_epoch)
            results[rank] = (
                grown.epoch,
                grown.size,
                tuple(float(x) for x in out1),
                tuple(float(x) for x in out2),
            )

        def reviver() -> None:
            deadline = time.monotonic() + 30.0
            while victim not in world.dead_ranks:
                if time.monotonic() > deadline:
                    results[victim] = "victim never declared dead"
                    return
                time.sleep(0.002)
            comm = thread_rejoin(world, victim, timeout=30.0)
            out = allreduce_recursive_doubling(comm, np.full(4, float(victim + 1)))
            results[victim] = (comm.epoch, comm.size, tuple(float(x) for x in out))

        threads = [
            threading.Thread(target=survivor, args=(r,), daemon=True) for r in (0, 1, 3)
        ]
        for t in threads:
            t.start()
        world.abort(failed_rank=victim)  # simulate the rank dying mid-collective
        rev = threading.Thread(target=reviver, daemon=True)
        rev.start()
        for t in [*threads, rev]:
            t.join(timeout=60.0)
            assert not t.is_alive(), "elastic cycle deadlocked"

        assert failures == {0: victim, 1: victim, 3: victim}
        survivors_sum = (7.0, 7.0, 7.0, 7.0)  # 1+2+4
        full_sum = (10.0, 10.0, 10.0, 10.0)  # 1+2+3+4
        for rank in (0, 1, 3):
            assert results[rank] == (2, 4, survivors_sum, full_sum), results[rank]
            # the superseded epoch-1 world is typed-stale, not silently live
            assert stale[rank] == (1, 2)
        assert results[victim] == (2, 4, full_sum)


# ----------------------------------------------------------------------
# socket backend: crash -> shrink -> serve-rank --rejoin -> stale frames
# ----------------------------------------------------------------------
class TestSocketRejoin:
    def test_crash_shrink_rejoin_and_wire_stale_drop(self):
        victim = 2
        listener = sb._bind_listener("127.0.0.1", 0, 3)
        rendezvous = listener.getsockname()
        listener.close()
        results: dict[int, object] = {}
        crashed = threading.Event()

        def member_prog(comm):
            vec = np.full(4, float(comm.rank + 1))
            if comm.rank == victim:
                # simulated crash: vanish without FIN frames so peers see
                # a mid-run EOF, exactly like a killed process
                for sock in comm._out + comm._inn:
                    if sock is not None:
                        sock.close()
                crashed.set()
                return "crashed"
            try:
                allreduce_recursive_doubling(comm, vec.copy())
                comm.barrier()
                return "unexpected clean finish"
            except RankFailedError:
                pass
            shrunk = comm.shrink()
            out1 = allreduce_recursive_doubling(shrunk, vec.copy())
            grown = shrunk
            for _ in range(15000):
                grown = grown.grow()
                if grown.size == 3:
                    break
                time.sleep(0.002)
            out2 = allreduce_recursive_doubling(grown, vec.copy())
            # wire-level staleness: a frame stamped with a dead epoch is
            # dropped and counted by the receiver, never delivered
            if comm.rank == 0:
                saved = comm.epoch
                comm.epoch = saved - 1
                comm.send(b"stale", dest=1, tag=77)
                comm.epoch = saved
                comm.send(b"fresh", dest=1, tag=77)
                seen, rejected = None, None
            else:
                seen = bytes(comm.recv(source=0, tag=77))
                rejected = comm.stale_epoch_rejected
            try:
                allreduce_recursive_doubling(shrunk, vec.copy())
                stale_err = "no error"
            except StaleEpochError as exc:
                stale_err = (exc.frame_epoch, exc.current_epoch)
            return (
                grown.epoch,
                grown.size,
                tuple(float(x) for x in out1),
                tuple(float(x) for x in out2),
                stale_err,
                seen,
                rejected,
            )

        def member(rank: int) -> None:
            try:
                results[rank] = sb.serve_rank(
                    rendezvous,
                    rank,
                    3,
                    program=member_prog,
                    elastic=(rank == 0),
                    op_timeout=30.0,
                    rendezvous_timeout=60.0,
                )
            except Exception as exc:  # noqa: BLE001 - surfaced via results
                results[rank] = exc

        def rejoin_prog(grown):
            # the program runs on the world it rejoined, not the backend
            if not isinstance(grown, ElasticWorld):
                return f"the rejoiner's program got a {type(grown).__name__}"
            if grown.backend.fault_plan is not None:
                return "a revived rank must start without a fault plan"
            out = allreduce_recursive_doubling(
                grown, np.full(4, float(victim + 1))
            )
            return (grown.epoch, grown.size, tuple(float(x) for x in out))

        threads = [
            threading.Thread(target=member, args=(r,), daemon=True) for r in range(3)
        ]
        for t in threads:
            t.start()
        assert crashed.wait(timeout=60.0), "victim never crashed"
        reviver_result: dict[str, object] = {}

        def reviver() -> None:
            try:
                reviver_result["value"] = sb.serve_rank(
                    rendezvous,
                    victim,
                    3,
                    program=rejoin_prog,
                    rejoin=True,
                    rendezvous_timeout=60.0,
                    op_timeout=30.0,
                    # the restarted command line still names the plan that
                    # killed the rank; it must not be killed again
                    fault_plan=FaultPlan(kill_rank=victim, kill_after_ops=1),
                )
            except Exception as exc:  # noqa: BLE001 - surfaced via dict
                reviver_result["value"] = exc

        rev = threading.Thread(target=reviver, daemon=True)
        rev.start()
        for t in [*threads, rev]:
            t.join(timeout=90.0)
            assert not t.is_alive(), "socket elastic cycle deadlocked"

        assert results.get(victim) == "crashed"
        survivors_sum = (3.0, 3.0, 3.0, 3.0)  # 1+2
        full_sum = (6.0, 6.0, 6.0, 6.0)  # 1+2+3
        for rank in (0, 1):
            value = results[rank]
            assert not isinstance(value, Exception), f"rank {rank}: {value!r}"
            epoch, size, out1, out2, stale_err, seen, rejected = value
            assert (epoch, size) == (2, 3)
            assert out1 == survivors_sum
            assert out2 == full_sum
            assert stale_err == (1, 2)
        # rank 1 received only the fresh copy; the stale frame was counted
        _, _, _, _, _, seen, rejected = results[1]
        assert seen == b"fresh"
        assert rejected >= 1
        assert reviver_result["value"] == (2, 3, full_sum)


# ----------------------------------------------------------------------
# async SGD: shrink-and-continue, then rejoin-and-resume
# ----------------------------------------------------------------------
class TestAsyncSGDElastic:
    def test_shrink_and_continue(self):
        from repro.mlopt import (
            LogisticRegression,
            SGDConfig,
            distributed_sgd_async,
            make_sparse_classification,
        )

        dataset = make_sparse_classification(120, 500, 12, seed=5)
        victim = 2

        def prog(comm):
            cfg = SGDConfig(epochs=6, batch_size=20, lr=0.5, mode="sparse")
            model = LogisticRegression(dataset.n_features, 1e-5)
            return distributed_sgd_async(
                comm, dataset, model, cfg, on_failure="shrink"
            )

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
            # survivors shrank instead of degrading and kept aggregating
            assert history.degraded_rank is None
            assert len(history.records) == 6
            assert len(history.world_sizes) == 6
            # a survivor whose epoch-0 pipeline drained before the abort
            # legitimately records a 4 for that epoch; a 1 marks an epoch
            # finished on local gradients while the world reformed. Once
            # the first post-shrink epoch lands, every epoch aggregates 3.
            assert set(history.world_sizes) <= {1, 3, 4}
            first_shrunk = history.world_sizes.index(3)
            assert set(history.world_sizes[first_shrunk:]) == {3}
            assert np.isfinite(history.final_loss)

    def test_rejoin_resumes_training(self):
        from repro.mlopt import (
            LogisticRegression,
            SGDConfig,
            distributed_sgd_async,
            make_sparse_classification,
        )

        dataset = make_sparse_classification(160, 400, 10, seed=9)
        cfg = SGDConfig(epochs=10, batch_size=20, lr=0.5, mode="sparse")
        plan = FaultPlan(kill_rank=2, kill_after_ops=8)
        world = ThreadWorld(4, op_timeout=30.0)
        victim = 2
        results: dict[int, object] = {}

        def rank_thread(rank: int) -> None:
            comm = world.comm(rank)
            comm.fault_plan = plan
            model = LogisticRegression(dataset.n_features, 1e-5)
            try:
                results[rank] = distributed_sgd_async(
                    comm, dataset, model, cfg, on_failure="shrink"
                )
            except RankKilledError:
                world.abort(failed_rank=rank)
                results[rank] = "killed"
            except Exception as exc:  # noqa: BLE001 - surfaced via results
                world.abort(failed_rank=rank)
                results[rank] = exc

        def reviver() -> None:
            deadline = time.monotonic() + 30.0
            while victim not in world.dead_ranks:
                if time.monotonic() > deadline:
                    results["reviver"] = "victim never declared dead"
                    return
                time.sleep(0.001)
            try:
                comm = thread_rejoin(world, victim, timeout=45.0)
                # a revived rank starts clean: the kill cannot fire again
                assert comm.backend.fault_plan is None
                model = LogisticRegression(dataset.n_features, 1e-5)
                results["reviver"] = distributed_sgd_async(
                    comm, dataset, model, cfg, on_failure="shrink", resume=True
                )
            except Exception as exc:  # noqa: BLE001 - surfaced via results
                results["reviver"] = exc

        threads = [
            threading.Thread(target=rank_thread, args=(r,), daemon=True)
            for r in range(4)
        ]
        rev = threading.Thread(target=reviver, daemon=True)
        for t in threads:
            t.start()
        rev.start()
        for t in [*threads, rev]:
            t.join(timeout=120.0)
            assert not t.is_alive(), "elastic SGD deadlocked"

        assert results[victim] == "killed"
        revived = results["reviver"]
        assert not isinstance(revived, Exception), repr(revived)
        assert revived.records, "rejoin was never committed before the run ended"
        # the rejoiner aggregated with the full world from its first epoch
        assert set(revived.world_sizes) == {4}
        for rank in (0, 1, 3):
            history = results[rank]
            assert not isinstance(history, (Exception, str)), repr(history)
            assert history.degraded_rank is None
            assert len(history.world_sizes) == cfg.epochs
            # the run shrank to 3 and regrew to 4 without restarting
            assert 3 in history.world_sizes
            assert history.world_sizes[-1] == 4
        # the rejoiner synced the live model: from the grow broadcast on,
        # it applies exactly the aggregated updates the root applies
        root_history = results[0]
        assert np.allclose(root_history.params, revived.params)


# ----------------------------------------------------------------------
# the quickstart demo refuses a rejoin it cannot run
# ----------------------------------------------------------------------
REPO = Path(__file__).resolve().parents[1]


def _quickstart(*argv):
    return subprocess.run(
        [sys.executable, str(REPO / "examples" / "quickstart.py"), *argv],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True, text=True, timeout=120,
    )


class TestQuickstartRejoinFlags:
    @pytest.mark.parametrize("backend", ["process", "shmem", "socket"])
    def test_a_process_backend_rejoin_is_a_parser_error(self, backend):
        done = _quickstart(
            "--backend", backend, "--elastic", "--fault-plan", "kill=1@20", "--rejoin"
        )
        assert done.returncode == 2, done.stdout + done.stderr
        assert "serve-rank --rejoin" in done.stderr

    def test_rejoin_without_elastic_is_a_parser_error(self):
        done = _quickstart("--fault-plan", "kill=1@20", "--rejoin")
        assert done.returncode == 2, done.stdout + done.stderr
        assert "--rejoin requires --elastic" in done.stderr
