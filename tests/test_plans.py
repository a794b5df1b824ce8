"""Persistent collectives, and the fixed keys every collective runs on.

:func:`~repro.collectives.api.allreduce_plan` resolves the knobs once;
every run of it, and every collective that is not a plan, runs on the
communicator's context and its one tag block, and a hierarchy's
subgroups are built once per communicator and dimension. Pinned here, on
all four backends:

* after 1 000 blocking steps of three schedules and 200 fused async
  steps, every rank's channel count (the trace's ``(src, dst, context,
  tag)`` counters) and queue table are what they were after 10 steps;
* so they are after 200 calls of each non-plan path: the dense
  allreduces, a barrier / bcast / gather loop, direct schedule calls,
  the callable ``i_collective`` and a chunked direct ``ssar_hier``;
* per-channel FIFO alone keeps successive collectives and launches
  apart: skewed by seeded delays, they give the undelayed bits;
* every result is bit for bit what the unplanned calls returned before
  plans existed (the pinned digests were recorded on that code);
* a rank killed mid-run still surfaces as ``RankFailedError`` at
  ``wait()``;

and on the thread backend: a blocking run waits for an in-flight started
run of its plan, worlds that launch leave no thread behind, and an
``"auto"`` plan re-prices only when the agreed nnz drifts.
"""

import hashlib
import sys
import threading
import time

import numpy as np
import pytest

import repro.collectives.api as api
from repro.collectives import (
    DENSE_ALGORITHMS,
    dense_allreduce,
    dsar_split_allgather,
    sparse_allreduce,
    ssar_hierarchical,
    ssar_recursive_double,
    ssar_ring,
)
from repro.collectives.api import allreduce_plan, cached_plan
from repro.core import GradientFuser
from repro.costmodel import CostModel
from repro.quant import QSGDQuantizer
from repro.runtime import FaultPlan, RankError, RankFailedError, i_collective, run_ranks
from repro.streams import ReduceOp, SparseStream

from conftest import make_rank_stream, reference_sum

BACKENDS = ["thread", "process", "shmem", "socket"]

STEPS, FUSED_STEPS, PROBE = 1000, 200, 10
PROBE_TAG = 1 << 15
DIM = 1024

#: the runs' digests, recorded on the unplanned calls they replace
PINNED = {
    "ssar_rec_dbl": "22ca4789b62240c6",
    "ssar_hier": "22ca4789b62240c6",  # bit-identical to rec_dbl on 2x2
    "dsar_split_ag": "649c54154587ef6a",
    "fused": "b02f56c7c890a9e3",
}


def _keys(comm):
    """This rank's channel count and queued keys, read between two barriers
    (only the second barrier's messages may arrive meanwhile)."""
    comm.barrier(tag=PROBE_TAG)
    backend = comm.backend
    channels = sum(1 for key in list(backend.trace._seq) if key[0] == backend.rank)
    queued = sum(1 for key in list(backend._queues) if not PROBE_TAG + 8 <= key[2] < PROBE_TAG + 16)
    comm.barrier(tag=PROBE_TAG + 8)
    return channels, queued


def _contract_prog(comm):
    _keys(comm)  # the probe's own channels exist from here on
    digests, keys = {}, {}
    quantizer = QSGDQuantizer(bits=8, bucket_size=64, seed=11)
    for algorithm, nnz, q in (
        ("ssar_rec_dbl", 32, None), ("ssar_hier", 32, None), ("dsar_split_ag", 200, quantizer)
    ):
        streams = [
            SparseStream.random_uniform(DIM, nnz, np.random.default_rng(100 * j + comm.rank))
            for j in range(3)
        ]
        digest = hashlib.blake2b(digest_size=8)
        for step in range(STEPS):
            out = sparse_allreduce(comm, streams[step % 3], algorithm, quantizer=q)
            digest.update(out.to_dense().tobytes())
            if step + 1 in (PROBE, STEPS):
                keys[algorithm, step + 1] = _keys(comm)
        digests[algorithm] = digest.hexdigest()
    fuser = GradientFuser([(f"t{i}", 64) for i in range(8)], min_bucket_bytes=0)
    efs = fuser.make_error_feedback(k=4, bucket_size=32)
    digest = hashlib.blake2b(digest_size=8)
    for step in range(FUSED_STEPS):
        grad = np.random.default_rng(1000 * step + comm.rank).standard_normal(512)
        out = fuser.i_fused_allreduce(comm, grad, efs, chunks="auto").wait()
        digest.update(out.tobytes())
        if step + 1 in (PROBE, FUSED_STEPS):
            keys["fused", step + 1] = _keys(comm)
    digests["fused"] = digest.hexdigest()
    return digests, keys


@pytest.mark.parametrize("backend", BACKENDS)
def test_channels_and_queues_are_fixed_by_plans(backend):
    out = run_ranks(_contract_prog, 4, backend=backend, topology="2x2", timeout=120.0)
    for rank, (digests, keys) in enumerate(out.results):
        assert digests == PINNED, rank
        for name, steps in (*((a, STEPS) for a in PINNED if a != "fused"), ("fused", FUSED_STEPS)):
            assert keys[name, PROBE] == keys[name, steps], (rank, name)
            assert keys[name, steps][1] == 0  # nothing left queued


CALLS = 200


def _paths(comm):
    """One call of each collective path that is not a plan."""
    vec = np.random.default_rng(comm.rank).standard_normal(64)
    stream = make_rank_stream(DIM, 16, comm.rank)
    return {
        "dense_allreduce": lambda: [dense_allreduce(comm, vec, name) for name in DENSE_ALGORITHMS],
        "barrier_bcast_gather": lambda: (
            comm.barrier(), comm.bcast(comm.rank, root=1), comm.gather_to_root(comm.rank, root=2)
        ),
        "direct_schedules": lambda: (
            ssar_recursive_double(comm, stream), dsar_split_allgather(comm, stream)
        ),
        "callable_i_collective": lambda: i_collective(comm, dense_allreduce, vec).wait(),
        "direct_ssar_hier": lambda: ssar_hierarchical(comm, stream, chunks=2),
    }


def _flat_prog(comm):
    _keys(comm)
    keys = {}
    for name, call in _paths(comm).items():
        for i in range(CALLS):
            call()
            if i + 1 in (PROBE, CALLS):
                keys[name, i + 1] = _keys(comm)
    return keys


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_collective_keeps_its_channels(backend):
    """A collective that is not a plan opens no channel after its first
    calls: the channel count and queue table at call 200 are those at
    call 10, on each path."""
    out = run_ranks(_flat_prog, 4, backend=backend, topology="2x2", timeout=120.0)
    for rank, keys in enumerate(out.results):
        for name in {name for name, _ in keys}:
            assert keys[name, PROBE] == keys[name, CALLS], (rank, name)
            assert keys[name, CALLS][1] == 0, (rank, name)  # nothing left queued


def _back_to_back_prog(comm, rounds):
    """Four collectives back to back on one communicator, with a callable
    launch and a plan's start queued between them; the digest of every
    result."""
    plan = allreduce_plan(comm, DIM, np.float32, "ssar_rec_dbl")
    vec = np.random.default_rng(comm.rank).standard_normal(64)
    digest = hashlib.blake2b(digest_size=8)
    for i in range(rounds):
        stream = make_rank_stream(DIM, 24, comm.rank, base_seed=i)
        outs = [ssar_recursive_double(comm, stream).to_dense()]
        launched = i_collective(comm, dense_allreduce, vec + i, "dense_ring")
        outs.append(dense_allreduce(comm, vec * i))
        started = plan.start(make_rank_stream(DIM, 24, comm.rank, base_seed=100 + i))
        comm.barrier()
        outs.append(ssar_ring(comm, stream).to_dense())
        outs += [launched.wait(), started.wait().to_dense()]
        for out in outs:
            digest.update(out.tobytes())
    return digest.hexdigest(), len(comm.backend._queues)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fifo_alone_keeps_successive_collectives_apart(backend):
    """Seeded delays skew the ranks' entry into every collective; the
    results are the undelayed run's bit for bit."""
    plain = run_ranks(_back_to_back_prog, 4, 6, backend=backend, timeout=120.0)
    skewed = run_ranks(
        _back_to_back_prog, 4, 6, backend=backend, timeout=120.0,
        fault_plan=FaultPlan(seed=5, delay_rate=0.3, delay_s=0.002),
    )
    assert skewed.results == plain.results
    assert all(queued == 0 for _, queued in plain.results)


def test_plan_runs_equal_sparse_allreduce_bit_for_bit():
    quantizer = lambda: QSGDQuantizer(bits=8, bucket_size=64, seed=3)  # noqa: E731

    def prog(comm):
        out = []
        for algorithm in api.ALGORITHMS:
            stream = make_rank_stream(DIM, 40, comm.rank)
            q = quantizer() if algorithm.startswith("dsar") else None
            want = sparse_allreduce(comm, stream, algorithm, quantizer=q).to_dense()
            plan = allreduce_plan(comm, DIM, np.float32, algorithm)
            q = quantizer() if q is not None else None
            blocking = plan(stream, q).to_dense()
            q = quantizer() if q is not None else None
            started = plan.start(stream, q).wait().to_dense()
            out.append(want.tobytes() == blocking.tobytes() == started.tobytes())
        return out

    out = run_ranks(prog, 4, topology="2x2")
    assert all(all(row) for row in out.results)


def test_bad_knobs_raise_when_planning_and_shapes_when_running():
    def prog(comm):
        with pytest.raises(ValueError, match="unknown algorithm"):
            allreduce_plan(comm, DIM, np.float32, "nope")
        with pytest.raises(ValueError, match="chunks"):
            allreduce_plan(comm, DIM, np.float32, "ssar_hier", chunks=0)
        with pytest.raises(ValueError, match="unknown reduction op"):
            allreduce_plan(comm, DIM, np.float32, op="mean")
        plan = allreduce_plan(comm, DIM, np.float32, "ssar_rec_dbl")
        with pytest.raises(ValueError, match="plan for 1024"):
            plan(make_rank_stream(DIM // 2, 8, comm.rank))
        return True

    assert all(run_ranks(prog, 2).results)


def test_a_communicator_caches_one_plan_per_key():
    def prog(comm):
        stream = make_rank_stream(DIM, 16, comm.rank)
        first = cached_plan(comm, stream, "ssar_rec_dbl")
        sparse_allreduce(comm, stream, "ssar_rec_dbl")
        i_collective(comm, stream, "ssar_rec_dbl").wait()
        return first is cached_plan(comm, stream, "ssar_rec_dbl"), len(comm._plans)

    assert run_ranks(prog, 2).results == [(True, 1)] * 2


def test_ops_that_share_a_name_get_their_own_plans():
    """The plan key holds the op itself, not its name: two ops called
    alike with different ufuncs plan and reduce apart."""
    added, larger = ReduceOp("mine", np.add, 0.0), ReduceOp("mine", np.maximum, 0.0)

    def prog(comm):
        # the same support on both ranks: every index is combined
        stream = SparseStream(DIM, indices=np.arange(0, DIM, 8), values=np.full(DIM // 8, 1.0 + comm.rank))
        summed = sparse_allreduce(comm, stream, "ssar_rec_dbl", op=added).to_dense()
        largest = sparse_allreduce(comm, stream, "ssar_rec_dbl", op=larger).to_dense()
        ops = [plan.op for plan in api.cached_plans(comm)]
        return ops == [added, larger] and ops[0] is added and ops[1] is larger, summed, largest

    for same_plans, summed, largest in run_ranks(prog, 2).results:
        assert same_plans
        assert np.all(summed[::8] == 3.0) and np.all(largest[::8] == 2.0)


def test_blocking_run_waits_for_the_plans_started_run(monkeypatch):
    """The started run is slowed down on its progress thread; the blocking
    run of the same plan must not begin before it ended, on every rank."""
    real = api.ALGORITHMS["ssar_rec_dbl"]
    log: list = []

    def traced(comm, stream, **kwargs):
        started = threading.current_thread().name.startswith("icoll")
        log.append((comm.world_rank, "begin", started))
        if started:
            time.sleep(0.2)
        out = real(comm, stream, **kwargs)
        log.append((comm.world_rank, "end", started))
        return out

    monkeypatch.setitem(api.ALGORITHMS, "ssar_rec_dbl", traced)

    def prog(comm):
        plan = allreduce_plan(comm, DIM, np.float32, "ssar_rec_dbl")
        handle = plan.start(make_rank_stream(DIM, 16, comm.rank, base_seed=1))
        blocking = plan(make_rank_stream(DIM, 16, comm.rank, base_seed=2))
        return handle.wait().to_dense(), blocking.to_dense()

    out = run_ranks(prog, 4)
    for rank in range(4):
        mine = [(what, started) for r, what, started in log if r == rank]
        assert mine == [("begin", True), ("end", True), ("begin", False), ("end", False)]
        assert np.allclose(out[rank][0], reference_sum(DIM, 16, 4, base_seed=1), atol=1e-5)
        assert np.allclose(out[rank][1], reference_sum(DIM, 16, 4, base_seed=2), atol=1e-5)


def _launching_prog(comm):
    stream = make_rank_stream(256, 8, comm.rank)
    handles = [i_collective(comm, stream, "ssar_rec_dbl") for _ in range(3)]
    nested = i_collective(comm, lambda c: i_collective(c, stream, "ssar_ring").wait())
    return [h.wait().nnz for h in handles], nested.wait().nnz


def test_worlds_that_launch_leave_no_thread():
    # compare sets, not counts: threads of earlier tests may exit meanwhile
    before = set(threading.enumerate())
    for _ in range(50):
        run_ranks(_launching_prog, 2)
    assert set(threading.enumerate()) <= before


def _killed_prog(comm):
    plan = allreduce_plan(comm, DIM, np.float32, "ssar_rec_dbl")
    stream = make_rank_stream(DIM, 16, comm.rank)
    try:
        for _ in range(50):
            plan.start(stream).wait()
        return "ok"
    except RankFailedError as exc:
        return ("failed", exc.rank)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_killed_rank_surfaces_at_wait(backend):
    victim = 2
    with pytest.raises(RankError) as err:
        run_ranks(
            _killed_prog, 3, backend=backend, timeout=60.0,
            fault_plan=FaultPlan(kill_rank=victim, kill_after_ops=15),
        )
    survivors = [v for r, v in enumerate(err.value.partial_results) if r != victim]
    assert survivors == [("failed", victim)] * 2


def test_auto_plan_reprices_only_when_the_agreed_nnz_drifts(monkeypatch):
    priced = []
    real = CostModel.auto_chunks

    def counting(self, *args, **kwargs):
        priced.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(CostModel, "auto_chunks", counting)

    def prog(comm):
        for nnz in (100, 110, 90, 124, 200, 210):  # drifts past 25 % once, at 200
            sparse_allreduce(comm, make_rank_stream(4096, nnz, comm.rank), chunks="auto")
        return None

    run_ranks(prog, 4, topology="2x2")
    assert len(priced) == 2 * 4  # the first run and the drift, on each rank


def _switching_prog(comm, rounds):
    def stream(i):
        indices = np.array([comm.rank, 32 + i % 32], np.uint32)
        return SparseStream(64, indices=indices, values=np.array([1.0, float(i)]), value_dtype=np.float64)

    started = allreduce_plan(comm, 64, np.float64, "ssar_rec_dbl")
    blocking = allreduce_plan(comm, 64, np.float64, "ssar_ring")
    handles = [started.start(stream(i)) for i in range(rounds)]
    inline = [blocking(stream(i)).to_dense() for i in range(rounds)]
    return inline, [h.wait().to_dense() for h in handles], len(comm._queues)


def test_starts_beside_blocking_runs_under_a_short_switch_interval():
    """Eight ranks on two cores: one plan's starts queue on each rank's
    progress thread while the rank thread runs another plan blocking, the
    interpreter switching threads every microsecond. Every sum is exact,
    in launch order, and every queue table drains."""
    rounds, size = 40, 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = run_ranks(_switching_prog, size, rounds, timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    want = []
    for i in range(rounds):
        dense = np.zeros(64)
        dense[:size] = 1.0
        dense[32 + i % 32] = size * float(i)
        want.append(dense)
    for inline, started, queued in out.results:
        assert all(np.array_equal(a, b) for a, b in zip(inline, want))
        assert all(np.array_equal(a, b) for a, b in zip(started, want))
        assert queued == 0
