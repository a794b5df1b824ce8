"""Direct coverage for :mod:`repro.runtime.trace`.

The trace is the contract between execution and the netsim replay; these
tests pin its event accounting down at the unit level, including the exact
event inventory of one SSAR call, the row log's export -> pickle -> merge
round trip, and readers racing writers. A trace records one run: on all
four backends every message of a run is one SEND and one RECV row and
every channel's seqs are 0 … n-1, and a trace that already holds a run,
or is sized for another world, is refused before any rank starts.
"""

import gc
import pickle
import random
import sys
import threading
from collections import Counter, defaultdict
from collections.abc import Sequence

import numpy as np
import pytest

from repro.collectives import (
    allreduce_recursive_doubling,
    dsar_split_allgather,
    ssar_recursive_double,
    ssar_split_allgather,
)
from repro.collectives.api import allreduce_plan
from repro.core import GradientFuser
from repro.runtime import COMPUTE, MARK, RECV, SEND, Trace, TraceEvent, get_backend, i_collective, run_ranks
from repro.runtime.context import epoch_slot

from conftest import make_rank_stream


class TestTraceBasics:
    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            Trace(0)

    def test_seq_allocation_is_per_channel(self):
        t = Trace(2)
        assert t.next_seq(0, 1, 5) == 0
        assert t.next_seq(0, 1, 5) == 1
        assert t.next_seq(1, 0, 5) == 0  # direction is part of the channel
        assert t.next_seq(0, 1, 6) == 0  # so is the tag

    def test_byte_accounting(self):
        t = Trace(3)
        t.record_send(0, 1, 0, 0, 100)
        t.record_send(0, 2, 0, 0, 50)
        t.record_recv(1, 0, 0, 0, 100)
        t.record_recv(2, 0, 0, 0, 50)
        t.record_compute(1, 999)
        assert t.total_bytes_sent == 150
        assert t.total_messages == 2
        assert t.bytes_sent_by(0) == 150
        assert t.bytes_received_by(1) == 100
        assert t.max_bytes_received() == 100
        assert t.summary() == {
            "ranks": 3,
            "messages": 2,
            "bytes_sent": 150,
            "max_rank_recv_bytes": 100,
        }

    def test_events_are_per_rank_and_ordered(self):
        t = Trace(2)
        t.record_mark(0, "a")
        t.record_compute(0, 5, "b")
        t.record_mark(1, "c")
        assert [e.label for e in t.events(0)] == ["a", "b"]
        assert [e.label for e in t.events(1)] == ["c"]
        assert [len(lst) for lst in t] == [2, 1]


class TestSSARTraceInventory:
    """Exact event counts of one SSAR call at P = 4 (power of two)."""

    P, DIM, NNZ = 4, 4096, 64

    def _events(self, algo):
        out = run_ranks(
            lambda comm: algo(comm, make_rank_stream(self.DIM, self.NNZ, comm.rank)), self.P
        )
        return out.trace

    def test_rec_dbl_message_count(self):
        """Recursive doubling: log2(P) exchange rounds, 2 sends per rank pair
        per round => P * log2(P) messages in total."""
        trace = self._events(ssar_recursive_double)
        assert trace.total_messages == self.P * 2  # P * log2(4)

    def test_rec_dbl_per_rank_event_shape(self):
        trace = self._events(ssar_recursive_double)
        for r in range(self.P):
            events = trace.events(r)
            sends = [e for e in events if e.op == SEND]
            recvs = [e for e in events if e.op == RECV]
            assert len(sends) == 2  # one per round
            assert len(recvs) == 2
            computes = [e for e in events if e.op == COMPUTE]
            assert len(computes) >= 2  # one summation per round
            assert all(e.nbytes > 0 for e in sends + recvs)

    def test_split_allgather_has_phase_marks(self):
        trace = self._events(ssar_split_allgather)
        labels = {e.label for e in trace.events(0) if e.op == MARK}
        assert labels  # the algorithm annotates its phases
        # every rank sends something in both the split and allgather phases
        for r in range(self.P):
            assert any(e.op == SEND for e in trace.events(r))

    def test_sends_and_recvs_pair_off_globally(self):
        trace = self._events(ssar_recursive_double)
        sends = {}
        recvs = {}
        for r in range(self.P):
            for e in trace.events(r):
                if e.op == SEND:
                    sends[(e.rank, e.peer, e.tag, e.seq)] = e.nbytes
                elif e.op == RECV:
                    recvs[(e.peer, e.rank, e.tag, e.seq)] = e.nbytes
        assert sends == recvs  # same channels, same sizes, nothing dangling

    def test_event_objects_are_frozen(self):
        ev = TraceEvent(SEND, 0, 1, 0, 0, 10)
        with pytest.raises(AttributeError):
            ev.nbytes = 20


# ----------------------------------------------------------------------
# the log is rows: recording, the view, shipping
# ----------------------------------------------------------------------
#: the backend, the epoch-1 world, a split (slot 3) in it, a launch (slot 0) in that
NESTED = ((), (epoch_slot(1),), (epoch_slot(1), 3), (epoch_slot(1), 3, 0))
ROUNDS = 4


def _rank_log(rank: int, nranks: int = 3) -> Trace:
    """What one rank process records: every op kind, labels, and traffic on
    every context of NESTED, ``ROUNDS`` messages per channel."""
    trace = Trace(nranks)
    peers = [p for p in range(nranks) if p != rank]
    for i in range(ROUNDS):
        trace.record_mark(rank, f"round{i}")
        for context in NESTED:
            for peer in peers:
                trace.record_send(rank, peer, 7, trace.next_seq(rank, peer, 7, context), 100 + rank, context)
            for peer in peers:
                trace.record_recv(rank, peer, 7, i, 100 + peer, context)
        trace.record_compute(rank, 1000 * (i + 1), "reduce")
    return trace


def _ship(traces: list) -> dict:
    """Every rank's export, through pickle as a rank process sends it."""
    return {r: pickle.loads(pickle.dumps(t.export(r))) for r, t in enumerate(traces)}


class TestEventRows:
    def test_recording_adds_no_tracked_object_per_event(self):
        trace = Trace(2)
        context = NESTED[-1]
        trace.record_send(0, 1, 7, 0, 100, context)  # the tables hold what follows
        trace.record_compute(0, 5, "reduce")
        trace.record_mark(0, "step")
        gc.collect()
        before = len(gc.get_objects())
        for i in range(2500):
            trace.record_send(0, 1, 65536 + i, i, 1032 + i, context)
            trace.record_recv(0, 1, 65536 + i, i, 1032 + i, context)
            trace.record_compute(0, 4096 + i, "reduce")
            trace.record_mark(0, "step")
        gc.collect()
        assert len(gc.get_objects()) - before < 100
        assert len(trace.events(0)) == 10_003

    def test_events_is_a_read_only_live_view_built_on_access(self):
        trace = Trace(1)
        written = []
        for i in range(5000):  # more events than one step of an iteration builds
            if i % 2:
                trace.record_send(0, 3, i, i // 2, 8 * i, (i % 5,))
                written.append(TraceEvent(SEND, 0, 3, i, i // 2, 8 * i, "", (i % 5,)))
            else:
                trace.record_compute(0, i, f"l{i % 9}")
                written.append(TraceEvent(COMPUTE, 0, nbytes=i, label=f"l{i % 9}"))
        view = trace.events(0)
        assert isinstance(view, Sequence) and len(view) == 5000
        assert list(view) == written
        assert view[0] == written[0] and view[-1] == written[-1] and view[-5000] == written[0]
        assert view[10:20] == written[10:20] and view[4990:6000] == written[4990:]
        assert view[::-7] == written[::-7] and view[20:10] == []
        with pytest.raises(IndexError):
            view[5000]
        with pytest.raises(TypeError):
            view[0] = written[0]
        assert view[0] is not view[0]  # nothing is kept
        trace.record_mark(0, "late")
        assert len(view) == 5001 and view[-1] == TraceEvent(MARK, 0, label="late")

    def test_an_iteration_sees_what_is_appended_while_it_runs(self):
        trace = Trace(1)
        trace.record_mark(0, "first")
        events = iter(trace.events(0))
        assert next(events) == TraceEvent(MARK, 0, label="first")
        for i in range(5000):  # past the rows one step of the iteration copied
            trace.record_compute(0, i)
        assert [e.nbytes for e in events] == list(range(5000))

    def test_byte_counters_sum_the_rows_from_a_cursor(self):
        trace = _rank_log(0)
        events = list(trace.events(0))
        for since in (0, 1, 17, len(events) - 1, len(events)):
            assert trace.bytes_sent_by(0, since=since) == sum(
                e.nbytes for e in events[since:] if e.op == SEND
            )
        assert trace.bytes_received_by(0) == sum(e.nbytes for e in events if e.op == RECV)


class TestShipping:
    """export -> pickle -> merge_run, as every process-family rank ships home."""

    def test_round_trip_reproduces_every_event(self):
        traces = [_rank_log(r) for r in range(3)]
        merged = Trace(3)
        merged.merge_run(_ship(traces))
        for r, trace in enumerate(traces):
            shipped = list(merged.events(r))
            assert shipped == list(trace.events(r))
            assert all(type(e) is TraceEvent and type(e.seq) is int for e in shipped)
            assert {e.op for e in shipped} == {SEND, RECV, COMPUTE, MARK}
            assert {e.context for e in shipped} == set(NESTED)
            assert {e.label for e in shipped} == {"", "reduce"} | {f"round{i}" for i in range(ROUNDS)}
        assert merged.summary() == {
            "ranks": 3, "messages": 3 * 2 * len(NESTED) * ROUNDS,
            "bytes_sent": sum(t.bytes_sent_by(r) for r, t in enumerate(traces)),
            "max_rank_recv_bytes": max(t.bytes_received_by(r) for r, t in enumerate(traces)),
        }

    @pytest.mark.parametrize("backend", ["process", "socket"])
    def test_a_shipped_run_equals_the_thread_backends_recording(self, backend):
        """A launch inside a split inside an epoch world: the rows a rank
        process ships home are the events the thread backend records."""

        def prog(comm):
            comm.mark("start")
            world = comm.shrink()
            sub = world.split(world.rank % 2)

            def inner(c):
                c.compute(64, "inner")
                return allreduce_recursive_doubling(c, np.ones(4))

            i_collective(sub, inner).wait()
            comm.compute(128, "tail")

        thread, shipped = (run_ranks(prog, 4, backend=b).trace for b in ("thread", backend))
        for r in range(4):
            assert list(shipped.events(r)) == list(thread.events(r))
        assert (epoch_slot(1), 0, 0) in {e.context for e in shipped.events(0)}


# ----------------------------------------------------------------------
# a trace records one run
# ----------------------------------------------------------------------
BACKENDS = ["thread", "process", "shmem", "socket"]


def _one_of_each(comm):
    """Blocking SSAR and DSAR, a started plan and one fused asynchronous step."""
    stream = make_rank_stream(512, 24, comm.rank)
    ssar_recursive_double(comm, stream)
    ssar_split_allgather(comm, stream)
    dsar_split_allgather(comm, stream)
    allreduce_plan(comm, 512, np.float32, "ssar_rec_dbl").start(stream).wait()
    fuser = GradientFuser([("a", 96), ("b", 96), ("c", 64)], min_bucket_bytes=0)
    grad = np.random.default_rng(400 + comm.rank).standard_normal(256).astype(np.float32)
    efs = fuser.make_error_feedback(k=8, bucket_size=32)
    fuser.i_fused_allreduce(comm, grad, efs, algorithm="auto", chunks=2).wait()


def _messages(trace: Trace, op: str) -> Counter:
    """``(src, dst, context, tag, seq, nbytes)`` of every ``op`` row, counted."""
    rows: Counter = Counter()
    for rank, events in enumerate(trace):
        for e in events:
            if e.op == op:
                src, dst = (rank, e.peer) if op == SEND else (e.peer, rank)
                rows[src, dst, e.context, e.tag, e.seq, e.nbytes] += 1
    return rows


def _touch(comm, directory):
    (directory / f"rank{comm.rank}").touch()


def _used_trace(nranks: int) -> Trace:
    return run_ranks(lambda comm: comm.barrier(), nranks).trace


class TestOneRunOneTrace:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_message_is_one_send_and_one_recv_row(self, backend):
        trace = run_ranks(_one_of_each, 4, backend=backend, topology="2x2", timeout=120.0).trace
        sends = _messages(trace, SEND)
        assert sends and set(sends.values()) == {1}
        assert sends == _messages(trace, RECV)
        channels = defaultdict(list)
        for src, dst, context, tag, seq, _ in sends:
            channels[src, dst, context, tag].append(seq)
        assert {context for _, _, context, _ in channels} > {()}  # plans, launches, host groups
        for channel, seqs in channels.items():
            assert sorted(seqs) == list(range(len(seqs))), channel

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "trace", [lambda: _used_trace(2), lambda: Trace(3)], ids=["holds-a-run", "three-ranks"]
    )
    def test_a_used_or_missized_trace_is_refused_before_any_rank_starts(self, backend, trace, tmp_path):
        with pytest.raises(ValueError, match="trace"):
            run_ranks(_touch, 2, tmp_path, backend=backend, trace=trace())
        with pytest.raises(ValueError, match="trace"):
            get_backend(backend).run(_touch, 2, tmp_path, trace=trace())
        assert list(tmp_path.iterdir()) == []
        run_ranks(_touch, 2, tmp_path, backend=backend, trace=Trace(2))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rank0", "rank1"]


SENDS = 400


def _two_threads_per_channel_prog(comm):
    """Rank 0 sends on one channel from two threads at once (its rank
    thread and a helper), and on its launch context from its progress
    thread meanwhile; rank 1 receives them all."""
    if comm.rank == 0:
        launched = i_collective(comm, lambda c: [c.send(i, 1, tag=3) for i in range(SENDS)])
        helper = threading.Thread(target=lambda: [comm.send(i, 1, tag=3) for i in range(SENDS)])
        helper.start()
        for i in range(SENDS):
            comm.send(i, 1, tag=3)
        helper.join(timeout=60.0)
        assert not helper.is_alive()
    else:
        launched = i_collective(comm, lambda c: [c.recv(0, tag=3) for _ in range(SENDS)])
        for _ in range(2 * SENDS):
            comm.recv(0, tag=3)
    launched.wait()


class TestSequenceNumbers:
    """A channel's sequence numbers come from its own counter, with no
    lock: they stay unique and dense however the senders interleave."""

    def test_threads_hammering_one_channel(self):
        """More threads than cores draw from one channel at once."""
        trace, got = Trace(2), [[] for _ in range(4)]
        before = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            threads = [
                threading.Thread(target=lambda out=out: out.extend(
                    trace.next_seq(0, 1, 5, (2,)) for _ in range(10_000)
                ))
                for out in got
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(before)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(sum(got, [])) == list(range(40_000))
        assert all(all(a < b for a, b in zip(out, out[1:])) for out in got)  # each thread's in its order
        assert trace.next_seq(0, 1, 5, (2,)) == 40_000

    @pytest.mark.parametrize("backend", ["thread", "socket"])
    def test_a_rank_thread_a_helper_and_a_progress_thread_send_at_once(self, backend):
        trace = run_ranks(_two_threads_per_channel_prog, 2, backend=backend).trace
        for rank, op in ((0, SEND), (1, RECV)):
            seqs: dict = {}
            for e in trace.events(rank):
                if e.op == op and e.tag == 3:
                    seqs.setdefault(e.context, []).append(e.seq)
            assert sorted(seqs[()]) == list(range(2 * SENDS)), (rank, op)
            (launch,) = set(seqs) - {()}
            assert seqs[launch] == list(range(SENDS)), (rank, op)  # one thread: in order too


class TestConcurrentReaders:
    """Writers append rows (adding labels and contexts) while readers slice
    the views and sum the byte column, the interpreter switching threads
    every microsecond: every read is a run of written events, in order."""

    PER_WRITER = 15_000

    @staticmethod
    def _event(rank: int, writer: int, i: int) -> TraceEvent:
        """The ``i``-th event ``writer`` records; its fields say who wrote it."""
        if i % 3 == 0:
            return TraceEvent(SEND, rank, writer, i % 7, i, 10 * i + writer, "", (writer, i // 3 % 40))
        if i % 3 == 1:
            return TraceEvent(COMPUTE, rank, nbytes=1_000_000 * writer + i, label=f"c{i % 50}")
        return TraceEvent(MARK, rank, label=f"m{writer}.{i}")

    @staticmethod
    def _who(e: TraceEvent) -> tuple[int, int]:
        if e.op == SEND:
            return e.peer, e.seq
        if e.op == COMPUTE:
            return divmod(e.nbytes, 1_000_000)
        writer, i = e.label[1:].split(".")
        return int(writer), int(i)

    def _check(self, rank: int, events: list) -> None:
        last: dict[int, int] = {}
        for e in events:
            writer, i = self._who(e)
            assert e == self._event(rank, writer, i)
            assert i == last.get(writer, i - 1) + 1  # nothing lost or repeated in between
            last[writer] = i

    def test_readers_see_whole_rows_in_order(self):
        trace = Trace(2)
        writers_of = {0: (0, 1), 1: (2, 3)}
        errors: list[BaseException] = []
        readings: list[tuple] = []
        done = threading.Event()

        def write(rank, writer):
            try:
                for i in range(self.PER_WRITER):
                    e = self._event(rank, writer, i)
                    if e.op == SEND:
                        trace.record_send(rank, e.peer, e.tag, e.seq, e.nbytes, e.context)
                    elif e.op == COMPUTE:
                        trace.record_compute(rank, e.nbytes, e.label)
                    else:
                        trace.record_mark(rank, e.label)
            except BaseException as exc:  # noqa: BLE001 - reported by the test thread
                errors.append(exc)

        def read(rank, seed):
            rng, view = random.Random(seed), trace.events(rank)
            try:
                while True:
                    finished = done.is_set()
                    start = rng.randrange(len(view) + 1)
                    self._check(rank, view[start: start + rng.randrange(300)])
                    if rng.random() < 0.02 or finished:
                        self._check(rank, list(view))
                    since = rng.randrange(len(view) + 1)
                    before = len(view)
                    readings.append((rank, since, before, trace.bytes_sent_by(rank, since=since), len(view)))
                    if finished:
                        return
            except BaseException as exc:  # noqa: BLE001 - reported by the test thread
                errors.append(exc)

        writers = [threading.Thread(target=write, args=(r, w)) for r, ws in writers_of.items() for w in ws]
        readers = [threading.Thread(target=read, args=(r, 10 * r + k)) for r in (0, 1) for k in (0, 1)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in writers + readers:
                t.start()
            for t in writers:
                t.join(timeout=60)
            done.set()
            for t in readers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in writers + readers)
        assert not errors, errors[0]
        for rank, writer_ids in writers_of.items():
            events = list(trace.events(rank))
            assert len(events) == 2 * self.PER_WRITER
            self._check(rank, events)
            assert {self._who(e)[0] for e in events} == set(writer_ids)
        prefix = {r: np.cumsum([0] + [e.nbytes if e.op == SEND else 0 for e in trace.events(r)]) for r in (0, 1)}
        for rank, since, before, got, after in readings:
            # a sum covers whole rows: those from ``since`` to some length it saw
            assert got in {int(prefix[rank][m] - prefix[rank][since]) for m in range(before, after + 1)}
        assert len(readings) >= 4
