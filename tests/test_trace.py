"""Direct coverage for :mod:`repro.runtime.trace`.

The trace is the contract between execution and the netsim replay; these
tests pin its event accounting down at the unit level, including the exact
event inventory of one SSAR call, the row log's export -> pickle -> merge
round trip, and readers racing writers.
"""

import gc
import pickle
import random
import sys
import threading
from collections.abc import Sequence

import numpy as np
import pytest

from repro.collectives import allreduce_recursive_doubling, ssar_recursive_double, ssar_split_allgather
from repro.runtime import COMPUTE, MARK, RECV, SEND, Trace, TraceEvent, i_collective, run_ranks
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

    def test_disabled_trace_records_nothing(self):
        t = Trace(2)
        t.enabled = False
        t.record_send(0, 1, 0, 0, 100)
        assert t.total_messages == 0

    def test_clear_resets_events_and_seqs(self):
        t = Trace(2)
        t.next_seq(0, 1, 0)
        t.record_send(0, 1, 0, 0, 10)
        t.clear()
        assert t.total_messages == 0
        assert t.next_seq(0, 1, 0) == 0

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


def _ship(traces: list, dead=()) -> dict:
    """Every live rank's export, through pickle as a rank process sends it."""
    return {r: pickle.loads(pickle.dumps(t.export(r))) for r, t in enumerate(traces) if r not in dead}


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

    def test_a_second_run_continues_every_channel(self):
        traces = [_rank_log(r) for r in range(3)]
        trace = Trace(3)
        trace.merge_run(_ship(traces))
        trace.merge_run(_ship(traces))
        for r, rank_trace in enumerate(traces):
            first = list(rank_trace.events(r))
            events = list(trace.events(r))
            assert events[: len(first)] == first
            assert events[len(first):] == [
                e._replace(seq=e.seq + ROUNDS) if e.op in (SEND, RECV) else e for e in first
            ]
        for context in NESTED:
            assert trace.next_seq(0, 1, 7, context) == 2 * ROUNDS

    def test_a_dead_ranks_channels_are_sized_from_what_survivors_received(self):
        traces = [_rank_log(r) for r in range(3)]
        trace = Trace(3)
        trace.merge_run(_ship(traces, dead={2}))
        trace.merge_run(_ship(traces, dead={2}))
        for context in NESTED:
            received = [e.seq for e in trace.events(0) if e.op == RECV and e.peer == 2 and e.context == context]
            assert received == list(range(2 * ROUNDS))
            assert trace.next_seq(2, 0, 7, context) == trace.next_seq(2, 1, 7, context) == 2 * ROUNDS
        assert list(trace.events(2)) == []

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
