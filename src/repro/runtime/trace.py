"""Per-rank operation traces.

Every communicator records an ordered log of the operations each rank
performs: point-to-point sends and receives (with wire bytes and a FIFO
sequence number for deterministic matching) and local compute work. The
:mod:`repro.netsim` package replays these traces through an alpha-beta/LogP
cost model to obtain the execution times the paper's evaluation reports.

**An event is a row, not an object.** A rank's log is one ``array('q')``
of fixed-width rows ``(op, peer, tag, seq, nbytes, label id, context id)``
— 56 bytes an event. Labels and contexts are interned in one small
per-rank table (``names[i]``; ids 0 and 1 are ``""`` and ``()``),
so recording allocates nothing that outlives the call and nothing the
garbage collector tracks. A :class:`TraceEvent` kept per event would be
a GC-tracked object of 139-185 bytes: a ``latency_bound`` rank at 30 000
steps (210 000 events) would hold 29 MB of them instead of 12 MB of rows,
every full collection would walk them all (31 ms instead of 8), and
shipping four such logs home would take ~0.6 s instead of ~25 ms.

:meth:`Trace.events` is a read-only sequence view that builds the
:class:`TraceEvent` s it is asked for (same fields, same values, frozen)
and keeps none of them. The byte counters sum the ``nbytes`` column.
Across a process boundary a rank's log travels as it is
(:meth:`Trace.export`: the row buffer and its table, one pickled
``bytes`` blob and a short list); :meth:`Trace.merge_run` appends a
run's buffers, mapping ids onto the receiving tables. No channel counters
travel: a channel carried its largest seq + 1 messages, which the rows
say, so the receiving trace sizes a run's channels from them — only when
something asks (another run merged into it, :meth:`Trace.next_seq`), and
then ``seq`` is shifted where a channel already had traffic.

Recording is race-free by construction: a row is appended by one call
(so a reader on another thread never sees half of one), each rank appends
only to its own log from its own thread, and sequence numbers for (src,
dst, context, tag) channels and new table entries are allocated under a
world-level lock.
"""

from __future__ import annotations

import threading
from array import array
from collections.abc import Sequence
from itertools import chain, repeat
from typing import Iterator, NamedTuple

import numpy as np

__all__ = ["TraceEvent", "SEND", "RECV", "COMPUTE", "MARK", "Trace"]

SEND = "send"
RECV = "recv"
COMPUTE = "compute"
MARK = "mark"

#: a row's op column indexes this
_OPS = (SEND, RECV, COMPUTE, MARK)
_SEND, _RECV, _COMPUTE, _MARK = range(4)
#: columns of a row: op, peer, tag, seq, nbytes, label id, context id
_WIDTH = 7
#: events built per step of an iteration, so a long log is never held as objects
_CHUNK = 4096


class TraceEvent(NamedTuple):
    """One operation of one rank (immutable).

    ``peer``/``context``/``tag``/``seq`` identify the matching counterpart
    for point to point events (``context`` is the communicator's path,
    :mod:`~repro.runtime.context`; ``()`` for the backend's own traffic);
    ``nbytes`` is the wire size (sends and receives) or the bytes of
    memory touched (compute). ``label`` carries free-form phase names used
    by analyses (e.g. ``"split"`` / ``"allgather"``).
    """

    op: str
    rank: int
    peer: int = -1
    tag: int = -1
    seq: int = -1
    nbytes: int = 0
    label: str = ""
    context: tuple = ()


class _Log:
    """One rank's rows and the table their label and context ids index (a
    label is a ``str`` and a context a ``tuple``: they never collide)."""

    __slots__ = ("rows", "names", "ids")

    def __init__(self) -> None:
        self.rows = array("q")
        self.names: list = ["", ()]
        self.ids: dict = {"": 0, (): 1}


class _EventView(Sequence):
    """Read-only, live view of one rank's log as :class:`TraceEvent` s."""

    __slots__ = ("_trace", "_rank")

    def __init__(self, trace: "Trace", rank: int) -> None:
        self._trace, self._rank = trace, rank

    def __len__(self) -> int:
        return len(self._trace._logs[self._rank].rows) // _WIDTH

    def _build(self, start: int, stop: int) -> Iterator[TraceEvent]:
        log = self._trace._logs[self._rank]
        rows = log.rows[start * _WIDTH: stop * _WIDTH]  # one copy: a writer may append meanwhile
        return map(tuple.__new__, repeat(TraceEvent), zip(
            map(_OPS.__getitem__, rows[0::_WIDTH]), repeat(self._rank),
            rows[1::_WIDTH], rows[2::_WIDTH], rows[3::_WIDTH], rows[4::_WIDTH],
            map(log.names.__getitem__, rows[5::_WIDTH]),
            map(log.names.__getitem__, rows[6::_WIDTH]),
        ))

    def __getitem__(self, index):
        picked = range(len(self))[index]  # raises for an index a list would refuse
        if isinstance(picked, int):
            return next(self._build(picked, picked + 1))
        if picked.step == 1:
            return list(self._build(picked.start, picked.stop))
        return [self[i] for i in picked]

    def __iter__(self) -> Iterator[TraceEvent]:
        return chain.from_iterable(self._chunks())

    def _chunks(self) -> Iterator[Iterator[TraceEvent]]:
        start = 0
        # a writer may append meanwhile: each step builds exactly the rows
        # that existed when it read the length, and the next one goes on from there
        while (stop := min(len(self), start + _CHUNK)) > start:
            yield self._build(start, stop)
            start = stop


def _channel_seqs(rank: int, rows: array, names: list) -> Iterator[tuple["tuple | None", int]]:
    """Per row of ``rank``: its ``(src, dst, context, tag)`` channel (None
    for compute and mark) and its ``seq``."""
    for op, peer, tag, seq, ctx in zip(
        rows[0::_WIDTH], rows[1::_WIDTH], rows[2::_WIDTH], rows[3::_WIDTH], rows[6::_WIDTH]
    ):
        if op == _SEND:
            yield (rank, peer, names[ctx], tag), seq
        elif op == _RECV:
            yield (peer, rank, names[ctx], tag), seq
        else:
            yield None, seq


class Trace:
    """Ordered per-rank event logs for one parallel run."""

    def __init__(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self._logs = [_Log() for _ in range(nranks)]
        #: guards the channel counters and every new table entry
        self._lock = threading.Lock()
        #: ``(src, dst, context, tag) -> next sequence number``
        self._seq: dict[tuple[int, int, tuple, int], int] = {}
        #: rank -> first merged event whose channel ``_seq`` may not count yet
        self._unsized: dict[int, int] = {}
        self.enabled = True

    # ------------------------------------------------------------------
    def _size_merged(self) -> None:
        """Count the channels of merged rows into ``_seq`` (lock held): a
        channel carried at least its largest seq + 1 messages."""
        for rank, start in self._unsized.items():
            log = self._logs[rank]
            for channel, seq in _channel_seqs(rank, log.rows[start * _WIDTH:], log.names):
                if channel is not None and seq >= self._seq.get(channel, 0):
                    self._seq[channel] = seq + 1
        self._unsized.clear()

    def next_seq(self, src: int, dst: int, tag: int, context: tuple = ()) -> int:
        """Allocate the FIFO sequence number for a (src, dst, context, tag) channel."""
        key = (src, dst, context, tag)
        with self._lock:
            if self._unsized:
                self._size_merged()
            seq = self._seq.get(key, 0)
            self._seq[key] = seq + 1
        return seq

    def _intern(self, log: _Log, name) -> int:
        """``name``'s id in ``log``'s table, added if new (the slow path:
        a recorder looks ``log.ids`` up first, without the lock)."""
        with self._lock:
            if name not in log.ids:
                log.names.append(name)  # before the id is published: no row names a missing entry
                log.ids[name] = len(log.names) - 1
            return log.ids[name]

    def _append(self, rank: int, op: int, peer: int, tag: int, seq: int, nbytes: int, label: str, context: tuple) -> None:
        if self.enabled:
            log = self._logs[rank]
            lab = log.ids.get(label)
            if lab is None:
                lab = self._intern(log, label)
            ctx = log.ids.get(context)
            if ctx is None:
                ctx = self._intern(log, context)
            log.rows.fromlist([op, peer, tag, seq, nbytes, lab, ctx])  # one call: never half a row

    def record_send(self, rank: int, peer: int, tag: int, seq: int, nbytes: int, context: tuple = ()) -> None:
        self._append(rank, _SEND, peer, tag, seq, nbytes, "", context)

    def record_recv(self, rank: int, peer: int, tag: int, seq: int, nbytes: int, context: tuple = ()) -> None:
        self._append(rank, _RECV, peer, tag, seq, nbytes, "", context)

    def record_compute(self, rank: int, nbytes: int, label: str = "") -> None:
        self._append(rank, _COMPUTE, -1, -1, -1, nbytes, label, ())

    def record_mark(self, rank: int, label: str) -> None:
        """A zero-cost phase marker (used to slice timings per phase)."""
        self._append(rank, _MARK, -1, -1, -1, 0, label, ())

    # ------------------------------------------------------------------
    def events(self, rank: int) -> Sequence[TraceEvent]:
        """The ordered events of one rank: a read-only view that builds
        each :class:`TraceEvent` on access and keeps none."""
        return _EventView(self, rank)

    def __iter__(self) -> Iterator[Sequence[TraceEvent]]:
        return map(self.events, range(self.nranks))

    def export(self, rank: int) -> tuple[array, list]:
        """One rank's log for shipping, as it is: ``(rows, names)``.

        No channel counters travel: :meth:`merge_run` sizes a run's
        channels from its rows, and only when something asks for them.
        """
        log = self._logs[rank]
        return log.rows, log.names

    def drain(self, rank: int) -> tuple[array, list]:
        """:meth:`export` ``rank``'s log and start its rows afresh, keeping
        the table (a launch's buffer hands each run's rows to the join that
        appends them; the next run's rows reuse the ids)."""
        log = self._logs[rank]
        rows, log.rows = log.rows, array("q")
        return rows, log.names

    def merge(self, rank: int, log: tuple) -> None:
        """Append an exported ``log`` to ``rank``'s, its ids mapped onto this
        trace's table (no-op when disabled). The trace may keep ``log``'s
        row buffer itself: append nothing to it afterwards."""
        rows, names = log
        if not self.enabled or not rows:
            return
        mine = self._logs[rank]
        ids = [mine.ids[name] if name in mine.ids else self._intern(mine, name) for name in names]
        if ids != list(range(len(ids))):
            rows = array("q", rows)
            for column in (5, 6):
                rows[column::_WIDTH] = array("q", map(ids.__getitem__, rows[column::_WIDTH]))
        if mine.rows:
            mine.rows.extend(rows)
        else:
            mine.rows = rows

    def merge_run(self, logs: dict[int, tuple]) -> None:
        """Append the logs one run shipped home (``rank -> log``; a rank that
        died hard shipped none), continuing this trace's channels.

        Workers allocate sequence numbers from zero each run; where this
        trace already counts traffic on a channel, the run's seqs on it are
        shifted past it, so FIFO matching stays unique when several runs
        accumulate into one trace. The run's channels are counted only when
        a later call needs the counters (into a fresh trace, one run, the
        rows go in as shipped): a channel carried its largest seq + 1
        messages, over sends *and* receives, so a dead rank's channels are
        sized from what the survivors received.
        """
        with self._lock:
            self._size_merged()
            bases = dict(self._seq)
        starts = {rank: len(self._logs[rank].rows) // _WIDTH for rank in logs}
        for rank, (rows, names) in logs.items():
            if bases:
                rows = array("q", rows)
                rows[3::_WIDTH] = array("q", (
                    seq + bases.get(channel, 0) for channel, seq in _channel_seqs(rank, rows, names)
                ))
            self.merge(rank, (rows, names))
        with self._lock:
            self._unsized.update(starts)

    def clear(self) -> None:
        """Drop all recorded events and sequence counters."""
        self._logs = [_Log() for _ in range(self.nranks)]
        with self._lock:
            self._seq.clear()
            self._unsized.clear()

    # ------------------------------------------------------------------
    def _op_totals(self, op: int, rank: int, since: int = 0) -> tuple[int, int]:
        """(events, summed nbytes) of ``rank``'s ``op`` rows from event ``since`` on."""
        rows = np.frombuffer(self._logs[rank].rows[since * _WIDTH:], np.int64).reshape(-1, _WIDTH)
        match = rows[:, 0] == op
        return int(np.count_nonzero(match)), int(rows[match, 4].sum())

    @property
    def total_bytes_sent(self) -> int:
        """Sum of wire bytes over all send events (all ranks)."""
        return sum(self._op_totals(_SEND, r)[1] for r in range(self.nranks))

    @property
    def total_messages(self) -> int:
        """Number of point-to-point messages sent."""
        return sum(self._op_totals(_SEND, r)[0] for r in range(self.nranks))

    def bytes_sent_by(self, rank: int, since: int = 0) -> int:
        """Wire bytes ``rank`` sent, over its events from index ``since`` on."""
        return self._op_totals(_SEND, rank, since)[1]

    def bytes_received_by(self, rank: int) -> int:
        return self._op_totals(_RECV, rank)[1]

    def max_bytes_received(self) -> int:
        """Largest per-rank inbound volume (a bandwidth-bottleneck proxy)."""
        return max((self.bytes_received_by(r) for r in range(self.nranks)), default=0)

    def summary(self) -> dict[str, int]:
        """Aggregate message/byte counters for reporting."""
        return {
            "ranks": self.nranks,
            "messages": self.total_messages,
            "bytes_sent": self.total_bytes_sent,
            "max_rank_recv_bytes": self.max_bytes_received(),
        }
