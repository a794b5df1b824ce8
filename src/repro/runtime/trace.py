"""Per-rank operation traces.

Every communicator records an ordered log of the operations each rank
performs: point-to-point sends and receives (with wire bytes and a FIFO
sequence number for deterministic matching) and local compute work. The
:mod:`repro.netsim` package replays these traces through an alpha-beta/LogP
cost model to obtain the execution times the paper's evaluation reports.

Recording is race-free by construction: each rank appends only to its own
list from its own thread; sequence numbers for (src, dst, context, tag)
channels are allocated under a world-level lock.

Across a process boundary a rank's log travels as *columns*
(:meth:`Trace.export`: one tuple per event field, plus the rank's channel
counters) — a hundred thousand small objects cost ten times more to
pickle, unpickle and rebuild than seven flat sequences. The receiving
trace keeps the columns (:meth:`Trace.merge`) and turns them into
:class:`TraceEvent` objects only when somebody reads that rank's events.
"""

from __future__ import annotations

import threading
from typing import Iterator, NamedTuple

__all__ = ["TraceEvent", "SEND", "RECV", "COMPUTE", "MARK", "Trace"]

SEND = "send"
RECV = "recv"
COMPUTE = "compute"
MARK = "mark"


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


class Trace:
    """Ordered per-rank event logs for one parallel run."""

    def __init__(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self._events: list[list[TraceEvent]] = [[] for _ in range(nranks)]
        #: per rank, merged column blocks not yet turned into events.
        self._columns: list[list[tuple]] = [[] for _ in range(nranks)]
        self._seq_lock = threading.Lock()
        #: ``(src, dst, context, tag) -> next sequence number``
        self._seq: dict[tuple[int, int, tuple, int], int] = {}
        self.enabled = True

    # ------------------------------------------------------------------
    def next_seq(self, src: int, dst: int, tag: int, context: tuple = ()) -> int:
        """Allocate the FIFO sequence number for a (src, dst, context, tag) channel."""
        key = (src, dst, context, tag)
        with self._seq_lock:
            seq = self._seq.get(key, 0)
            self._seq[key] = seq + 1
        return seq

    def reserve_seqs(self, src: int, dst: int, tag: int, count: int, context: tuple = ()) -> int:
        """Reserve ``count`` consecutive sequence numbers on a channel.

        Used when merging events recorded off-trace (e.g. shipped back from
        a worker process) into a trace that may already hold traffic on the
        same channel: the merged events are rebased onto the returned start
        so FIFO matching stays unambiguous.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        key = (src, dst, context, tag)
        with self._seq_lock:
            start = self._seq.get(key, 0)
            self._seq[key] = start + count
        return start

    def record(self, event: TraceEvent) -> None:
        """Append an event to its rank's log (no-op when disabled)."""
        if self.enabled:
            self.events(event.rank).append(event)

    def record_send(self, rank: int, peer: int, tag: int, seq: int, nbytes: int, context: tuple = ()) -> None:
        self.record(TraceEvent(SEND, rank, peer, tag, seq, nbytes, "", context))

    def record_recv(self, rank: int, peer: int, tag: int, seq: int, nbytes: int, context: tuple = ()) -> None:
        self.record(TraceEvent(RECV, rank, peer, tag, seq, nbytes, "", context))

    def record_compute(self, rank: int, nbytes: int, label: str = "") -> None:
        self.record(TraceEvent(COMPUTE, rank, nbytes=nbytes, label=label))

    def record_mark(self, rank: int, label: str) -> None:
        """A zero-cost phase marker (used to slice timings per phase)."""
        self.record(TraceEvent(MARK, rank, label=label))

    # ------------------------------------------------------------------
    def events(self, rank: int) -> list[TraceEvent]:
        """The ordered event list of one rank."""
        pending = self._columns[rank]
        if pending:
            for columns in pending:
                self._events[rank].extend(map(TraceEvent._make, zip(*columns)))
            pending.clear()
        return self._events[rank]

    def __iter__(self) -> Iterator[list[TraceEvent]]:
        return iter([self.events(rank) for rank in range(self.nranks)])

    def export(self, rank: int) -> tuple[tuple, dict[tuple[int, int, tuple, int], int]]:
        """One rank's log for shipping: ``(columns, channel counters)``.

        ``columns`` holds one tuple per :class:`TraceEvent` field (empty
        when nothing was recorded); the counters say how many sequence
        numbers this trace allocated per (src, dst, context, tag) channel
        — in a rank process, exactly the channels that rank sends on.
        """
        with self._seq_lock:
            return tuple(zip(*self.events(rank))), dict(self._seq)

    def merge(self, rank: int, columns: tuple) -> None:
        """Append exported ``columns`` to ``rank``'s log (no-op when disabled)."""
        if self.enabled and columns:
            self._columns[rank].append(columns)

    def clear(self) -> None:
        """Drop all recorded events and sequence counters."""
        for lst in self._events + self._columns:
            lst.clear()
        with self._seq_lock:
            self._seq.clear()

    # ------------------------------------------------------------------
    @property
    def total_bytes_sent(self) -> int:
        """Sum of wire bytes over all send events (all ranks)."""
        return sum(e.nbytes for lst in self for e in lst if e.op == SEND)

    @property
    def total_messages(self) -> int:
        """Number of point-to-point messages sent."""
        return sum(1 for lst in self for e in lst if e.op == SEND)

    def bytes_sent_by(self, rank: int) -> int:
        return sum(e.nbytes for e in self.events(rank) if e.op == SEND)

    def bytes_received_by(self, rank: int) -> int:
        return sum(e.nbytes for e in self.events(rank) if e.op == RECV)

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
