"""Per-rank operation traces.

Every communicator records an ordered log of the operations each rank
performs: point-to-point sends and receives (with wire bytes and a FIFO
sequence number for deterministic matching) and local compute work. The
:mod:`repro.netsim` package replays these traces through an alpha-beta/LogP
cost model to obtain the execution times the paper's evaluation reports.

Recording is race-free by construction: each rank appends only to its own
list from its own thread; sequence numbers for (src, dst, tag) channels are
allocated under a world-level lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator

__all__ = ["TraceEvent", "SEND", "RECV", "COMPUTE", "MARK", "Trace"]

SEND = "send"
RECV = "recv"
COMPUTE = "compute"
MARK = "mark"


@dataclass(frozen=True)
class TraceEvent:
    """One operation of one rank.

    ``peer``/``tag``/``seq`` identify the matching counterpart for point to
    point events; ``nbytes`` is the wire size (sends and receives) or the
    bytes of memory touched (compute). ``label`` carries free-form phase
    names used by analyses (e.g. ``"split"`` / ``"allgather"``).
    """

    op: str
    rank: int
    peer: int = -1
    tag: int = -1
    seq: int = -1
    nbytes: int = 0
    label: str = ""


class Trace:
    """Ordered per-rank event logs for one parallel run."""

    def __init__(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self._events: list[list[TraceEvent]] = [[] for _ in range(nranks)]
        self._seq_lock = threading.Lock()
        self._seq: dict[tuple[int, int, int], int] = {}
        self.enabled = True

    # ------------------------------------------------------------------
    def next_seq(self, src: int, dst: int, tag: int) -> int:
        """Allocate the FIFO sequence number for a (src, dst, tag) channel."""
        key = (src, dst, tag)
        with self._seq_lock:
            seq = self._seq.get(key, 0)
            self._seq[key] = seq + 1
        return seq

    def reserve_seqs(self, src: int, dst: int, tag: int, count: int) -> int:
        """Reserve ``count`` consecutive sequence numbers on a channel.

        Used when merging events recorded off-trace (e.g. shipped back from
        a worker process) into a trace that may already hold traffic on the
        same channel: the merged events are rebased onto the returned start
        so FIFO matching stays unambiguous.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        key = (src, dst, tag)
        with self._seq_lock:
            start = self._seq.get(key, 0)
            self._seq[key] = start + count
        return start

    def record(self, event: TraceEvent) -> None:
        """Append an event to its rank's log (no-op when disabled)."""
        if self.enabled:
            self._events[event.rank].append(event)

    def record_send(self, rank: int, peer: int, tag: int, seq: int, nbytes: int, label: str = "") -> None:
        self.record(TraceEvent(SEND, rank, peer, tag, seq, nbytes, label))

    def record_recv(self, rank: int, peer: int, tag: int, seq: int, nbytes: int, label: str = "") -> None:
        self.record(TraceEvent(RECV, rank, peer, tag, seq, nbytes, label))

    def record_compute(self, rank: int, nbytes: int, label: str = "") -> None:
        self.record(TraceEvent(COMPUTE, rank, nbytes=nbytes, label=label))

    def record_mark(self, rank: int, label: str) -> None:
        """A zero-cost phase marker (used to slice timings per phase)."""
        self.record(TraceEvent(MARK, rank, label=label))

    # ------------------------------------------------------------------
    def events(self, rank: int) -> list[TraceEvent]:
        """The ordered event list of one rank."""
        return self._events[rank]

    def __iter__(self) -> Iterator[list[TraceEvent]]:
        return iter(self._events)

    def clear(self) -> None:
        """Drop all recorded events and sequence counters."""
        for lst in self._events:
            lst.clear()
        with self._seq_lock:
            self._seq.clear()

    # ------------------------------------------------------------------
    @property
    def total_bytes_sent(self) -> int:
        """Sum of wire bytes over all send events (all ranks)."""
        return sum(e.nbytes for lst in self._events for e in lst if e.op == SEND)

    @property
    def total_messages(self) -> int:
        """Number of point-to-point messages sent."""
        return sum(1 for lst in self._events for e in lst if e.op == SEND)

    def bytes_sent_by(self, rank: int) -> int:
        return sum(e.nbytes for e in self._events[rank] if e.op == SEND)

    def bytes_received_by(self, rank: int) -> int:
        return sum(e.nbytes for e in self._events[rank] if e.op == RECV)

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
