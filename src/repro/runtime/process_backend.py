"""Process backend: one OS process per rank, pipes as the wire.

Every rank runs in its own ``multiprocessing`` process with a private
address space, and every message crosses a process boundary as
serialized bytes (see :mod:`repro.runtime.wire` — sparse streams travel
with the §5.1 header word, everything else as pickle). Nothing is shared,
so the backend faithfully exercises what the thread backend can only
emulate: payload serialization, independent buffers, and true parallel
rank execution.

The launcher, the rank lifecycle, the message queues and the inline progress
engine are the shared process-family core (:mod:`repro.runtime.mesh`);
this file is only the **pipe channel** (POSIX pipes: the engine
``poll``s them):

* :class:`PipeMesh` — a full mesh of ``P * (P-1)`` unidirectional pipes,
  one row of write ends and one row of read ends per rank. After forking
  the parent closes its write ends (so a reader sees EOF exactly when the
  one writing rank dies) but keeps the read ends: a late buffered send to
  an already-finished rank never hits EPIPE, and the parent drains those
  pipes so such a send larger than the pipe capacity cannot block forever;
* :class:`ProcessComm` — the shared byte-stream communicator
  (:class:`~repro.runtime.mesh.StreamComm`: ``<u64 length><frame>``,
  non-blocking, read by whichever thread of the rank is blocked) over
  pipe ends dressed as sockets (:class:`_PipeEnd`: ``os.write`` /
  ``os.readv`` on the descriptor).
"""

from __future__ import annotations

import os
from functools import partial
from multiprocessing.connection import Connection, wait as conn_wait
from typing import Any

from .backend import register_backend
from .mesh import MeshBackend, StreamComm, Transport

__all__ = ["PipeMesh", "ProcessBackend", "ProcessComm"]


class _PipeEnd:
    """One end of a pipe behind the socket methods :class:`StreamComm` uses."""

    def __init__(self, conn: Connection) -> None:
        self._conn = conn  # owns the descriptor; ``fileno`` raises once closed

    def fileno(self) -> int:
        return self._conn.fileno()

    def setblocking(self, flag: bool) -> None:
        os.set_blocking(self._conn.fileno(), flag)

    def send(self, data: memoryview) -> int:
        return os.write(self._conn.fileno(), data)

    def recv_into(self, view: memoryview) -> int:
        return os.readv(self._conn.fileno(), [view])


class ProcessComm(StreamComm):
    """Per-rank communicator of one worker process (pipe channels)."""

    def __init__(self, rank: int, size: int, out: list, inn: list, *args: Any) -> None:
        ends = ([None if c is None else _PipeEnd(c) for c in conns] for conns in (out, inn))
        super().__init__(rank, size, *ends, *args)


class PipeMesh(Transport):
    """Full mesh of unidirectional pipes: ``out[src][dst]`` / ``inn[dst][src]``."""

    def __init__(self, ctx: Any, nranks: int) -> None:
        self._ctx = ctx
        self._nranks = nranks
        self.out: list[list[Connection | None]] = [[None] * nranks for _ in range(nranks)]
        self.inn: list[list[Connection | None]] = [[None] * nranks for _ in range(nranks)]
        self._reads: list[Connection] = []
        self._writes: list[Connection] = []
        #: read ends of finished/dead ranks, drained by :meth:`wait`.
        self._drainable: list[Connection] = []

    def build(self) -> None:
        for src in range(self._nranks):
            for dst in range(self._nranks):
                if src != dst:
                    r, w = self._ctx.Pipe(duplex=False)
                    self._reads.append(r)
                    self._writes.append(w)
                    self.out[src][dst] = w
                    self.inn[dst][src] = r

    def ends(self) -> list:
        return self._reads + self._writes

    def own(self, rank: int) -> list:
        return [c for c in self.out[rank] + self.inn[rank] if c is not None]

    def connector(self, rank: int):
        return partial(ProcessComm, rank, self._nranks, self.out[rank], self.inn[rank])

    def release(self) -> None:
        for w in self._writes:
            w.close()

    def finished(self, rank: int) -> None:
        self._drainable.extend(c for c in self.inn[rank] if c is not None)

    def wait(self, conns: list[Connection], timeout: float | None) -> list[Connection]:
        ready = conn_wait(conns + self._drainable, timeout=timeout)
        for conn in ready:
            if conn in self._drainable and not _drain_raw(conn):
                self._drainable.remove(conn)
        return [c for c in ready if c in conns]

    def close(self) -> None:
        for c in self._reads + self._writes:
            c.close()


def _drain_raw(conn: Connection) -> bool:
    """Discard whatever is readable on a finished rank's inbound pipe.

    Raw non-blocking reads, never framed ones: the finished rank may have
    consumed part of a frame before it stopped reading, and the parent's
    job is only to keep the pipe from filling up (unblocking late buffered
    senders) — the bytes are never interpreted. Returns False once the
    pipe is exhausted for good (EOF or error), True if it may become
    readable again.
    """
    try:
        fd = conn.fileno()
        os.set_blocking(fd, False)
        while True:
            try:
                chunk = os.read(fd, 1 << 16)
            except BlockingIOError:
                return True  # drained what was there; writers may add more
            if not chunk:
                return False  # EOF: every writer is gone
    except OSError:
        return False  # closed: stop watching this pipe


class ProcessBackend(MeshBackend):
    """Multiprocess backend: one OS process per rank, serialized transport."""

    name = "process"

    def _transport(self, ctx: Any, nranks: int, timeout: float | None) -> PipeMesh:
        return PipeMesh(ctx, nranks)


register_backend(ProcessBackend.name, ProcessBackend)
