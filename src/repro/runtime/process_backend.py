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
  the parent closes every end, so each pipe has one writer and one reader:
  a reader sees EOF exactly when the writing rank exits, a writer EPIPE
  when the reading one does. A late buffered send to a finished rank
  completes because that rank keeps reading until its peers are done
  (:meth:`~repro.runtime.mesh.StreamComm.linger`);
* :class:`ProcessComm` — the shared byte-stream communicator
  (:class:`~repro.runtime.mesh.StreamComm`: ``<u64 length><frame>``,
  non-blocking, read by whichever thread of the rank is blocked) over
  pipe ends dressed as sockets (:class:`_PipeEnd`: ``os.write`` /
  ``os.readv`` on the descriptor).
"""

from __future__ import annotations

import os
from functools import partial
from multiprocessing.connection import Connection
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

    def build(self) -> None:
        for src in range(self._nranks):
            for dst in range(self._nranks):
                if src != dst:
                    self.inn[dst][src], self.out[src][dst] = self._ctx.Pipe(duplex=False)

    def ends(self) -> list:
        return [c for row in self.out + self.inn for c in row if c is not None]

    def own(self, rank: int) -> list:
        return [c for c in self.out[rank] + self.inn[rank] if c is not None]

    def connector(self, rank: int):
        return partial(ProcessComm, rank, self._nranks, self.out[rank], self.inn[rank])

    def release(self) -> None:
        for c in self.ends():
            c.close()

    close = release


class ProcessBackend(MeshBackend):
    """Multiprocess backend: one OS process per rank, serialized transport."""

    name = "process"

    def _transport(self, ctx: Any, nranks: int, timeout: float | None) -> PipeMesh:
        return PipeMesh(ctx, nranks)


register_backend(ProcessBackend.name, ProcessBackend)
