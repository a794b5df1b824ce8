"""Process backend: one OS process per rank, pipes as the wire.

Every rank runs in its own ``multiprocessing`` process with a private
address space, and every message crosses a process boundary as
serialized bytes (see :mod:`repro.runtime.wire` — sparse streams travel
with the §5.1 header word, everything else as pickle). Nothing is shared,
so the backend faithfully exercises what the thread backend can only
emulate: payload serialization, independent buffers, and true parallel
rank execution.

The launcher, the rank lifecycle, the mailboxes and the pump loop are the
shared process-family core (:mod:`repro.runtime.mesh`); this file is only
the **pipe channel**:

* :class:`PipeMesh` — a full mesh of ``P * (P-1)`` unidirectional pipes,
  one row of write ends and one row of read ends per rank. After forking
  the parent closes its write ends (so a reader sees EOF exactly when the
  one writing rank dies) but keeps the read ends: a late buffered send to
  an already-finished rank never hits EPIPE, and the parent drains those
  pipes so such a send larger than the pipe capacity cannot block forever;
* :class:`ProcessComm` — one frame per ``send_bytes`` /
  ``recv_bytes_into`` (the ``Connection`` does the length framing).
"""

from __future__ import annotations

import multiprocessing as mp
import os
from functools import partial
from multiprocessing.connection import Connection, wait as conn_wait
from typing import Any

from .backend import register_backend
from .mesh import MeshBackend, PumpedComm, Transport
from .wire import encode_message

__all__ = ["PipeMesh", "ProcessBackend", "ProcessComm"]


class ProcessComm(PumpedComm):
    """Per-rank communicator of one worker process (pipe channels)."""

    def _frame(self, tag: int, seq: int, nbytes: int, obj: Any) -> bytearray:
        return encode_message(tag, seq, nbytes, obj, self.epoch)

    def _write(self, conn: Connection, blob: bytearray, timeout: float | None) -> None:
        conn.send_bytes(blob)  # a pipe write cannot time out, only break

    def _read_frame(self, conn: Connection, buf: bytearray) -> tuple[Any, bytearray]:
        try:
            n = conn.recv_bytes_into(buf)
            return memoryview(buf)[:n], buf
        except mp.BufferTooShort as exc:
            # the oversized message arrives complete in the exception;
            # grow the scratch buffer so the next one fits in place
            frame = exc.args[0]
            return frame, bytearray(max(len(frame), 2 * len(buf)))


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

    Uses raw non-blocking fd reads, not the framed ``recv_bytes``: while the
    finished rank's process is still winding down, its receiver threads may
    have consumed part of a frame, and the parent's job is only to keep the
    pipe from filling up (unblocking late buffered senders) — the bytes are
    never interpreted. Returns False once the pipe is exhausted for good
    (EOF or error), True if it may become readable again.
    """
    try:
        fd = conn.fileno()
        os.set_blocking(fd, False)
    except Exception:
        # platforms whose Connections are not plain fds (Windows named
        # pipes): fall back to framed draining. Partial frames can make a
        # recv_bytes fail; that only ends the watch for this pipe.
        try:
            while conn.poll():
                conn.recv_bytes()
            return True
        except Exception:
            return False
    try:
        while True:
            try:
                chunk = os.read(fd, 1 << 16)
            except BlockingIOError:
                return True  # drained what was there; writers may add more
            if not chunk:
                return False  # EOF: every writer is gone
    except Exception:
        return False  # closed/unsupported: stop watching this pipe


class ProcessBackend(MeshBackend):
    """Multiprocess backend: one OS process per rank, serialized transport."""

    name = "process"

    def _transport(self, ctx: Any, nranks: int, timeout: float | None) -> PipeMesh:
        return PipeMesh(ctx, nranks)


register_backend(ProcessBackend.name, ProcessBackend)
