"""Shared-memory backend: the pipe transport plus a shared slab for large frames.

MPI's shared-memory transports are an eager queue for small messages and a
shared copy buffer for large ones; this backend is the same split. It
**is** the process backend (:mod:`~repro.runtime.process_backend`: one OS
process per rank, a full mesh of pipes, the byte-stream communicator of
:mod:`~repro.runtime.mesh` with its inline progress engine, ``POLLOUT``
back-pressure, EOF-as-death, the parent draining finished ranks' pipes),
plus one :class:`Slab` per directed pair of ranks.

A send whose accounted size reaches :data:`SLAB_MIN_BYTES` copies the
vectored :func:`~repro.runtime.wire.encode_frame_parts` parts once,
contiguously, into the pair's slab **if there is room now**, then writes —
under the same per-destination lock — a 42-byte *descriptor* on the pipe:
an ordinary frame that is all header, carrying :data:`_SLAB_TAG` and
``(offset, length, head_after)`` (and no context). The receiver's :meth:`ShmemComm._deliver`
checks the descriptor against the slab, decodes the frame in place — one
copy, shared segment → the arrays the collective will own — and stores
``head_after`` into the slab's consumed-bytes counter. **No room means the
frame goes down the pipe like any other**: the pipe is a complete
transport, so nothing ever waits for slab space — no reader-to-writer
signal, no poll loop, no parent-side tick.

Why this is safe: the frame a descriptor names is complete in memory
before the descriptor is written, and a descriptor is shorter than
``PIPE_BUF`` (written whole or not at all), so an abort or an
``op_timeout`` cannot truncate a large frame; descriptors and inline
frames share one FIFO pipe, so per-(source, context, tag) order is the
pipe's; the ``write`` syscall orders the payload stores before the reader's loads. The
one word both processes touch is the consumed-bytes counter, stored by the
reader alone as a single aligned machine word (see :class:`Slab`); the
writer's head is private, the reader learns it from descriptors. No lock
is shared with a process that may die.
"""

from __future__ import annotations

from functools import partial
from multiprocessing import shared_memory
from typing import Any

from .backend import register_backend
from .comm import CommTimeoutError, RankFailedError
from .mesh import _FIN_TAG, _LEN, MeshBackend
from .process_backend import PipeMesh, ProcessComm
from .wire import _FRAME, FRAME_HEADER_SIZE, check_frame_size, encode_frame_parts, gather_parts

__all__ = ["ShmemBackend", "ShmemComm", "Slab", "SlabMesh"]

#: frame tag of a slab descriptor (reserved, beside ``_FIN_TAG``).
_SLAB_TAG = _FIN_TAG - 1

#: accounted payload size from which a send tries the slab. Below it a
#: frame costs the same ~30 us of software on every transport, and the
#: pipe delivers it in the one syscall that would carry the descriptor.
SLAB_MIN_BYTES = 1 << 14

#: default per-pair slab capacity: room for several of the 256 KB - 1 MB
#: frames the slab is faster for; untouched pages cost nothing.
DEFAULT_SLAB_CAPACITY = 1 << 21

#: bytes of bookkeeping before a slab's data (the counter, padded).
_SLAB_HEADER = 16

_M32 = (1 << 32) - 1


class Slab:
    """One directed pair's large-frame buffer inside the shared segment.

    ``capacity`` data bytes (a power of two, so offsets wrap with the u32
    counters) behind one shared word: the free-running count of bytes the
    reader has consumed. It is a ``memoryview`` cast to native u32, so a
    store is one aligned 4-byte write; ``struct.pack_into`` zero-fills its
    target first, and the writer could read that zero. The writer's
    ``head`` (bytes handed out) lives in its own process only.
    """

    def __init__(self, buf: memoryview, capacity: int) -> None:
        self.capacity = capacity
        self.head = 0
        self._tail = buf[:4].cast("I")
        self.data = buf[_SLAB_HEADER:_SLAB_HEADER + capacity]

    def put(self, parts: list, total: int) -> "tuple[int, int] | None":
        """Copy a frame in if ``total`` contiguous bytes are free *now*.

        Returns ``(offset, head_after)`` for the descriptor, or ``None``:
        use the pipe. A frame that would straddle the end starts at
        offset 0 instead; ``head_after`` counts the skipped tail, so the
        reader frees it with the frame. The caller stores ``head_after``
        into :attr:`head` once the descriptor is written (a send that
        raised before it has handed nothing out).
        """
        head = self.head
        pos = head & (self.capacity - 1)
        skip = self.capacity - pos if pos + total > self.capacity else 0
        if skip + total > self.capacity - ((head - self._tail[0]) & _M32):
            return None
        pos = 0 if skip else pos
        gather_parts(parts, self.data, pos)
        return pos, (head + skip + total) & _M32

    def view(self, offset: int, length: int) -> memoryview:
        """The frame a descriptor names, checked against the frame limit
        and the slab first."""
        check_frame_size(length, "slab")
        if offset < 0 or length <= FRAME_HEADER_SIZE or offset + length > self.capacity:
            raise ValueError(
                f"slab descriptor names bytes {offset}..{offset + length} "
                f"of a {self.capacity}-byte slab"
            )
        return self.data[offset:offset + length]

    def release(self, head_after: int) -> None:
        """Reader: everything up to ``head_after`` is consumed."""
        self._tail[0] = head_after & _M32

    def close(self) -> None:
        self._tail.release()
        self.data.release()


class ShmemComm(ProcessComm):
    """The pipe communicator, with large frames through per-pair slabs.

    ``out_slabs[d]`` / ``in_slabs[s]`` are this rank's slabs to and from
    each peer (``None`` at its own slot).
    """

    def __init__(
        self, rank: int, size: int, out: list, inn: list, out_slabs: list, in_slabs: list,
        *args: Any,
    ) -> None:
        super().__init__(rank, size, out, inn, *args)
        self._out_slabs, self._in_slabs = out_slabs, in_slabs

    def _transport_send(self, obj: Any, nbytes: int, seq: int, dest: int, key: bytes, tag: int) -> None:
        if nbytes < SLAB_MIN_BYTES:
            return super()._transport_send(obj, nbytes, seq, dest, key, tag)
        total, parts = encode_frame_parts(tag, seq, nbytes, obj, self.epoch, key)
        check_frame_size(total, "stream")
        slab = self._out_slabs[dest]
        try:
            with self._out_locks[dest]:  # slab order is descriptor order
                spot = slab.put(parts, total)
                if spot is None:  # no room: the pipe carries the frame itself
                    blob = b"".join([_LEN.pack(total), *parts])
                    self._write(dest, blob, key, tag, self.op_timeout)
                else:
                    offset, head_after = spot
                    blob = _FRAME.pack(_SLAB_TAG, offset, total, head_after, 0)  # all header
                    self._write(dest, _LEN.pack(len(blob)) + blob, key, tag, self.op_timeout)
                    slab.head = head_after  # handed out once the reader is told
        except CommTimeoutError:  # an OSError by inheritance, but not a dead peer
            raise
        except OSError as exc:
            self._abort(failed_rank=dest)
            raise RankFailedError(dest, f"rank {dest} is gone; send failed") from exc

    def _deliver(self, src: int, frame: Any) -> bool:
        if len(frame) != FRAME_HEADER_SIZE:  # only a descriptor is all header
            return super()._deliver(src, frame)
        # a bad descriptor raises ValueError into ``_pull``, which aborts
        # the world naming ``src`` as it does for a corrupt length word
        tag, offset, length, head_after, _ = _FRAME.unpack_from(frame)
        if tag != _SLAB_TAG:
            raise ValueError(f"frame without a payload, tag {tag}")
        slab = self._in_slabs[src]
        view = slab.view(offset, length)
        try:
            return super()._deliver(src, view)
        finally:
            slab.release(head_after)


class SlabMesh(PipeMesh):
    """:class:`PipeMesh` plus one shared segment holding every pair's slab."""

    def __init__(self, ctx: Any, nranks: int, capacity: int) -> None:
        super().__init__(ctx, nranks)
        capacity = 1 << (max(int(capacity), 4096) - 1).bit_length()  # a power of two
        self.info = {"slab_capacity": capacity}
        self._shm: shared_memory.SharedMemory | None = None
        #: ``slabs[src][dst]``; forked children inherit the mapping.
        self.slabs: list[list[Slab | None]] = []

    def build(self) -> None:
        super().build()
        n, capacity = self._nranks, self.info["slab_capacity"]
        stride = _SLAB_HEADER + capacity
        self._shm = shared_memory.SharedMemory(create=True, size=n * n * stride)
        buf = self._shm.buf
        self.slabs = [
            [
                None if src == dst else Slab(buf[(src * n + dst) * stride:][:stride], capacity)
                for dst in range(n)
            ]
            for src in range(n)
        ]

    def connector(self, rank: int):
        return partial(
            ShmemComm,
            rank,
            self._nranks,
            self.out[rank],
            self.inn[rank],
            self.slabs[rank],
            [row[rank] for row in self.slabs],
        )

    def close(self) -> None:
        super().close()
        if self._shm is not None:
            for slab in (s for row in self.slabs for s in row if s is not None):
                slab.close()
            self._shm.close()
            self._shm.unlink()
            self._shm = None


class ShmemBackend(MeshBackend):
    """Multiprocess backend: pipes, and a shared-memory slab for large frames."""

    name = "shmem"

    def __init__(self, slab_capacity: int = DEFAULT_SLAB_CAPACITY) -> None:
        self.slab_capacity = int(slab_capacity)

    def _transport(self, ctx: Any, nranks: int, timeout: float | None) -> SlabMesh:
        return SlabMesh(ctx, nranks, self.slab_capacity)


register_backend(ShmemBackend.name, ShmemBackend)
