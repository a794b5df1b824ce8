"""Socket backend: one OS process per rank, payloads framed over TCP.

This is the distributed-memory variant of the process family: the same
§5.1 wire format (:mod:`repro.runtime.wire`), the same launcher, rank
lifecycle, mailboxes and pump loop (:mod:`repro.runtime.mesh`), but the
transport is a full mesh of TCP connections instead of pipes — so ranks
no longer have to share a kernel. SparCML's headline numbers (§6) come
from cluster runs; this backend is the repo's path to that setting while
staying a drop-in choice for single-host runs::

    run_ranks(program, nranks=4, backend="socket")          # single host
    python -m repro serve-rank --rendezvous host:port ...   # join from anywhere

What this file supplies to the shared core
------------------------------------------
* **framing** (:class:`SocketComm`): each message is ``<u64 frame length>
  <frame bytes>`` where the frame is the ordinary
  :func:`~repro.runtime.wire.encode_frame_parts` encoding — vectored on
  the way out (one gather copy into a single ``sendall`` buffer),
  received with ``recv_into`` into the pump's reusable buffer. A length
  word past :data:`~repro.runtime.wire.MAX_FRAME_BYTES` is corruption
  attributed to its sender, never an allocation;
* **the parent-side mesh** (:class:`TcpMesh`, the backend's
  :class:`~repro.runtime.mesh.Transport`): the parent holds no mesh
  connection — it only serves the loopback rendezvous the children
  assemble through.

How the connections come to exist — the rendezvous protocol, the mesh
handshake, elastic rejoin and the ``serve-rank`` entry point — is
:mod:`repro.runtime.rendezvous`, layered on this file.

Failure handling mirrors the shmem doorbell-EOF semantics: a dying rank's
sockets close, its peers' pumps observe EOF *without* a preceding FIN
frame, flag the world aborted and unwind blocked collectives with
:class:`WorldAbortedError`. EOF after FIN is a normal wind-down. Nobody
but the two ranks holds a TCP connection, so the parent cannot drain for
a finished rank: a rank that finished cleanly *lingers* — keeps its pumps
draining for a grace period after reporting its result — so a peer's late
buffered send larger than the TCP window can never block forever.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from functools import partial
from typing import Any

from .backend import register_backend
from .mesh import MeshBackend, PumpedComm, Transport
from .trace import Trace
from .wire import MAX_FRAME_BYTES, check_frame_size, encode_frame_parts

__all__ = ["SocketBackend", "SocketComm", "TcpMesh"]

#: length prefix of every frame on a mesh/rendezvous connection.
_LEN = struct.Struct("<Q")

#: default wall-clock budget for rendezvous + mesh build (seconds).
DEFAULT_RENDEZVOUS_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# low-level socket helpers
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` from ``sock``; raises EOFError on a closed peer."""
    got = 0
    while got < len(view):
        n = sock.recv_into(view[got:])
        if n == 0:
            raise EOFError("peer closed the connection")
        got += n


def _recv_length(sock: socket.socket, view: memoryview) -> int:
    """Read one length prefix into the 8-byte ``view``.

    Anything past :data:`MAX_FRAME_BYTES` means a corrupt or hostile
    peer, not a real payload: fail fast (``ValueError``) instead of
    allocating that much and blocking for bytes that never come.
    """
    _recv_exact(sock, view)
    (length,) = _LEN.unpack(view)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"length word {length:#x} exceeds the {MAX_FRAME_BYTES}-byte limit")
    return length


def _close_all(socks) -> None:
    """Close every socket in ``socks`` (``None`` slots skipped)."""
    for sock in socks:
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass


def _bind_listener(host: str, port: int, nranks: int) -> socket.socket:
    """A listening TCP socket whose backlog covers the whole world.

    The backlog matters: mesh peers connect before this rank starts
    accepting, and a backlog smaller than ``P`` would refuse some of them.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(nranks + 8)
    return sock


# ----------------------------------------------------------------------
# the communicator
# ----------------------------------------------------------------------
class SocketComm(PumpedComm):
    """Per-rank communicator over the TCP mesh.

    ``out_socks[d]`` / ``in_socks[s]`` are this rank's connections to and
    from each peer (``None`` at its own slot).
    """

    def __init__(
        self,
        rank: int,
        size: int,
        out_socks: list[socket.socket | None],
        in_socks: list[socket.socket | None],
        trace: Trace,
        op_timeout: float | None = None,
    ) -> None:
        self._out_socks = out_socks
        self._in_socks = in_socks
        super().__init__(rank, size, out_socks, in_socks, trace, op_timeout)

    def _frame(self, tag: int, seq: int, nbytes: int, obj: Any) -> bytearray:
        """Length prefix + frame, gathered into one send buffer.

        Like :func:`~repro.runtime.wire.encode_message` this copies each
        payload byte exactly once, and one ``sendall`` per message keeps
        the frame contiguous on the stream without per-part syscalls.
        """
        total, parts = encode_frame_parts(tag, seq, nbytes, obj, self.epoch)
        out = bytearray(_LEN.size + check_frame_size(total, "stream"))
        _LEN.pack_into(out, 0, total)
        pos = _LEN.size
        for part in parts:
            n = len(part)
            out[pos:pos + n] = part
            pos += n
        return out

    def _write(self, sock: socket.socket, blob: bytearray, timeout: float | None) -> None:
        if timeout is None:
            sock.sendall(blob)
        else:
            sock.settimeout(timeout)
            try:
                sock.sendall(blob)
            finally:
                sock.settimeout(None)

    def _read_frame(self, sock: socket.socket, buf: bytearray) -> tuple[memoryview, bytearray]:
        # the prefix lands in the buffer's first word, the frame behind it
        start = _LEN.size
        view = memoryview(buf)
        end = start + _recv_length(sock, view[:start])
        if end > len(buf):
            buf = bytearray(max(end, 2 * len(buf)))
            view = memoryview(buf)
        frame = view[start:end]
        _recv_exact(sock, frame)
        return frame, buf

    def linger(self, timeout: float) -> None:
        """Wait for every peer's FIN (or death) before closing the sockets.

        A finished rank that closed immediately would reset a peer's late
        buffered send; keeping the pumps draining until each peer FINs is
        the socket analog of the parent draining finished ranks' pipes.
        """
        deadline = time.monotonic() + timeout
        for t in self._receivers:
            if self.aborted.is_set():
                return
            t.join(max(0.0, deadline - time.monotonic()))

    def close(self) -> None:
        _close_all(self._out_socks + self._in_socks)

    def _install_peer(
        self, peer: int, out_sock: socket.socket, in_sock: socket.socket
    ) -> None:
        """Wire a rejoined peer back into the mesh (elastic grow commit).

        Replaces the dead connections at the slot — their pumps already
        exited on EOF — and starts a fresh pump on the new inbound
        channel. Called by :meth:`~repro.runtime.elastic.ElasticContext.step`
        through :func:`~repro.runtime.rendezvous.elastic_dial_join`.
        """
        _close_all((self._out_socks[peer], self._in_socks[peer]))
        self._out_socks[peer] = out_sock
        self._out_locks[peer] = threading.Lock()
        self._in_socks[peer] = in_sock
        self._start_pump(peer, in_sock)


# ----------------------------------------------------------------------
# single-host launcher (run_ranks backend)
# ----------------------------------------------------------------------
class TcpMesh(Transport):
    """Parent side of a single-host TCP world: the loopback rendezvous.

    The parent holds no mesh connection — the children dial each other —
    so there is nothing to hand over but the rendezvous address, nothing
    to drain, and only the listener for a forked child to close.
    """

    def __init__(self, nranks: int, setup_timeout: float) -> None:
        self._nranks = nranks
        self._setup_timeout = setup_timeout
        self._listener: socket.socket | None = None
        self._server: threading.Thread | None = None

    def build(self) -> None:
        self._listener = _bind_listener("127.0.0.1", 0, self._nranks)
        self.info = {"rendezvous": ("127.0.0.1", self._listener.getsockname()[1])}

    def ends(self) -> list:
        return [self._listener]

    def connector(self, rank: int):
        from .rendezvous import _join_world  # layered on this module

        return partial(
            _join_world,
            rank,
            self._nranks,
            self.info["rendezvous"],
            "127.0.0.1",
            self._setup_timeout,
        )

    def release(self) -> None:
        from .rendezvous import _serve_rendezvous  # layered on this module

        # serve the rendezvous only after forking: children queue their
        # connects against the listen backlog in the meantime
        self._server = threading.Thread(
            target=_serve_rendezvous,
            args=(self._listener, self._nranks, self._setup_timeout),
            name="socket-rendezvous",
            daemon=True,
        )
        self._server.start()

    def close(self) -> None:
        if self._listener is not None:
            self._listener.close()  # idempotent; normally the server closed it
        if self._server is not None:
            self._server.join(timeout=1.0)


class SocketBackend(MeshBackend):
    """Multi-host-capable backend: one OS process per rank, TCP transport.

    ``run`` launches all ranks on this host (rendezvous served by the
    parent over loopback) — the same collectives then span machines by
    starting each rank with ``python -m repro serve-rank`` against a
    shared rendezvous address instead.
    """

    name = "socket"

    def __init__(self, rendezvous_timeout: float = DEFAULT_RENDEZVOUS_TIMEOUT) -> None:
        self.rendezvous_timeout = float(rendezvous_timeout)

    def _setup_timeout(self, timeout: float | None) -> float:
        """World-assembly budget: the rendezvous timeout, capped by the
        run timeout so a failed setup never outlives the run watchdog."""
        if timeout is None:
            return self.rendezvous_timeout
        return min(self.rendezvous_timeout, timeout)

    def _transport(self, ctx: Any, nranks: int, timeout: float | None) -> TcpMesh:
        return TcpMesh(nranks, self._setup_timeout(timeout))


register_backend(SocketBackend.name, SocketBackend)
