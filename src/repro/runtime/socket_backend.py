"""Socket backend: one OS process per rank, payloads framed over TCP.

This is the distributed-memory variant of the process family: the same
§5.1 wire format (:mod:`repro.runtime.wire`), the same launcher, rank
lifecycle, message queues and inline progress engine (:mod:`repro.runtime.mesh`), but the
transport is a full mesh of TCP connections instead of pipes — so ranks
no longer have to share a kernel. SparCML's headline numbers (§6) come
from cluster runs; this backend is the repo's path to that setting while
staying a drop-in choice for single-host runs::

    run_ranks(program, nranks=4, backend="socket")          # single host
    python -m repro serve-rank --rendezvous host:port ...   # join from anywhere

What this file supplies to the shared core
------------------------------------------
* **the channel** (:class:`SocketComm`): the shared byte-stream
  communicator (:class:`~repro.runtime.mesh.StreamComm`) over non-blocking
  TCP sockets — each message ``<u64 frame length><frame bytes>``, the
  frame being the ordinary :func:`~repro.runtime.wire.encode_frame_parts`
  encoding gathered into one send buffer, received with ``recv_into``
  into a reusable per-source buffer by whichever thread of the rank is
  blocked. A length word past :data:`~repro.runtime.wire.MAX_FRAME_BYTES`
  is corruption attributed to its sender, never an allocation. What is
  TCP's own: lingering after a clean finish, closing, and wiring a
  rejoined peer in;
* **the parent-side mesh** (:class:`TcpMesh`, the backend's
  :class:`~repro.runtime.mesh.Transport`): the parent holds no mesh
  connection — it only serves the loopback rendezvous the children
  assemble through.

How the connections come to exist — the rendezvous protocol, the mesh
handshake, elastic rejoin and the ``serve-rank`` entry point — is
:mod:`repro.runtime.rendezvous`, layered on this file.

Failure handling is the pipe transports' EOF semantics: a dying rank's
sockets close, a peer's next progress step reads EOF *without* a
preceding FIN frame, flags the world aborted and unwinds blocked
collectives with :class:`WorldAbortedError`. EOF after FIN is a normal
wind-down. Nobody but the two ranks holds a TCP connection, so the parent
cannot drain for a finished rank: a rank that finished cleanly *lingers*
— keeps its progress engine reading for a grace period after reporting
its result — so a peer's late buffered send larger than the TCP window
can never block forever.
"""

from __future__ import annotations

import socket
import threading
import time
from functools import partial
from typing import Any

from .backend import register_backend
from .comm import _ABORT_POLL_S
from .mesh import _LEN  # noqa: F401 - this channel's length prefix, re-exported
from .mesh import MeshBackend, StreamComm, Transport

__all__ = ["SocketBackend", "SocketComm", "TcpMesh"]

#: default wall-clock budget for rendezvous + mesh build (seconds).
DEFAULT_RENDEZVOUS_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# low-level socket helpers
# ----------------------------------------------------------------------
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
class SocketComm(StreamComm):
    """Per-rank communicator over the TCP mesh: the channels are the sockets."""

    def linger(self, timeout: float) -> None:
        """Wait for every peer's FIN (or death) before closing the sockets.

        A finished rank that closed immediately would reset a peer's late
        buffered send; reading until each peer FINs is the socket analog
        of the parent draining finished ranks' pipes.
        """
        deadline = time.monotonic() + timeout
        while self._watch and not self.aborted.is_set() and time.monotonic() < deadline:
            self._run_progress(_ABORT_POLL_S)

    def close(self) -> None:
        _close_all(self._out + self._inn)

    def _install_peer(
        self, peer: int, out_sock: socket.socket, in_sock: socket.socket
    ) -> None:
        """Wire a rejoined peer back into the mesh (elastic grow commit).

        Replaces the dead connections at the slot and starts reading the
        new inbound channel, with the engine held: no progress step of
        another thread may poll a socket this closes, or attribute a
        late error on the old channel to the revived rank. Called by
        :meth:`~repro.runtime.elastic.ElasticContext.step` through
        :func:`~repro.runtime.rendezvous.elastic_dial_join`.
        """
        with self._holding_engine():
            self._detach(self._inn[peer].fileno())
            _close_all((self._out[peer], self._inn[peer]))
            out_sock.setblocking(False)
            self._out[peer] = out_sock
            self._out_locks[peer] = threading.Lock()
            self._inn[peer] = in_sock
            self._attach(peer, in_sock)


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
