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
* **rendezvous**: rank 0's launcher listens at a known TCP address; every
  rank binds a private *mesh listener* on an ephemeral port, registers
  ``(rank, host, port)`` with the rendezvous, and receives the full
  address map back once all ``P`` ranks have checked in. On a single
  host, :class:`TcpMesh` (the backend's
  :class:`~repro.runtime.mesh.Transport`) plays the rendezvous server in
  the parent (the ``mpiexec`` analog) — it is the whole parent-side mesh:
  the connections themselves are made by the children; in the multi-host
  mode the ``serve-rank`` process of rank 0 hosts it, exactly as §6's
  cluster runs would;
* **mesh build** (:func:`_join_world`, each child's ``connect``): every
  rank connects outward to each peer's mesh listener and sends a one-off
  hello frame naming its rank, giving one unidirectional TCP connection
  per directed pair — the socket analog of the process backend's
  ``P * (P-1)`` pipe mesh (``TCP_NODELAY`` set, so small frames are not
  Nagle-delayed);
* **framing** (:class:`SocketComm`): each message is ``<u64 frame length>
  <frame bytes>`` where the frame is the ordinary
  :func:`~repro.runtime.wire.encode_frame_parts` encoding — vectored on
  the way out (one gather copy into a single ``sendall`` buffer),
  received with ``recv_into`` into the pump's reusable buffer. A length
  word past :data:`~repro.runtime.wire.MAX_FRAME_BYTES` is corruption
  attributed to its sender, never an allocation.

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

import importlib
import pickle
import socket
import struct
import sys
import threading
import time
from functools import partial
from typing import Any, Callable

import numpy as np

from .backend import register_backend
from .comm import StaleEpochError
from .faults import FaultPlan, _FaultyProgram
from .mesh import MeshBackend, PumpedComm, Transport, _run_rank
from .runconfig import _UNSET, RunConfig
from .topology import Topology, normalize_topology
from .trace import Trace
from .wire import MAX_FRAME_BYTES, check_frame_size, encode_frame_parts

__all__ = [
    "ElasticRendezvous",
    "RendezvousError",
    "RendezvousTimeoutError",
    "SocketBackend",
    "SocketComm",
    "TcpMesh",
    "serve_rank",
    "demo_program",
]

#: length prefix of every frame on a mesh/rendezvous connection.
_LEN = struct.Struct("<Q")

#: mesh handshake: magic + the connecting (source) rank.
_HELLO = struct.Struct("<4sI")
_MAGIC = b"SPCM"

#: elastic rejoin handshake, sent by a *member* dialing a rejoined rank's
#: listener: magic + member rank + channel direction + commit epoch.
#: Members close their mesh listeners after assembly, so the joiner cannot
#: dial them — instead each member opens both directed channels itself
#: (direction 0 carries member->joiner traffic, 1 carries joiner->member).
_EHELLO = struct.Struct("<4sIIq")
_EMAGIC = b"SPCE"

#: default wall-clock budget for rendezvous + mesh build (seconds).
DEFAULT_RENDEZVOUS_TIMEOUT = 60.0

#: connect-retry backoff while a peer's listener is not up yet (seconds):
#: start fast (peers usually appear within milliseconds on one host), back
#: off exponentially to the cap so a rank started long before rank 0 binds
#: the rendezvous waits out the whole timeout budget without busy-dialing.
_RETRY_MIN_S = 0.05
_RETRY_MAX_S = 1.0

#: per-connection cap on the tiny registration/hello reads. Without it a
#: stray connection that sends nothing would hold the (serial) accept
#: loops for the whole remaining deadline and starve the real ranks.
_HANDSHAKE_S = 2.0


class RendezvousError(RuntimeError):
    """World assembly through the rendezvous failed.

    The family every rendezvous-stage failure belongs to, so callers can
    catch one type: timeouts raise the :class:`RendezvousTimeoutError`
    subclass, non-timeout protocol failures (e.g. a malformed address
    map) raise this class directly.
    """


class RendezvousTimeoutError(RendezvousError, TimeoutError):
    """The world never fully assembled within the rendezvous timeout."""


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


def _send_blob(sock: socket.socket, payload: bytes) -> None:
    """One length-prefixed control frame (rendezvous traffic)."""
    sock.sendall(_LEN.pack(check_frame_size(len(payload), "stream")) + payload)


def _recv_blob(sock: socket.socket) -> bytearray:
    """Inverse of :func:`_send_blob` (fresh buffer: control traffic is rare)."""
    buf = bytearray(_recv_length(sock, memoryview(bytearray(_LEN.size))))
    _recv_exact(sock, memoryview(buf))
    return buf


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


def _connect_retry(addr: tuple[str, int], deadline: float, what: str) -> socket.socket:
    """Connect to ``addr``, retrying with bounded exponential backoff.

    The peer may be late — e.g. every non-zero rank of a ``serve-rank``
    world started before rank 0 binds the rendezvous address. Retries
    continue until ``deadline`` (the caller's rendezvous timeout budget),
    with the sleep doubling from :data:`_RETRY_MIN_S` up to
    :data:`_RETRY_MAX_S` so long waits do not busy-dial the network.
    """
    backoff = _RETRY_MIN_S
    while True:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.settimeout(max(0.1, min(1.0, deadline - time.monotonic())))
            sock.connect(addr)
            sock.settimeout(None)
            return sock
        except OSError as exc:
            sock.close()
            now = time.monotonic()
            if now >= deadline:
                raise RendezvousTimeoutError(
                    f"could not reach {what} at {addr[0]}:{addr[1]} before the "
                    "rendezvous timeout; is it running and reachable?"
                ) from exc
            time.sleep(min(backoff, max(0.0, deadline - now)))
            backoff = min(backoff * 2.0, _RETRY_MAX_S)


# ----------------------------------------------------------------------
# rendezvous: (rank, host, port) exchange through one known address
# ----------------------------------------------------------------------
def _assemble_world(
    listener: socket.socket,
    nranks: int,
    timeout: float,
    stopped: Callable[[], bool] = lambda: False,
    divert: Callable[[Any, socket.socket], bool] = lambda reg, conn: False,
) -> bool:
    """Collect ``P`` registrations, then send everyone the full address map.

    A registration is one control frame ``pickle((rank, nranks, host, port))``;
    the reply is ``pickle([(host, port), ...])`` indexed by rank.
    ``divert(reg, conn)`` may claim a frame that is something else (the
    elastic rendezvous queues rejoin requests with it). Returns False if
    the world did not assemble — timeout, ``stopped()``, or the listener
    closed under us (run torn down); every waiting client then observes
    its own :class:`RendezvousTimeoutError`, which surfaces as the rank
    failure.
    """
    deadline = time.monotonic() + timeout
    conns: dict[int, socket.socket] = {}
    addrs: dict[int, tuple[str, int]] = {}
    try:
        listener.settimeout(0.2)
        while len(conns) < nranks:
            if time.monotonic() > deadline or stopped():
                return False
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return False
            try:
                conn.settimeout(min(_HANDSHAKE_S, max(0.1, deadline - time.monotonic())))
                reg = pickle.loads(bytes(_recv_blob(conn)))
                if divert(reg, conn):
                    continue
                rank, world, host, port = reg
                if world != nranks or not 0 <= rank < nranks or rank in conns:
                    raise ValueError(f"bad registration: rank {rank} of {world}")
                conn.settimeout(max(0.1, deadline - time.monotonic()))
            except Exception:
                conn.close()  # stray/misconfigured client; keep serving
                continue
            conns[rank] = conn
            addrs[rank] = (host, port)
        reply = pickle.dumps([addrs[r] for r in range(nranks)])
        for conn in conns.values():
            try:
                _send_blob(conn, reply)
            except OSError:
                pass  # its rank will time out and report the failure
        return True
    finally:
        _close_all(conns.values())


def _serve_rendezvous(listener: socket.socket, nranks: int, timeout: float) -> None:
    """One-shot rendezvous server (:func:`_assemble_world`, then close).

    Runs in a daemon thread of the launcher (single host) or of rank 0's
    ``serve-rank`` process (multi host).
    """
    try:
        _assemble_world(listener, nranks, timeout)
    finally:
        listener.close()


def _rendezvous_client(
    rdv_addr: tuple[str, int],
    rank: int,
    nranks: int,
    mesh_addr: tuple[str, int],
    timeout: float,
) -> list[tuple[str, int]]:
    """Register this rank's mesh listener; return the full address map."""
    deadline = time.monotonic() + timeout
    sock = _connect_retry(rdv_addr, deadline, "the rendezvous server")
    try:
        sock.settimeout(max(0.1, deadline - time.monotonic()))
        _send_blob(sock, pickle.dumps((rank, nranks, *mesh_addr)))
        try:
            addrs = pickle.loads(bytes(_recv_blob(sock)))
        except (TimeoutError, EOFError, OSError) as exc:
            raise RendezvousTimeoutError(
                f"rank {rank}: the world of {nranks} ranks never fully "
                f"assembled at {rdv_addr[0]}:{rdv_addr[1]} within {timeout:.1f}s"
            ) from exc
    finally:
        sock.close()
    if len(addrs) != nranks:
        raise RendezvousError(
            f"rendezvous returned {len(addrs)} addresses, expected {nranks}"
        )
    return [tuple(a) for a in addrs]


def _connect_mesh(
    rank: int,
    nranks: int,
    listener: socket.socket,
    addrs: list[tuple[str, int]],
    timeout: float,
) -> tuple[list[socket.socket | None], list[socket.socket | None]]:
    """Build the full TCP mesh: one outbound connection per directed pair.

    Outbound connects come first (they complete against the peers'
    listen backlogs without anyone accepting, so there is no ordering
    deadlock), then ``P - 1`` inbound accepts, each identified by its
    hello frame.
    """
    deadline = time.monotonic() + timeout
    out_socks: list[socket.socket | None] = [None] * nranks
    in_socks: list[socket.socket | None] = [None] * nranks
    try:
        for peer in range(nranks):
            if peer == rank:
                continue
            sock = _connect_retry(addrs[peer], deadline, f"rank {peer}")
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(_HELLO.pack(_MAGIC, rank))
            out_socks[peer] = sock

        listener.settimeout(0.2)
        hello = bytearray(_HELLO.size)
        accepted = 0
        while accepted < nranks - 1:
            if time.monotonic() > deadline:
                raise RendezvousTimeoutError(
                    f"rank {rank}: only {accepted} of {nranks - 1} peers "
                    f"connected within {timeout:.1f}s"
                )
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(min(_HANDSHAKE_S, max(0.1, deadline - time.monotonic())))
            try:
                _recv_exact(conn, memoryview(hello))
                magic, src = _HELLO.unpack(hello)
                if magic != _MAGIC or not 0 <= src < nranks or in_socks[src] is not None:
                    raise ValueError(f"bad mesh handshake from {src}")
            except Exception:
                conn.close()
                continue  # stray connection; the real peer will retry
            conn.settimeout(None)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            in_socks[src] = conn
            accepted += 1
    except BaseException:
        _close_all(out_socks + in_socks)
        raise
    return out_socks, in_socks


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
        through :func:`elastic_dial_join`.
        """
        _close_all((self._out_socks[peer], self._in_socks[peer]))
        self._out_socks[peer] = out_sock
        self._out_locks[peer] = threading.Lock()
        self._in_socks[peer] = in_sock
        self._start_pump(peer, in_sock)


def _join_world(
    rank: int,
    nranks: int,
    rdv_addr: tuple[str, int],
    host: str,
    timeout: float,
    trace: Trace,
    op_timeout: float | None = None,
) -> SocketComm:
    """Bind a mesh listener, rendezvous, build the mesh, return the comm.

    The rendezvous reply is the full ``rank -> (host, port)`` map; its host
    column *is* the world's topology, so instead of discarding it after
    mesh assembly it is kept on the communicator (``comm.topology``) for
    topology-aware collectives (callers override it with an explicit
    topology, e.g. a simulated multi-host world over loopback).
    """
    listener = _bind_listener(host, 0, nranks)
    try:
        mesh_addr = (host, listener.getsockname()[1])
        addrs = _rendezvous_client(rdv_addr, rank, nranks, mesh_addr, timeout)
        out_socks, in_socks = _connect_mesh(rank, nranks, listener, addrs, timeout)
    finally:
        listener.close()
    comm = SocketComm(rank, nranks, out_socks, in_socks, trace, op_timeout)
    comm.topology = Topology(tuple(h for h, _p in addrs))
    return comm


# ----------------------------------------------------------------------
# elastic rejoin: a restarted rank re-registers into the next epoch
# ----------------------------------------------------------------------
class ElasticRendezvous:
    """Persistent rendezvous of an elastic world (hosted by rank 0).

    Phase one is the ordinary address exchange (:func:`_assemble_world`);
    afterwards the listener stays open and a restarted rank can re-register
    with a ``("rejoin", rank, nranks, host, port)`` control frame. Rejoin
    requests are queued until the elastic leader commits one between
    iterations (:meth:`~repro.runtime.elastic.ElasticContext.step`) and
    replies with the new ``(epoch, members, hosts)``. Runs in its own
    daemon thread; :meth:`poll`/:meth:`reply` are called from the leader's
    rank program.
    """

    def __init__(self, listener: socket.socket, nranks: int, timeout: float) -> None:
        self._listener = listener
        self._nranks = nranks
        self._timeout = timeout
        self._lock = threading.Lock()
        self._pending: list[tuple[int, tuple[str, int], socket.socket]] = []
        self._closed = False
        self._thread = threading.Thread(
            target=self._serve, name="elastic-rendezvous", daemon=True
        )
        self._thread.start()

    # -- server thread --------------------------------------------------
    def _serve(self) -> None:
        listener = self._listener
        # phase 1: initial world assembly; a restarted rank that beats it
        # is queued like any later rejoin
        if not _assemble_world(
            listener, self._nranks, self._timeout, lambda: self._closed, self._queue_if_rejoin
        ):
            return
        # phase 2: accept rejoin registrations until the world winds down
        while not self._closed:
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            try:
                conn.settimeout(_HANDSHAKE_S)
                reg = pickle.loads(bytes(_recv_blob(conn)))
                if not self._queue_if_rejoin(reg, conn):
                    raise ValueError("not a rejoin registration")
            except Exception:
                conn.close()
                continue

    def _queue_if_rejoin(self, reg: Any, conn: socket.socket) -> bool:
        if not (isinstance(reg, tuple) and len(reg) == 5 and reg[0] == "rejoin"):
            return False
        _, rank, world, host, port = reg
        if world != self._nranks or not 0 <= int(rank) < self._nranks:
            raise ValueError(f"bad rejoin registration: rank {rank} of {world}")
        conn.settimeout(None)
        with self._lock:
            self._pending.append((int(rank), (host, int(port)), conn))
        return True

    # -- leader-side API -------------------------------------------------
    def poll(self, eligible: Any) -> "tuple[int, tuple[str, int], socket.socket] | None":
        """Pop the first queued rejoin whose rank is in ``eligible`` (the
        world's dead set); ``None`` if nothing is committable yet."""
        with self._lock:
            for i, item in enumerate(self._pending):
                if item[0] in eligible:
                    return self._pending.pop(i)
        return None

    def reply(self, conn: socket.socket, payload: Any) -> None:
        """Answer a polled rejoiner (its new epoch/membership) and detach."""
        try:
            _send_blob(conn, pickle.dumps(payload))
        except OSError:
            pass  # the joiner gave up; its next attempt re-registers
        finally:
            conn.close()

    def close(self) -> None:
        self._closed = True
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._thread.join(timeout=1.0)
        with self._lock:
            for _, _, conn in self._pending:
                conn.close()
            self._pending.clear()


def elastic_dial_join(
    comm: SocketComm, joiner: int, addr: tuple[str, int], epoch: int, timeout: float
) -> None:
    """Member side of a grow commit: open both directed channels to ``joiner``.

    The hello names this member, the channel direction and the commit
    epoch, so the joiner can reject a stale or foreign dial with a typed
    error instead of wiring a dead world into its mesh.
    """
    deadline = time.monotonic() + timeout
    out_sock = _connect_retry(tuple(addr), deadline, f"rejoining rank {joiner}")
    in_sock: socket.socket | None = None
    try:
        out_sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        out_sock.sendall(_EHELLO.pack(_EMAGIC, comm.rank, 0, epoch))
        in_sock = _connect_retry(tuple(addr), deadline, f"rejoining rank {joiner}")
        in_sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        in_sock.sendall(_EHELLO.pack(_EMAGIC, comm.rank, 1, epoch))
    except BaseException:
        out_sock.close()
        if in_sock is not None:
            in_sock.close()
        raise
    comm._install_peer(joiner, out_sock, in_sock)


def _accept_rejoin_mesh(
    rank: int,
    nranks: int,
    members: Any,
    epoch: int,
    listener: socket.socket,
    deadline: float,
) -> tuple[list[socket.socket | None], list[socket.socket | None]]:
    """Joiner side: accept both directed channels from every member."""
    out_socks: list[socket.socket | None] = [None] * nranks
    in_socks: list[socket.socket | None] = [None] * nranks
    members_set = {int(m) for m in members}
    want = 2 * (len(members_set) - 1)
    got = 0
    listener.settimeout(0.2)
    hello = bytearray(_EHELLO.size)
    try:
        while got < want:
            if time.monotonic() > deadline:
                raise RendezvousTimeoutError(
                    f"rank {rank}: only {got} of {want} rejoin channels "
                    "connected before the timeout"
                )
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(min(_HANDSHAKE_S, max(0.1, deadline - time.monotonic())))
            try:
                _recv_exact(conn, memoryview(hello))
                magic, src, direction, hello_epoch = _EHELLO.unpack(hello)
            except Exception:
                conn.close()
                continue  # stray connection; the real member will retry
            if (
                magic != _EMAGIC
                or src not in members_set
                or src == rank
                or direction not in (0, 1)
            ):
                conn.close()
                continue
            if hello_epoch != epoch:
                conn.close()
                raise StaleEpochError(
                    f"rank {src} dialed rejoining rank {rank} with epoch "
                    f"{hello_epoch}, but the committed rejoin epoch is {epoch}",
                    frame_epoch=int(hello_epoch),
                    current_epoch=int(epoch),
                )
            # direction 0 = member->joiner traffic: our inbound channel
            slot = in_socks if direction == 0 else out_socks
            if slot[src] is not None:
                conn.close()
                continue
            conn.settimeout(None)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            slot[src] = conn
            got += 1
    except BaseException:
        _close_all(out_socks + in_socks)
        raise
    return out_socks, in_socks


def _rejoin_world(
    rank: int,
    nranks: int,
    rdv_addr: tuple[str, int],
    host: str,
    timeout: float,
    trace: Trace,
    op_timeout: float | None = None,
) -> SocketComm:
    """Re-register a restarted rank and assemble its half of the mesh.

    Binds a fresh mesh listener, registers ``("rejoin", ...)`` with the
    elastic rendezvous, blocks until a member's
    :meth:`~repro.runtime.elastic.ElasticContext.step` commits the join
    and replies ``(epoch, members, hosts)``, then accepts both directed
    channels from every member. Returns the backend communicator already
    moved to the committed epoch, with the working
    :class:`~repro.runtime.elastic.ElasticWorld` attached as
    ``comm._elastic_world`` (dead ranks of the epoch recorded, so their
    late EOFs cannot abort the regrown world).
    """
    from .elastic import ElasticWorld

    deadline = time.monotonic() + timeout
    listener = _bind_listener(host, 0, 2 * nranks)
    try:
        mesh_addr = (host, listener.getsockname()[1])
        sock = _connect_retry(rdv_addr, deadline, "the elastic rendezvous")
        try:
            sock.settimeout(max(0.1, deadline - time.monotonic()))
            _send_blob(sock, pickle.dumps(("rejoin", rank, nranks, *mesh_addr)))
            try:
                epoch, members, hosts = pickle.loads(bytes(_recv_blob(sock)))
            except (TimeoutError, EOFError, OSError) as exc:
                raise RendezvousTimeoutError(
                    f"rank {rank}: the rejoin was not committed within "
                    f"{timeout:.1f}s (is the world calling "
                    "ElasticContext.step() between iterations?)"
                ) from exc
        finally:
            sock.close()
        members = [int(m) for m in members]
        if rank not in members:
            raise RendezvousError(
                f"rejoin reply does not include rank {rank}: members {members}"
            )
        out_socks, in_socks = _accept_rejoin_mesh(
            rank, nranks, members, int(epoch), listener, deadline
        )
    finally:
        listener.close()
    comm = SocketComm(rank, nranks, out_socks, in_socks, trace, op_timeout)
    comm.epoch = int(epoch)
    comm.dead_ranks = set(range(nranks)) - set(members)
    comm.topology = Topology(tuple(hosts)) if hosts else None
    comm._elastic_world = ElasticWorld(comm, members, int(epoch))
    return comm


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
        return partial(
            _join_world,
            rank,
            self._nranks,
            self.info["rendezvous"],
            "127.0.0.1",
            self._setup_timeout,
        )

    def release(self) -> None:
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


# ----------------------------------------------------------------------
# multi-host entry point (``python -m repro serve-rank``)
# ----------------------------------------------------------------------
def demo_program(comm) -> dict:
    """Default ``serve-rank`` program: one sparse allreduce, digest out.

    Every rank contributes a seeded random stream, so the reduced
    checksum is identical on every host — a quick end-to-end proof that
    a freshly assembled multi-host world computes the right thing.
    """
    from ..collectives.sparse import ssar_recursive_double
    from ..streams import SparseStream

    gen = np.random.default_rng(4242 + comm.rank)
    stream = SparseStream.random_uniform(1 << 16, nnz=600, rng=gen)
    out = ssar_recursive_double(comm, stream)
    dense = out.to_dense()
    return {
        "rank": comm.rank,
        "size": comm.size,
        "nnz": int(out.nnz),
        "checksum": float(dense.sum()),
        "bytes_sent": int(comm.trace.bytes_sent_by(comm.rank)),
    }


def _resolve_program(spec: str | None) -> Callable[..., Any]:
    """``module:function`` -> the rank program (default: the demo)."""
    if spec is None:
        return demo_program
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(
            f"program spec must look like 'package.module:function', got {spec!r}"
        )
    fn = getattr(importlib.import_module(module_name), attr)
    if not callable(fn):
        raise ValueError(f"{spec!r} resolved to a non-callable {fn!r}")
    return fn


def serve_rank(
    rendezvous: tuple[str, int],
    rank: int,
    nranks: int,
    program: "str | Callable[..., Any] | None" = None,
    host: str = "127.0.0.1",
    rendezvous_timeout: float = DEFAULT_RENDEZVOUS_TIMEOUT,
    verbose: bool = False,
    config: "RunConfig | None" = None,
    topology: "Topology | str | int | None" = _UNSET,
    op_timeout: float | None = _UNSET,
    fault_plan: Any = _UNSET,
    elastic: bool = False,
    rejoin: bool = False,
) -> Any:
    """Run one rank of a multi-host socket world and return its result.

    Rank 0 listens: it binds the rendezvous address itself and serves the
    address exchange while also participating as an ordinary rank. Every
    other rank — on this machine or any other — points at the same
    ``rendezvous`` address. ``host`` is the address *peers* use to reach
    this rank's mesh listener, so on a real cluster pass the machine's
    routable IP (the loopback default only assembles single-host worlds).

    The rank program sees the assembled ``(rank, host)`` map as
    ``comm.topology``, so topology-aware collectives (``ssar_hier``)
    exploit host locality automatically; an explicit ``topology`` (any
    spelling :func:`~repro.runtime.topology.normalize_topology` accepts)
    overrides the rendezvous-derived map — it is validated against
    ``nranks`` before any socket work starts, with the same error every
    launcher raises. ``verbose=True`` additionally logs the host grouping
    to stderr once the world assembles.

    ``op_timeout`` bounds every blocked send/recv of this rank
    (:class:`~repro.runtime.comm.CommTimeoutError` past it); ``fault_plan``
    (a :class:`~repro.runtime.faults.FaultPlan` or its spec string, e.g.
    ``"seed=7,drop=0.01"``) runs the program through the fault-injecting
    communicator for manual chaos runs. A
    :class:`~repro.runtime.RunConfig` passed as ``config=`` supplies
    ``topology``/``op_timeout``/``fault_plan`` when they are not given
    explicitly (explicit kwargs win, matching ``run_ranks``).

    ``elastic=True`` (rank 0 only) keeps the rendezvous open after
    assembly so killed ranks can be revived: restart the dead rank's
    ``serve-rank`` command with ``rejoin=True`` (CLI: ``--rejoin``) and it
    registers into the next world epoch; the survivors commit the join at
    their next :meth:`~repro.runtime.elastic.ElasticContext.step`. Rank 0
    hosts the rendezvous, so it cannot itself be revived. Two-host recipe
    (after rank 1's host died mid-run and the survivors shrank)::

        # host B, reviving rank 1 of the original 4-rank world
        python -m repro serve-rank --rendezvous hostA:29400 \\
            --rank 1 --nranks 4 --host hostB --rejoin
    """
    if not 0 <= rank < nranks:
        raise ValueError(f"rank {rank} out of range [0, {nranks})")
    cfg = (config if config is not None else RunConfig()).merged(
        topology=topology, op_timeout=op_timeout, fault_plan=fault_plan
    )
    topology, op_timeout, fault_plan = cfg.topology, cfg.op_timeout, cfg.fault_plan
    topo = normalize_topology(topology, nranks)
    fn = program if callable(program) else _resolve_program(program)
    if fault_plan is not None:
        plan = (
            FaultPlan.from_spec(fault_plan) if isinstance(fault_plan, str) else fault_plan
        )
        fn = _FaultyProgram(fn, plan)

    server: threading.Thread | None = None
    elastic_server: ElasticRendezvous | None = None
    trace = Trace(nranks)
    if rejoin:
        if rank == 0:
            raise ValueError(
                "rank 0 hosts the elastic rendezvous and cannot rejoin; "
                "revive a non-zero rank"
            )
        comm = _rejoin_world(
            rank, nranks, rendezvous, host, rendezvous_timeout, trace, op_timeout
        )
    else:
        if rank == 0:
            rdv_listener = _bind_listener(rendezvous[0], rendezvous[1], nranks)
            if elastic:
                elastic_server = ElasticRendezvous(
                    rdv_listener, nranks, rendezvous_timeout
                )
            else:
                server = threading.Thread(
                    target=_serve_rendezvous,
                    args=(rdv_listener, nranks, rendezvous_timeout),
                    name="socket-rendezvous",
                    daemon=True,
                )
                server.start()
        comm = _join_world(
            rank, nranks, rendezvous, host, rendezvous_timeout, trace, op_timeout
        )
        if elastic_server is not None:
            # the elastic leader's rank program polls this for rejoins
            comm._elastic_rendezvous = elastic_server
    if topo is not None:
        comm.topology = topo
    if verbose:
        assembled = (
            f"rejoined at epoch {comm.epoch}: "
            f"members {sorted(set(range(nranks)) - comm.dead_ranks)}"
            if rejoin
            else f"world assembled: {comm.topology.describe()}"
        )
        print(f"[serve-rank {rank}/{nranks}] {assembled}", file=sys.stderr)
    try:
        return _run_rank(comm, fn)
    finally:
        if server is not None:
            server.join(timeout=1.0)
        if elastic_server is not None:
            elastic_server.close()


register_backend(SocketBackend.name, SocketBackend)
