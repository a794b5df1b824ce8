"""World assembly over TCP: one rendezvous, one mesh handshake, one join path.

How a set of processes that share nothing but a known address become one
:class:`~repro.runtime.socket_backend.SocketComm` world, and how a
restarted rank gets back into it. The transport
(:mod:`~repro.runtime.socket_backend`) knows how one frame crosses one
connection; this module knows how the connections come to exist (over
ordinary blocking sockets with timeouts — the communicator switches the
mesh channels it is handed to non-blocking):

* **rendezvous** (:class:`Rendezvous`): rank 0's launcher listens at a
  known TCP address; every rank binds a private *mesh listener* on an
  ephemeral port and registers ``[kind, rank, nranks, host, port]`` there
  (:func:`_register`; ``kind`` is ``"join"`` or ``"rejoin"``). Once all
  ``P`` joins are in, each is answered with ``[epoch, members, addrs]``
  (``addrs[r]`` is rank ``r``'s ``[host, port]``). Both are JSON: nothing
  a client of the rendezvous port sends is unpickled. On a single host
  the parent's :class:`~repro.runtime.socket_backend.TcpMesh` serves it
  (the ``mpiexec`` analog); across hosts the ``serve-rank`` process of
  rank 0 does, exactly as §6's cluster runs would. With ``elastic=True``
  the server stays up and queues rejoins, which the elastic leader
  answers — with the same reply — from
  :meth:`~repro.runtime.elastic.ElasticContext.step`;
* **mesh build** (:func:`_join_world`): for each pair of members, the
  one earlier in ``members`` dials both directed channels to the later
  one (:func:`_dial_pair`), each opened with one hello ``(magic, dialer
  rank, direction, epoch)``; the later one admits them
  (:func:`_accept_channels`) — one unidirectional TCP connection per
  directed pair, ``TCP_NODELAY`` set. A rejoiner is simply the last
  member: every survivor dials it with the same pair dial, from its grow
  commit (:meth:`~repro.runtime.socket_backend.SocketComm._elastic_regrow`);
* **serve-rank** (:func:`serve_rank`): one rank of a multi-host world,
  started by hand — the same rank lifecycle as a launched child
  (:func:`~repro.runtime.mesh._run_rank`).
"""

from __future__ import annotations

import importlib
import json
import socket
import struct
import sys
import threading
import time
from typing import Any, Callable

import numpy as np

from .comm import StaleEpochError
from .elastic import ElasticWorld
from .faults import FaultPlan
from .launcher import _check_timeouts
from .mesh import _LEN, _run_rank
from .socket_backend import (
    DEFAULT_RENDEZVOUS_TIMEOUT,
    SocketComm,
    _bind_listener,
    _close_all,
)
from .topology import Topology, normalize_topology
from .trace import Trace
from .wire import check_frame_size

__all__ = [
    "Rendezvous",
    "RendezvousError",
    "RendezvousTimeoutError",
    "serve_rank",
    "demo_program",
]

#: mesh handshake, the first bytes of every mesh channel: magic + dialer
#: rank + direction (0 carries dialer->acceptor traffic, 1 the way back)
#: + the epoch the dialer's world is in.
_HELLO = struct.Struct("<4sIIq")
_MAGIC = b"SPCM"

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
# control frames and dialing
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` from the (blocking) ``sock``; EOFError on a closed peer."""
    got = 0
    while got < len(view):
        n = sock.recv_into(view[got:])
        if n == 0:
            raise EOFError("peer closed the connection")
        got += n


def _send_blob(sock: socket.socket, payload: bytes) -> None:
    """One length-prefixed control frame (rendezvous traffic)."""
    sock.sendall(_LEN.pack(check_frame_size(len(payload), "stream")) + payload)


def _recv_blob(sock: socket.socket) -> bytearray:
    """Inverse of :func:`_send_blob` (fresh buffer: control traffic is rare).

    A length word past the frame limit means a corrupt or hostile peer,
    not a real payload: ``ValueError`` instead of allocating that much
    and blocking for bytes that never come.
    """
    word = bytearray(_LEN.size)
    _recv_exact(sock, memoryview(word))
    buf = bytearray(check_frame_size(_LEN.unpack(word)[0], "stream"))
    _recv_exact(sock, memoryview(buf))
    return buf


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
# rendezvous: registrations in, one reply per member out
# ----------------------------------------------------------------------
def _parse_registration(blob: bytearray, nranks: int) -> tuple[str, int, tuple[str, int]]:
    """``(kind, rank, (host, port))`` of one registration record; anything
    else — not JSON, the wrong shape or types, another world — raises
    ``ValueError`` / ``TypeError`` (``RecursionError`` if nested past the
    parser's depth)."""
    kind, rank, world, host, port = json.loads(blob)
    if (
        kind not in ("join", "rejoin")
        or world != nranks
        or type(rank) is not int
        or not 0 <= rank < nranks
        or type(host) is not str
        or type(port) is not int
    ):
        raise ValueError(f"bad registration {kind!r}: rank {rank!r} of {world!r}")
    return kind, rank, (host, port)


class Rendezvous:
    """The rendezvous server of one world: one accept loop in a daemon thread.

    Collects the ``P`` joins and answers each with ``[0, members, addrs]``.
    Without ``elastic`` it then stops; with it, it keeps accepting and
    queues rejoins until :meth:`admit` answers one (called from the
    elastic leader's rank program). A record that does not parse, belongs
    to another world or repeats a rank is dropped and serving goes on. If
    the world does not assemble within ``timeout``, the waiting clients
    are disconnected and each raises its own
    :class:`RendezvousTimeoutError`, which surfaces as the rank failure.
    """

    def __init__(
        self, listener: socket.socket, nranks: int, timeout: float, elastic: bool = False
    ) -> None:
        self._listener = listener
        self._nranks = nranks
        self._elastic = elastic
        self._deadline = time.monotonic() + timeout
        #: the world's address map, ``rank -> (host, port)``; a committed
        #: rejoin replaces its rank's entry.
        self._addrs: list = [None] * nranks
        self._lock = threading.Lock()
        self._pending: list[tuple[int, tuple[str, int], socket.socket]] = []
        self._closed = False
        self._thread = threading.Thread(target=self._serve, name="rendezvous", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        listener, nranks = self._listener, self._nranks
        listener.settimeout(0.2)
        joined: dict[int, socket.socket] = {}
        try:
            while not self._closed:
                if len(joined) < nranks and time.monotonic() > self._deadline:
                    return  # the world never assembled
                try:
                    conn, _ = listener.accept()
                except TimeoutError:
                    continue
                except OSError:
                    return  # closed under us: the run is being torn down
                try:
                    conn.settimeout(_HANDSHAKE_S)
                    kind, rank, addr = _parse_registration(_recv_blob(conn), nranks)
                except (ValueError, TypeError, RecursionError, EOFError, OSError):
                    conn.close()
                    continue
                if kind == "join" and rank not in joined and len(joined) < nranks:
                    joined[rank] = conn
                    self._addrs[rank] = addr
                    if len(joined) == nranks:
                        self._answer(joined.values(), 0, list(range(nranks)))
                        if not self._elastic:
                            return
                elif kind == "rejoin" and self._elastic:
                    with self._lock:
                        self._pending.append((rank, addr, conn))
                else:
                    conn.close()
        finally:
            _close_all(joined.values())
            listener.close()

    def _answer(self, conns, epoch: int, members: list[int]) -> None:
        reply = json.dumps([epoch, members, self._addrs]).encode()
        for conn in conns:
            try:
                _send_blob(conn, reply)
            except OSError:
                pass  # that client gave up; it reports its own failure
            finally:
                conn.close()

    def admit(self, members, epoch: int) -> "tuple[int, tuple[str, int]] | None":
        """Answer the first queued rejoin of a rank outside ``members``.

        The rejoiner is told ``[epoch, members + [rank], addrs]`` — last
        in the member order, so it dials nobody and every member dials
        it — and ``(rank, (host, port))`` is returned for the members to
        dial; ``None`` if nothing is committable.
        """
        with self._lock:
            item = next((p for p in self._pending if p[0] not in members), None)
            if item is None:
                return None
            self._pending.remove(item)
        rank, addr, conn = item
        self._addrs[rank] = addr
        self._answer((conn,), epoch, [*members, rank])
        return rank, addr

    def close(self) -> None:
        self._closed = True
        self._listener.close()
        self._thread.join(timeout=1.0)
        with self._lock:
            _close_all(conn for _, _, conn in self._pending)
            self._pending.clear()


def _register(
    rdv_addr: tuple[str, int],
    kind: str,
    rank: int,
    nranks: int,
    mesh_addr: tuple[str, int],
    timeout: float,
) -> tuple[int, list[int], list[tuple[str, int]]]:
    """The registration client: one record out, block for the reply.

    Returns the reply ``(epoch, members, addrs)``. No reply within
    ``timeout`` raises :class:`RendezvousTimeoutError`; a reply that does
    not describe this rank's world raises :class:`RendezvousError`.
    """
    deadline = time.monotonic() + timeout
    sock = _connect_retry(rdv_addr, deadline, "the rendezvous server")
    try:
        sock.settimeout(max(0.1, deadline - time.monotonic()))
        _send_blob(sock, json.dumps([kind, rank, nranks, *mesh_addr]).encode())
        try:
            reply = _recv_blob(sock)
        except (TimeoutError, EOFError, OSError) as exc:
            raise RendezvousTimeoutError(
                f"rank {rank}: the world of {nranks} ranks never fully assembled "
                f"at {rdv_addr[0]}:{rdv_addr[1]} within {timeout:.1f}s"
                if kind == "join"
                else f"rank {rank}: the rejoin was not committed within {timeout:.1f}s "
                "(is the world calling ElasticContext.step() between iterations?)"
            ) from exc
    finally:
        sock.close()
    try:
        epoch, members, addrs = json.loads(reply)
        members = [int(m) for m in members]
        addrs = [(str(h), int(p)) for h, p in addrs]
    except (ValueError, TypeError) as exc:
        raise RendezvousError(f"malformed rendezvous reply: {exc}") from exc
    if len(addrs) != nranks or rank not in members:
        raise RendezvousError(
            f"rendezvous returned {len(addrs)} addresses and members {members}, "
            f"expected {nranks} with rank {rank} among the members"
        )
    return int(epoch), members, addrs


# ----------------------------------------------------------------------
# mesh build: the pair dial and its acceptor
# ----------------------------------------------------------------------
def _dial_pair(
    addr: tuple[str, int], deadline: float, what: str, rank: int, epoch: int
) -> tuple[socket.socket, socket.socket]:
    """Open both directed channels to the mesh listener at ``addr``.

    Returns ``(out, in)`` as the dialer sees them: direction 0 carries its
    traffic to the acceptor, direction 1 the way back.
    """
    socks: list[socket.socket] = []
    try:
        for direction in (0, 1):
            sock = _connect_retry(tuple(addr), deadline, what)
            socks.append(sock)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(_HELLO.pack(_MAGIC, rank, direction, epoch))
    except BaseException:
        _close_all(socks)
        raise
    return socks[0], socks[1]


def _accept_channels(
    listener: socket.socket,
    dialers: list[int],
    epoch: int,
    deadline: float,
    rank: int,
    out_socks: list,
    in_socks: list,
) -> None:
    """Admit both directed channels of every rank in ``dialers``.

    A wrong magic, a dialer outside ``dialers``, a direction other than 0
    or 1 and a channel already admitted are dropped (the real peer is
    still dialing); a hello from another epoch raises
    :class:`~repro.runtime.comm.StaleEpochError` — a superseded world is
    dialing, and wiring it in would corrupt this one.
    """
    listener.settimeout(0.2)
    buf = bytearray(_HELLO.size)
    want, got = 2 * len(dialers), 0
    while got < want:
        if time.monotonic() > deadline:
            raise RendezvousTimeoutError(
                f"rank {rank}: only {got} of {want} mesh channels connected "
                "before the rendezvous timeout"
            )
        try:
            conn, _ = listener.accept()
        except TimeoutError:
            continue
        try:
            conn.settimeout(min(_HANDSHAKE_S, max(0.1, deadline - time.monotonic())))
            _recv_exact(conn, memoryview(buf))
            magic, src, direction, hello_epoch = _HELLO.unpack(buf)
            if magic != _MAGIC or src not in dialers or direction not in (0, 1):
                raise ValueError(f"bad mesh handshake from {src}")
            if hello_epoch != epoch:
                raise StaleEpochError(
                    f"rank {src} dialed rank {rank} with epoch {hello_epoch}, "
                    f"but this world's epoch is {epoch}",
                    frame_epoch=hello_epoch,
                    current_epoch=epoch,
                )
            # direction 0 is the dialer's traffic to us: our inbound channel
            slots = in_socks if direction == 0 else out_socks
            if slots[src] is not None:
                raise ValueError(f"duplicate mesh channel from rank {src}")
            conn.settimeout(None)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except (ValueError, EOFError, OSError):
            conn.close()
            continue
        except BaseException:
            conn.close()
            raise
        slots[src] = conn
        got += 1


def _join_world(
    rank: int,
    nranks: int,
    rdv_addr: tuple[str, int],
    host: str,
    timeout: float,
    trace: Trace,
    op_timeout: float | None = None,
    rejoin: bool = False,
) -> SocketComm:
    """Bind a mesh listener, register, build this rank's half of the mesh.

    The reply's member order decides who dials: this rank dials both
    channels to every later member (the dials complete against their
    listen backlogs without anyone accepting, so there is no ordering
    deadlock), then admits both channels of every earlier one. A first
    join's members are ``0 .. P-1``; a rejoiner's reply comes once a
    survivor's :meth:`~repro.runtime.elastic.ElasticContext.step` commits
    the join, with the rejoiner last.

    The reply's host column *is* the world's topology, kept on the
    communicator (``comm.topology``) for topology-aware collectives
    (callers override it with an explicit topology, e.g. a simulated
    multi-host world over loopback). A rejoiner's communicator comes back
    in the committed epoch, with the ranks outside its members recorded
    dead (their late EOFs cannot abort the regrown world) and the epoch's
    :class:`~repro.runtime.elastic.ElasticWorld` as ``comm._elastic_world``.
    """
    deadline = time.monotonic() + timeout
    out_socks: list[socket.socket | None] = [None] * nranks
    in_socks: list[socket.socket | None] = [None] * nranks
    listener = _bind_listener(host, 0, nranks)
    try:
        epoch, members, addrs = _register(
            rdv_addr,
            "rejoin" if rejoin else "join",
            rank,
            nranks,
            (host, listener.getsockname()[1]),
            timeout,
        )
        at = members.index(rank)
        for peer in members[at + 1:]:
            out_socks[peer], in_socks[peer] = _dial_pair(
                addrs[peer], deadline, f"rank {peer}", rank, epoch
            )
        _accept_channels(listener, members[:at], epoch, deadline, rank, out_socks, in_socks)
    except BaseException:
        _close_all(out_socks + in_socks)
        raise
    finally:
        listener.close()
    comm = SocketComm(rank, nranks, out_socks, in_socks, trace, op_timeout)
    comm.topology = Topology(tuple(h for h, _p in addrs))
    if rejoin:
        comm.epoch = epoch
        comm.dead_ranks = set(range(nranks)) - set(members)
        comm._elastic_world = ElasticWorld(comm, sorted(members), epoch)
    return comm


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
    topology: "Topology | str | int | None" = None,
    op_timeout: float | None = None,
    fault_plan: Any = None,
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
    ``"seed=7,drop=0.01"``) becomes the communicator's ``fault_plan`` for
    manual chaos runs — except on a ``rejoin``: a revived rank starts
    clean, or the kill that took it down would fire again.

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
    if rejoin and rank == 0:
        raise ValueError(
            "rank 0 hosts the elastic rendezvous and cannot rejoin; revive a non-zero rank"
        )
    _check_timeouts(op_timeout=op_timeout)
    topo = normalize_topology(topology, nranks)
    plan = None if rejoin else FaultPlan.coerce(fault_plan)
    fn = program if callable(program) else _resolve_program(program)

    server = None
    if rank == 0:
        listener = _bind_listener(rendezvous[0], rendezvous[1], nranks)
        server = Rendezvous(listener, nranks, rendezvous_timeout, elastic)
    try:
        comm = _join_world(
            rank, nranks, rendezvous, host, rendezvous_timeout, Trace(nranks),
            op_timeout, rejoin,
        )
        comm.fault_plan = plan
        comm._rendezvous = server  # the elastic leader answers rejoins through it
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
        return _run_rank(comm, fn)
    finally:
        if server is not None:
            server.close()
