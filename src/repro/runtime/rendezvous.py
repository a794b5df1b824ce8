"""World assembly over TCP: rendezvous, mesh handshake, rejoin, ``serve-rank``.

How a set of processes that share nothing but a known address become one
:class:`~repro.runtime.socket_backend.SocketComm` world. The transport
(:mod:`~repro.runtime.socket_backend`) knows how one frame crosses one
connection; this module knows how the connections come to exist (over
ordinary blocking sockets with timeouts — the communicator switches the
mesh channels it is handed to non-blocking):

* **rendezvous**: rank 0's launcher listens at a known TCP address; every
  rank binds a private *mesh listener* on an ephemeral port, registers
  ``(rank, nranks, host, port)`` there (:func:`_register`, the one
  registration client) and receives the full address map back once all
  ``P`` ranks have checked in (:func:`_assemble_world`). On a single host
  the parent's :class:`~repro.runtime.socket_backend.TcpMesh` serves it
  (the ``mpiexec`` analog); across hosts the ``serve-rank`` process of
  rank 0 does, exactly as §6's cluster runs would;
* **mesh build** (:func:`_join_world`): every rank dials each peer's mesh
  listener and sends a one-off hello naming its rank — one unidirectional
  TCP connection per directed pair (``TCP_NODELAY`` set) — then accepts
  the ``P - 1`` inbound ones (:func:`_accept_channels`, the one
  accept-and-handshake loop);
* **elastic rejoin** (:class:`ElasticRendezvous`, :func:`_rejoin_world`,
  :func:`elastic_dial_join`): the rendezvous stays open, a restarted rank
  re-registers, and once the survivors commit the join every member dials
  both directed channels to it;
* **serve-rank** (:func:`serve_rank`): one rank of a multi-host world,
  started by hand — the same rank lifecycle as a launched child
  (:func:`~repro.runtime.mesh._run_rank`).
"""

from __future__ import annotations

import importlib
import pickle
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
from .mesh import _LEN, _run_rank
from .runconfig import _UNSET, RunConfig
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
    "ElasticRendezvous",
    "RendezvousError",
    "RendezvousTimeoutError",
    "serve_rank",
    "demo_program",
]

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


def _dial_channel(addr: tuple[str, int], deadline: float, what: str, hello: bytes) -> socket.socket:
    """Open one mesh channel to ``addr`` and introduce ourselves."""
    sock = _connect_retry(addr, deadline, what)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(hello)
    except BaseException:
        sock.close()
        raise
    return sock


# ----------------------------------------------------------------------
# rendezvous: (rank, host, port) exchange through one known address
# ----------------------------------------------------------------------
def _registrations(
    listener: socket.socket, deadline: "float | None", stopped: Callable[[], bool]
):
    """Yield ``(registration, conn)`` for every client that opens with one
    control frame, until ``deadline`` passes, ``stopped()`` or the listener
    is closed under us. Strays (nothing, or garbage, within the handshake
    cap) are dropped and serving continues."""
    listener.settimeout(0.2)
    while not stopped() and (deadline is None or time.monotonic() <= deadline):
        try:
            conn, _ = listener.accept()
        except TimeoutError:
            continue
        except OSError:
            return
        try:
            conn.settimeout(_HANDSHAKE_S)
            reg = pickle.loads(bytes(_recv_blob(conn)))
        except Exception:
            conn.close()
            continue
        yield reg, conn


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
        for reg, conn in _registrations(listener, deadline, stopped):
            try:
                if divert(reg, conn):
                    continue
                rank, world, host, port = reg
                if world != nranks or not 0 <= rank < nranks or rank in conns:
                    raise ValueError(f"bad registration: rank {rank} of {world}")
                conn.settimeout(max(0.1, deadline - time.monotonic()))
            except Exception:
                conn.close()  # misconfigured client; keep serving
                continue
            conns[rank] = conn
            addrs[rank] = (host, port)
            if len(conns) == nranks:
                break
        else:
            return False
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


def _register(
    rdv_addr: tuple[str, int], registration: tuple, deadline: float, unanswered: str
) -> Any:
    """The registration client: one control frame out, block for the reply.

    Both ways into a world use it — the initial ``(rank, nranks, host,
    port)`` registration answered with the address map, and the
    ``("rejoin", ...)`` one answered when the survivors commit the join.
    No reply before ``deadline`` raises :class:`RendezvousTimeoutError`
    saying ``unanswered``.
    """
    sock = _connect_retry(rdv_addr, deadline, "the rendezvous server")
    try:
        sock.settimeout(max(0.1, deadline - time.monotonic()))
        _send_blob(sock, pickle.dumps(registration))
        try:
            return pickle.loads(bytes(_recv_blob(sock)))
        except (TimeoutError, EOFError, OSError) as exc:
            raise RendezvousTimeoutError(unanswered) from exc
    finally:
        sock.close()


def _rendezvous_client(
    rdv_addr: tuple[str, int],
    rank: int,
    nranks: int,
    mesh_addr: tuple[str, int],
    timeout: float,
) -> list[tuple[str, int]]:
    """Register this rank's mesh listener; return the full address map."""
    addrs = _register(
        rdv_addr,
        (rank, nranks, *mesh_addr),
        time.monotonic() + timeout,
        f"rank {rank}: the world of {nranks} ranks never fully "
        f"assembled at {rdv_addr[0]}:{rdv_addr[1]} within {timeout:.1f}s",
    )
    if len(addrs) != nranks:
        raise RendezvousError(
            f"rendezvous returned {len(addrs)} addresses, expected {nranks}"
        )
    return [tuple(a) for a in addrs]


# ----------------------------------------------------------------------
# mesh build
# ----------------------------------------------------------------------
def _accept_channels(
    listener: socket.socket,
    hello: struct.Struct,
    want: int,
    deadline: float,
    rank: int,
    place: Callable[..., tuple[list, int]],
) -> None:
    """The accept-and-handshake loop: admit ``want`` inbound mesh channels.

    Each connection must open with one ``hello`` record;
    ``place(*fields)`` says where it belongs — ``(slots, index)`` — or
    raises: ``ValueError`` for a stray or duplicate (dropped; the real
    peer will retry), anything typed the caller wants surfaced (a stale
    rejoin epoch) propagates.
    """
    listener.settimeout(0.2)
    buf = bytearray(hello.size)
    got = 0
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
            slots, src = place(*hello.unpack(buf))
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
) -> SocketComm:
    """Bind a mesh listener, rendezvous, build the mesh, return the comm.

    Outbound dials come first (they complete against the peers' listen
    backlogs without anyone accepting, so there is no ordering deadlock),
    then ``P - 1`` inbound accepts, each identified by its hello.

    The rendezvous reply is the full ``rank -> (host, port)`` map; its host
    column *is* the world's topology, so instead of discarding it after
    mesh assembly it is kept on the communicator (``comm.topology``) for
    topology-aware collectives (callers override it with an explicit
    topology, e.g. a simulated multi-host world over loopback).
    """
    deadline = time.monotonic() + timeout
    out_socks: list[socket.socket | None] = [None] * nranks
    in_socks: list[socket.socket | None] = [None] * nranks

    def place(magic: bytes, src: int) -> tuple[list, int]:
        if magic != _MAGIC or not 0 <= src < nranks:
            raise ValueError(f"bad mesh handshake from {src}")
        return in_socks, src

    listener = _bind_listener(host, 0, nranks)
    try:
        mesh_addr = (host, listener.getsockname()[1])
        addrs = _rendezvous_client(rdv_addr, rank, nranks, mesh_addr, timeout)
        for peer in range(nranks):
            if peer != rank:
                out_socks[peer] = _dial_channel(
                    addrs[peer], deadline, f"rank {peer}", _HELLO.pack(_MAGIC, rank)
                )
        _accept_channels(listener, _HELLO, nranks - 1, deadline, rank, place)
    except BaseException:
        _close_all(out_socks + in_socks)
        raise
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
        for reg, conn in _registrations(listener, None, lambda: self._closed):
            try:
                if not self._queue_if_rejoin(reg, conn):
                    raise ValueError("not a rejoin registration")
            except Exception:
                conn.close()

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
    socks: list[socket.socket] = []
    try:
        for direction in (0, 1):
            socks.append(
                _dial_channel(
                    tuple(addr), deadline, f"rejoining rank {joiner}",
                    _EHELLO.pack(_EMAGIC, comm.rank, direction, epoch),
                )
            )
    except BaseException:
        _close_all(socks)
        raise
    comm._install_peer(joiner, *socks)


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
    deadline = time.monotonic() + timeout
    out_socks: list[socket.socket | None] = [None] * nranks
    in_socks: list[socket.socket | None] = [None] * nranks
    listener = _bind_listener(host, 0, 2 * nranks)
    try:
        epoch, members, hosts = _register(
            rdv_addr,
            ("rejoin", rank, nranks, host, listener.getsockname()[1]),
            deadline,
            f"rank {rank}: the rejoin was not committed within {timeout:.1f}s "
            "(is the world calling ElasticContext.step() between iterations?)",
        )
        epoch, members = int(epoch), {int(m) for m in members}
        if rank not in members:
            raise RendezvousError(
                f"rejoin reply does not include rank {rank}: members {sorted(members)}"
            )

        def place(magic: bytes, src: int, direction: int, hello_epoch: int) -> tuple[list, int]:
            if magic != _EMAGIC or src not in members or src == rank or direction not in (0, 1):
                raise ValueError(f"bad rejoin handshake from {src}")
            if hello_epoch != epoch:
                raise StaleEpochError(
                    f"rank {src} dialed rejoining rank {rank} with epoch "
                    f"{hello_epoch}, but the committed rejoin epoch is {epoch}",
                    frame_epoch=hello_epoch,
                    current_epoch=epoch,
                )
            # direction 0 = member->joiner traffic: our inbound channel
            return (in_socks if direction == 0 else out_socks), src

        _accept_channels(listener, _EHELLO, 2 * (len(members) - 1), deadline, rank, place)
    except BaseException:
        _close_all(out_socks + in_socks)
        raise
    finally:
        listener.close()
    comm = SocketComm(rank, nranks, out_socks, in_socks, trace, op_timeout)
    comm.epoch = epoch
    comm.dead_ranks = set(range(nranks)) - members
    comm.topology = Topology(tuple(hosts)) if hosts else None
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
    ``"seed=7,drop=0.01"``) becomes the communicator's ``fault_plan`` for
    manual chaos runs — except on a ``rejoin``: a revived rank starts
    clean, or the kill that took it down would fire again. A
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
    topo = normalize_topology(cfg.topology, nranks)
    fn = program if callable(program) else _resolve_program(program)

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
            rank, nranks, rendezvous, host, rendezvous_timeout, trace, cfg.op_timeout
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
            rank, nranks, rendezvous, host, rendezvous_timeout, trace, cfg.op_timeout
        )
        comm.fault_plan = FaultPlan.coerce(cfg.fault_plan)
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
