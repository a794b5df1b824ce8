"""Abstract communicator interface (the MPI stand-in).

The collective algorithms in :mod:`repro.collectives` are written against
this interface only; any backend that provides blocking point-to-point
``send``/``recv`` with FIFO matching per (source, dest, context, tag)
channel — the semantics MPI guarantees — can execute them. The library
ships four implementations, selected by the ``backend=`` argument of
:func:`~repro.runtime.run_ranks` (the last three share one launcher, one
queueing communicator and one blocked-receive loop,
:mod:`repro.runtime.mesh`: no receiver threads — a rank that blocks in a
transport call reads its own channels, so messages and peer failures are
noticed at transport calls and probes, as in MPI without an asynchronous
progress thread):

* :mod:`repro.runtime.thread_backend` — one thread per rank, one queue
  table per rank (fast, in-process);
* :mod:`repro.runtime.process_backend` — one OS process per rank with
  real serialized transport over pipes;
* :mod:`repro.runtime.shmem_backend` — the pipe transport plus a
  shared-memory slab that large frames are decoded out of in place;
* :mod:`repro.runtime.socket_backend` — one OS process per rank with
  TCP framing (the transport that spans machines).

Layering
--------
:class:`Communicator` implements the *traced* operations (``send``,
``recv``, ``isend``, ``irecv``, ``sendrecv``, ``barrier``, ``bcast``, …)
once, on top of four small transport hooks that each backend provides:

``_alloc_seq``
    allocate the FIFO sequence number of a (src, dst, context, tag) channel;
``_transport_send`` / ``_transport_recv``
    move one payload without touching the trace;
``_probe``
    non-blocking test for a pending matching message.

Every message is addressed by ``(peer, context, tag)``. The ``tag`` is
the caller's int, unchanged; the ``context``
(:mod:`~repro.runtime.context`) is the communicator's own, a path of
creation slots fixed — and packed to bytes — when the communicator is
made, so no layer rewrites a tag. Peers go through one *mapping hook*,
:meth:`Communicator._map_peer`, the identity on a backend. A *proxy*
communicator carries traffic of another communicator under a context of
its own instead of owning a transport: :class:`ProxyComm` holds
``inner`` and writes every delegation (the four transport hooks, the
mapping hook, ``_abort_state``, ``world_rank``, ``op_timeout``,
``epoch``, ``topology``, ``backend``) exactly once, as explicit methods;
a concrete proxy overrides only what it changes:

* :class:`SubCommunicator` (``comm.split(color, key)`` /
  ``comm.subgroup(ranks)``) renumbers a rank subset from 0 and restricts
  the topology — a group is a renumbering over one transport, not a
  transport of its own, so groups work identically on every backend
  without the backends knowing;
* :class:`~repro.runtime.elastic.ElasticWorld` is the sub-communicator of
  one membership epoch and adds the stale-epoch check;
* :mod:`repro.runtime.nonblocking` buffers the trace events of a
  background collective.

Proxies compose in any order (a split of a split, a non-blocking
collective on an elastic world) because every hook delegates inward, and
``comm.backend`` names the innermost communicator — the one that owns
the wire — from anywhere in a stack.

The seam under every message
----------------------------
:meth:`Communicator.send` / :meth:`Communicator.recv` are the only
callers of ``_transport_send`` / ``_transport_recv``, so what must
happen once per message happens there, against state of the *backend*
communicator: fault injection (``comm.fault_plan``, a
:class:`~repro.runtime.faults.FaultPlan` or ``None`` — one ``is None``
test per message when off; "die" is the backend's :meth:`_die`) and the
elastic membership state (``epoch``, ``dead_ranks``, the abort flag,
committed by the ``_elastic_*`` hooks defined here once for every
backend; a backend that can revive a rank answers ``_next_join`` and
extends ``_elastic_regrow``).

Topology
--------
:attr:`Communicator.topology` optionally carries a
:class:`~repro.runtime.topology.Topology` (rank -> host map): derived
from the rendezvous address map on the socket backend, injected via
``run_ranks(..., topology=...)`` elsewhere, and restricted automatically
on sub-communicators. Hierarchical collectives and the algorithm
selector read it; ``None`` means "assume flat".

Byte accounting
---------------
``payload_nbytes`` defines the wire size of every supported payload type:
objects exposing a ``comm_nbytes()`` protocol method (sparse streams,
quantized blocks), NumPy arrays, scalars, and (recursively) tuples/lists.
These sizes feed both the trace (for netsim replay) and the analytic cost
model, so they must be consistent across the library.
"""

from __future__ import annotations

import abc
import threading
import time
from typing import Any

import numpy as np

from ..config import STREAM_HEADER_BYTES
from .context import format_context, pack_context, unpack_context
from .faults import DELAY, DROP, RankKilledError
from .topology import check_topology_size
from .trace import Trace

__all__ = [
    "Communicator",
    "ProxyComm",
    "SubCommunicator",
    "Handle",
    "CompletedHandle",
    "DeferredRecvHandle",
    "WorldAbortedError",
    "RankFailedError",
    "CommTimeoutError",
    "StaleEpochError",
    "AbortState",
    "payload_nbytes",
    "copy_payload",
    "TAG_USER_LIMIT",
]

#: user code may use tags in [0, TAG_USER_LIMIT); collectives allocate blocks
#: above it so that user traffic never collides with internal traffic.
TAG_USER_LIMIT = 1 << 16

#: number of distinct tags reserved for a single collective invocation.
COLLECTIVE_TAG_BLOCK = 64


class WorldAbortedError(RuntimeError):
    """Raised in ranks blocked on communication after another rank failed."""


class RankFailedError(WorldAbortedError):
    """A specific peer rank died; carries the failed rank id.

    Raised from blocked operations when the backend can attribute the
    failure to a rank — a channel reading EOF without FIN, a
    send hitting a closed channel, the parent collecting a dead process.
    Consumers that can degrade gracefully (e.g. asynchronous SGD) catch
    this and continue with the surviving ranks' contributions.
    """

    def __init__(self, rank: int, message: "str | None" = None) -> None:
        super().__init__(message or f"rank {rank} failed; world aborted")
        self.rank = int(rank)

    def __reduce__(self):
        # default exception pickling rebuilds from args alone, which would
        # feed the message string into the ``rank`` parameter
        return (type(self), (self.rank, self.args[0] if self.args else None))


class StaleEpochError(RuntimeError):
    """Traffic or an operation belongs to a superseded world epoch.

    Every elastic membership change (:func:`~repro.runtime.elastic.shrink`,
    a rendezvous rejoin) bumps the world epoch. Frames on the wire carry
    the sender's epoch; receivers drop frames from dead epochs, and
    operations attempted *through* a superseded elastic world — or a
    rejoin handshake presenting an old epoch — raise this instead of
    silently corrupting the post-shrink collectives.
    """

    def __init__(
        self,
        message: "str | None" = None,
        frame_epoch: "int | None" = None,
        current_epoch: "int | None" = None,
    ) -> None:
        if message is None:
            message = (
                f"stale world epoch {frame_epoch} "
                f"(current epoch is {current_epoch})"
            )
        super().__init__(message)
        self.frame_epoch = frame_epoch
        self.current_epoch = current_epoch

    def __reduce__(self):
        # keep the attributes across the process backend's pickle round-trip
        msg = self.args[0] if self.args else None
        return (type(self), (msg, self.frame_epoch, self.current_epoch))


class CommTimeoutError(TimeoutError):
    """A per-operation timeout (``run_ranks(..., op_timeout=)``) expired.

    Raised from a blocked send/recv whose peer made no progress within
    ``op_timeout`` seconds — a stalled (but not yet dead) peer surfaces
    here instead of hanging until the whole-run watchdog. ``context`` and
    ``tag`` are the blocked message's key: the communicator's context
    path and the tag it was given.
    """

    def __init__(
        self,
        message: str = "communication operation timed out",
        source: "int | None" = None,
        tag: "int | None" = None,
        timeout: "float | None" = None,
        context: tuple = (),
    ) -> None:
        super().__init__(message)
        self.source = source
        self.tag = tag
        self.timeout = timeout
        self.context = context

    @classmethod
    def expired(cls, op: str, peer: int, key: bytes, tag: int, timeout: float) -> "CommTimeoutError":
        """The error of a blocked ``op`` (``"send to"`` / ``"recv from"``)
        on the packed context ``key`` whose ``peer`` made no progress for
        ``timeout`` seconds."""
        context = unpack_context(key)
        where = f"context {format_context(context)}, tag {tag}" if context else f"tag {tag}"
        return cls(
            f"{op} rank {peer} ({where}) made no progress within op_timeout={timeout}s",
            source=peer,
            tag=tag,
            timeout=timeout,
            context=context,
        )

    def __reduce__(self):
        # keep the attributes across the process backend's pickle round-trip
        msg = self.args[0] if self.args else "communication operation timed out"
        return (type(self), (msg, self.source, self.tag, self.timeout, self.context))


class AbortState:
    """World-failure flag that remembers *which* rank failed first.

    A drop-in upgrade of the bare ``threading.Event`` the backends used:
    ``set()`` optionally records the failed rank and why (first writer
    wins) and ``error()`` builds the matching typed exception for blocked
    peers —
    :class:`RankFailedError` when the culprit is known,
    :class:`WorldAbortedError` otherwise.
    """

    __slots__ = ("_event", "_lock", "failed_rank", "reason", "_failed_ranks")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self.failed_rank: "int | None" = None
        #: what the first attributed failure was, when the reporter knew
        #: more than "the rank is gone" (e.g. a corrupt stream).
        self.reason: "str | None" = None
        self._failed_ranks: set[int] = set()

    def is_set(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: "float | None" = None) -> bool:
        return self._event.wait(timeout)

    def set(self, failed_rank: "int | None" = None, reason: "str | None" = None) -> None:
        if failed_rank is not None:
            with self._lock:
                if self.failed_rank is None:
                    self.failed_rank = int(failed_rank)
                    self.reason = reason
                self._failed_ranks.add(int(failed_rank))
        self._event.set()

    @property
    def failed_ranks(self) -> frozenset[int]:
        """Every rank this state has attributed a failure to.

        ``failed_rank`` keeps the first-writer-wins single culprit for the
        typed error; the elastic shrink barrier reads the full set so a
        multi-rank failure is attributed in one pass.
        """
        with self._lock:
            return frozenset(self._failed_ranks)

    def error(self) -> WorldAbortedError:
        """A fresh typed exception describing the recorded failure."""
        if self.failed_rank is not None:
            return RankFailedError(self.failed_rank, self.reason)
        return WorldAbortedError("another rank failed; aborting")


#: how often a blocked send or receive rechecks the failure flag and its
#: deadline when nothing wakes it earlier (seconds).
_ABORT_POLL_S = 0.05


def payload_nbytes(obj: Any) -> int:
    """Wire size in bytes of a message payload.

    Mirrors a compact binary serialization: numpy arrays cost their buffer
    plus a small header, structured payloads cost the sum of their parts,
    scalars cost one word. Objects may override via ``comm_nbytes()``.
    """
    if obj is None:
        return 0
    hook = getattr(obj, "comm_nbytes", None)
    if callable(hook):
        return int(hook())
    if isinstance(obj, np.ndarray):
        return STREAM_HEADER_BYTES + int(obj.nbytes)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, str):
        return 8 + len(obj.encode())
    if isinstance(obj, bytes):
        return 8 + len(obj)
    if isinstance(obj, (tuple, list)):
        return 8 + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 8 + sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    raise TypeError(f"cannot measure wire size of payload type {type(obj).__name__}")


def copy_payload(obj: Any) -> Any:
    """Deep-enough copy of a payload so sender and receiver never alias.

    The thread backend shares one address space; MPI semantics give the
    receiver an independent buffer, so sends copy by default. (The process
    backend gets this isolation for free from serialization.)
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes, np.integer, np.floating)):
        return obj
    copier = getattr(obj, "copy", None)
    if isinstance(obj, (tuple, list)):
        return type(obj)(copy_payload(x) for x in obj)
    if isinstance(obj, dict):
        return {k: copy_payload(v) for k, v in obj.items()}
    if callable(copier):
        return copier()
    # frozen dataclass payloads (QuantizedBlock) are treated as immutable
    return obj


class Communicator(abc.ABC):
    """A group of ``size`` ranks with point-to-point messaging.

    Concrete backends must implement the four transport hooks
    (:meth:`_alloc_seq`, :meth:`_transport_send`, :meth:`_transport_recv`,
    :meth:`_probe`) and set :attr:`trace`; every traced operation has a
    shared implementation here.
    """

    rank: int
    size: int
    #: the trace this communicator's events are recorded into. For ordinary
    #: backends this is the world trace; proxy communicators (nonblocking
    #: collectives) point it at a private buffer.
    trace: Trace
    #: optional rank -> host map (:class:`~repro.runtime.topology.Topology`);
    #: ``None`` means the world is assumed flat. Backends/launchers set it.
    topology: Any = None

    #: per-operation send/recv timeout in seconds (``None`` = block forever,
    #: bounded only by the run watchdog). Set by backends from
    #: ``run_ranks(..., op_timeout=)``; proxies delegate to what they wrap.
    op_timeout: "float | None" = None

    #: elastic world epoch stamped on every outgoing wire frame. Backend
    #: communicators start at 0; :func:`~repro.runtime.elastic.shrink` and
    #: rendezvous rejoins bump it. Receivers drop frames whose epoch is
    #: older than their own (counted in ``stale_epoch_rejected`` on the
    #: backends that have a wire).
    epoch: int = 0

    #: the working :class:`~repro.runtime.elastic.ElasticWorld` of the
    #: current epoch, once a membership change formed one over this
    #: (backend) communicator.
    _elastic_world: Any = None

    #: this rank's world-failure flag. Backends provide it, settable: an
    #: elastic membership change *replaces* it (see the ``_elastic_*`` hooks).
    aborted: "AbortState | None" = None

    #: fault injection: a :class:`~repro.runtime.faults.FaultPlan` applied
    #: to every message of this *backend* communicator, or ``None`` (off).
    #: Launchers set it (``run_ranks(fault_plan=)``); proxies reach it
    #: through :attr:`backend`, so it survives ``shrink()``.
    fault_plan: Any = None
    #: transport operations (sends + receives) counted under the plan.
    _fault_ops: int = 0

    _collective_counter: int = 0
    #: slots handed out so far by :meth:`_next_slot`.
    _children: int = 0
    #: this communicator's context (see :attr:`context`) and the same path
    #: packed once (:func:`~repro.runtime.context.pack_context`): the key
    #: its messages are framed and queued under.
    _context: tuple = ()
    _context_key: bytes = b""
    #: inbound messages of a backend that queues them:
    #: ``(source, context key, tag) -> deque of (payload, nbytes, seq)``;
    #: a queue exists only while it holds a message (see :meth:`_take`).
    _queues: dict

    # ------------------------------------------------------------------
    # transport hooks (backend-provided)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _alloc_seq(self, dest: int, context: tuple, tag: int) -> int:
        """Allocate the FIFO sequence number for the (rank, dest, context, tag) channel."""

    @abc.abstractmethod
    def _transport_send(self, obj: Any, nbytes: int, seq: int, dest: int, key: bytes, tag: int) -> None:
        """Move one payload to ``dest`` without recording trace events."""

    @abc.abstractmethod
    def _transport_recv(self, source: int, key: bytes, tag: int) -> tuple[Any, int, int]:
        """Blocking matching receive; returns ``(payload, nbytes, seq)``."""

    @abc.abstractmethod
    def _probe(self, source: int, key: bytes, tag: int) -> bool:
        """Non-blocking test: is a matching message already deliverable?"""

    def _take(self, want: tuple) -> "tuple[Any, int, int] | None":
        """The next queued message on ``want`` or None (the lock guarding
        :attr:`_queues` held); the pop that empties a queue deletes it."""
        queue = self._queues.get(want)  # a queue that exists holds a message
        if queue is not None and len(queue) == 1:
            del self._queues[want]
        return queue.popleft() if queue else None

    @property
    def context(self) -> tuple:
        """The path of creation slots from the backend communicator
        (``()``) to this one — what keys its messages beside the tag."""
        return self._context

    def _map_peer(self, peer: int) -> int:
        """Hook for proxy communicators that renumber ranks (sub-comms)."""
        return peer

    def _abort_state(self) -> "AbortState | None":
        """This rank's :class:`AbortState` (:attr:`aborted`).

        Proxies delegate inward, so non-blocking probes anywhere in a
        proxy stack can observe world failure. ``None`` means the backend
        has no abort flag (nothing to observe).
        """
        return self.aborted

    @property
    def world_rank(self) -> int:
        """The world-level rank trace events are attributed to.

        Equal to :attr:`rank` on backend communicators; proxies that
        renumber ranks (sub-communicators) delegate to their parent so
        byte accounting always lands on the real rank.
        """
        return self.rank

    @property
    def backend(self) -> "Communicator":
        """The innermost communicator — the one that owns the wire.

        ``self`` on backend communicators; proxies delegate inward. Fault
        and elastic state live there, whatever stack a message entered.
        """
        return self

    # ------------------------------------------------------------------
    # fault injection (state of the backend communicator)
    # ------------------------------------------------------------------
    def _die(self) -> None:
        """A :class:`FaultPlan` kill fired on this rank.

        In-process ranks unwind like a crash (the runner aborts the world
        naming this rank); ranks that own a process override this to exit
        for real.
        """
        raise RankKilledError(self.rank, self._fault_ops)

    def _fault_tick(self) -> None:
        self._fault_ops += 1
        if self.fault_plan.kills(self.rank, self._fault_ops):
            self._die()

    def _fault_send(self, dest: int, context: tuple, tag: int, seq: int) -> bool:
        """Apply the plan to one outgoing message; True = lost on the wire."""
        self._fault_tick()
        action, delay = self.fault_plan.action(self.rank, dest, context, tag, seq)
        if action == DELAY:
            time.sleep(delay)
        return action == DROP

    # ------------------------------------------------------------------
    # traced point-to-point operations
    # ------------------------------------------------------------------
    def _check_peer(self, peer: int, role: str) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(f"{role} rank {peer} out of range [0, {self.size})")
        if peer == self.rank:
            if role == "dest":
                raise ValueError("self-sends are not supported; use local state")
            raise ValueError("self-receives are not supported")

    def _check_tag(self, tag: int) -> None:
        # negative tags are reserved for transport-internal framing (e.g. the
        # process backend's FIN marker); rejecting them here keeps the
        # contract identical on every backend.
        if tag < 0:
            raise ValueError(f"message tags must be non-negative, got {tag}")

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking (buffered) send of ``obj`` to rank ``dest``."""
        self._check_peer(dest, "dest")
        self._check_tag(tag)
        dest = self._map_peer(dest)
        context = self._context
        nbytes = payload_nbytes(obj)
        seq = self._alloc_seq(dest, context, tag)
        self.trace.record_send(self.world_rank, dest, tag, seq, nbytes, context)
        backend = self.backend
        if backend.fault_plan is not None and backend._fault_send(dest, context, tag, seq):
            return  # dropped after tracing; the matching recv never completes
        self._transport_send(obj, nbytes, seq, dest, self._context_key, tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive of the next message from ``source`` on ``tag``."""
        self._check_peer(source, "source")
        self._check_tag(tag)
        source = self._map_peer(source)
        backend = self.backend
        if backend.fault_plan is not None:
            backend._fault_tick()
        payload, nbytes, seq = self._transport_recv(source, self._context_key, tag)
        self.trace.record_recv(self.world_rank, source, tag, seq, nbytes, self._context)
        return payload

    def isend(self, obj: Any, dest: int, tag: int = 0) -> "Handle":
        """Non-blocking send; returns a completion handle.

        Both backends implement buffered-send semantics: the payload is
        copied (or serialized) immediately, so the operation is already
        complete when the handle is returned.
        """
        self.send(obj, dest, tag)
        return CompletedHandle()

    def irecv(self, source: int, tag: int = 0) -> "Handle":
        """Non-blocking receive; ``wait()`` yields the payload."""
        return DeferredRecvHandle(self, source, tag)

    # ------------------------------------------------------------------
    # local bookkeeping
    # ------------------------------------------------------------------
    def compute(self, nbytes: int, label: str = "") -> None:
        """Charge ``nbytes`` of local memory-bound work to the trace."""
        if nbytes < 0:
            raise ValueError(f"compute bytes must be non-negative, got {nbytes}")
        if nbytes:
            self.trace.record_compute(self.world_rank, nbytes, label)

    def mark(self, label: str) -> None:
        """Insert a phase marker into the trace (zero cost)."""
        self.trace.record_mark(self.world_rank, label)

    def next_collective_tag(self) -> int:
        """Allocate a tag block for one collective invocation.

        All ranks call collectives in the same order (the MPI contract), so
        per-communicator counters stay in sync without communication.
        """
        tag = TAG_USER_LIMIT + self._collective_counter * COLLECTIVE_TAG_BLOCK
        self._collective_counter += 1
        return tag

    # ------------------------------------------------------------------
    # composite operations
    # ------------------------------------------------------------------
    def sendrecv(self, obj: Any, peer: int, tag: int = 0) -> Any:
        """Simultaneous exchange with ``peer`` (both directions overlap)."""
        req = self.isend(obj, peer, tag)
        incoming = self.recv(peer, tag)
        req.wait()
        return incoming

    def barrier(self, tag: int | None = None) -> None:
        """Dissemination barrier built from point-to-point messages."""
        if self.size == 1:
            return
        base = self.next_collective_tag() if tag is None else tag
        distance = 1
        round_no = 0
        while distance < self.size:
            dest = (self.rank + distance) % self.size
            src = (self.rank - distance) % self.size
            req = self.isend(0, dest, base + round_no)
            self.recv(src, base + round_no)
            req.wait()
            distance *= 2
            round_no += 1

    def bcast(self, obj: Any, root: int = 0, tag: int | None = None) -> Any:
        """Binomial-tree broadcast from ``root`` (MPICH-style MST bcast)."""
        base = self.next_collective_tag() if tag is None else tag
        rel = (self.rank - root) % self.size
        mask = 1
        while mask < self.size:
            if rel & mask:
                src = (self.rank - mask) % self.size
                obj = self.recv(src, base)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if rel + mask < self.size:
                dest = (self.rank + mask) % self.size
                self.send(obj, dest, base)
            mask >>= 1
        return obj

    def gather_to_root(self, obj: Any, root: int = 0, tag: int | None = None) -> list[Any] | None:
        """Flat gather: every rank sends to ``root``; root returns the list."""
        base = self.next_collective_tag() if tag is None else tag
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for src in range(self.size):
                if src != root:
                    out[src] = self.recv(src, base)
            return out
        self.send(obj, root, base)
        return None

    # ------------------------------------------------------------------
    # sub-communicators
    # ------------------------------------------------------------------
    def _next_slot(self) -> int:
        """Allocate the child slot of one split, subgroup or launch.

        Every rank creates children in the same program order (the
        collective contract), so the counter agrees on every member
        without communication. Groups created in the same slot share a
        context, which is safe because their rank sets are disjoint.
        """
        slot = self._children
        self._children += 1
        return slot

    def subgroup(self, ranks: "list[int] | tuple[int, ...]") -> "SubCommunicator | None":
        """Deterministic group creation — collective, but communication-free.

        Every rank of this communicator must call ``subgroup`` in the same
        program order; ranks creating *disjoint* groups may pass different
        lists in the same call slot (the host-group pattern of hierarchical
        collectives), ranks outside the group they pass get ``None`` back.
        Use :meth:`split` when memberships must be negotiated at runtime.

        ``ranks`` orders the new communicator: ``ranks[i]`` becomes sub-rank
        ``i``. Returns the member's :class:`SubCommunicator`, or ``None``.
        """
        members = tuple(int(r) for r in ranks)
        if not members:
            raise ValueError("a sub-communicator needs at least one rank")
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate ranks in subgroup: {members}")
        for r in members:
            if not 0 <= r < self.size:
                raise ValueError(f"rank {r} out of range [0, {self.size})")
        slot = self._next_slot()
        if self.rank not in members:
            return None
        return SubCommunicator(self, members, slot)

    def split(self, color: Any, key: int = 0) -> "SubCommunicator | None":
        """MPI_Comm_split: partition the ranks by ``color``, order by ``key``.

        Collective over this communicator (one gather + one broadcast to
        exchange the colors). Ranks with equal ``color`` form one
        sub-communicator whose ranks are ordered by ``(key, parent rank)``;
        ``color=None`` opts out (the ``MPI_UNDEFINED`` analog) and returns
        ``None``. Works identically on every backend — the group remaps
        ranks onto the parent's transport hooks under a context of its own.
        """
        if not isinstance(key, int):
            raise TypeError(f"split key must be an int, got {type(key).__name__}")
        # validate the color *before* any counter bump or communication: an
        # invalid color (e.g. a numpy array, whose == breaks the membership
        # comparison) must not desynchronize the collective and child
        # counters of the surviving ranks
        if color is not None:
            try:
                hash(color)
            except TypeError:
                raise TypeError(
                    "split color must be hashable (colors must compare "
                    f"atomically across ranks), got {type(color).__name__}"
                ) from None
        base = self.next_collective_tag()
        everyone = self.gather_to_root((color, key), root=0, tag=base)
        everyone = self.bcast(everyone, root=0, tag=base + 1)
        if color is None:
            self._next_slot()  # keep child counters aligned world-wide
            return None
        members = sorted(
            (r for r, (c, _k) in enumerate(everyone) if c == color),
            key=lambda r: (everyone[r][1], r),
        )
        return self.subgroup(members)

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def shrink(self, dead: Any = (), timeout: "float | None" = None):
        """Membership barrier after a rank failure: agree on the survivors
        and return the working world of the next epoch.

        Convenience front-end to :func:`repro.runtime.elastic.shrink`;
        collective over the survivors. See :mod:`repro.runtime.elastic`
        for the protocol and its caveats.
        """
        from .elastic import shrink as _shrink  # local: avoid import cycle

        return _shrink(self, dead=dead, timeout=timeout)

    # The three commits of a membership change, on the backend
    # communicator. A backend supplies the state they act on: ``epoch``,
    # ``dead_ranks`` (ranks a membership change declared dead — late
    # failures attributed to them must not re-abort the smaller world) and
    # a settable ``aborted`` (this rank's :class:`AbortState`; replaced,
    # never cleared, so a thread still blocked on the old flag unwinds).
    def _elastic_reset(self, dead_ranks, epoch: int) -> None:
        """Record the dead, arm a fresh abort flag, move to ``epoch``."""
        self.dead_ranks.update({int(r) for r in dead_ranks})
        self.aborted = AbortState()
        self.epoch = int(epoch)

    def _elastic_note_dead(self, ranks) -> None:
        """Attribute mid-barrier failures and clear the abort flag once
        every recorded culprit is accounted for (unattributed aborts are
        left standing — they are not a membership event)."""
        self.dead_ranks.update({int(r) for r in ranks})
        state = self.aborted
        if state.is_set() and state.failed_ranks and state.failed_ranks <= self.dead_ranks:
            self.aborted = AbortState()

    def _elastic_regrow(self, rank: int, epoch: int, addr=None, timeout=None) -> None:
        """Commit a rejoin: ``rank`` is alive again in the new epoch.

        ``addr`` is where :meth:`_next_join` said the joiner listens (a
        backend with connections dials it within ``timeout`` seconds)."""
        self.dead_ranks.discard(int(rank))
        self.epoch = int(epoch)

    def _next_join(self, members, epoch: int):
        """(Elastic leader) Take the next committable rejoin of a rank
        outside ``members``: release the joiner into ``epoch`` with
        ``members`` plus itself, and return ``(rank, address | None)`` for
        every member's :meth:`_elastic_regrow`; ``None`` when nothing is
        pending or the backend cannot revive a rank."""
        return None

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(rank={self.rank}, size={self.size})"


class ProxyComm(Communicator):
    """A communicator that carries traffic over another one under its own
    ``context``.

    Holds ``inner`` and delegates every hook to it — the one place that
    delegation is written. Subclasses override what they change (a rank
    mapping, the topology, the trace) and nothing else; no
    ``__getattr__``, so the message path stays explicit.
    """

    def __init__(self, inner: Communicator, context: tuple) -> None:
        self.inner = inner
        self.rank = inner.rank
        self.size = inner.size
        self.trace = inner.trace
        self._context = tuple(context)
        self._context_key = pack_context(self._context)

    @property
    def backend(self) -> Communicator:
        return self.inner.backend

    @property
    def world_rank(self) -> int:
        return self.inner.world_rank

    @property
    def op_timeout(self) -> "float | None":
        return self.inner.op_timeout

    @property
    def epoch(self) -> int:
        return self.inner.epoch

    @property
    def topology(self) -> Any:
        return self.inner.topology

    def _map_peer(self, peer: int) -> int:
        return self.inner._map_peer(peer)

    # peers arrive already mapped, with this proxy's context
    def _alloc_seq(self, dest: int, context: tuple, tag: int) -> int:
        return self.inner._alloc_seq(dest, context, tag)

    def _transport_send(self, obj: Any, nbytes: int, seq: int, dest: int, key: bytes, tag: int) -> None:
        self.inner._transport_send(obj, nbytes, seq, dest, key, tag)

    def _transport_recv(self, source: int, key: bytes, tag: int) -> tuple[Any, int, int]:
        return self.inner._transport_recv(source, key, tag)

    def _probe(self, source: int, key: bytes, tag: int) -> bool:
        return self.inner._probe(source, key, tag)

    def _abort_state(self) -> "AbortState | None":
        return self.inner._abort_state()


class SubCommunicator(ProxyComm):
    """A rank subset of a parent communicator, renumbered from zero.

    Created by :meth:`Communicator.split` / :meth:`Communicator.subgroup`
    in the parent's child ``slot``: its context is the parent's plus that
    slot. All traffic flows through the parent's transport hooks with
    ranks mapped back to parent numbering, so the construction needs
    nothing from the backend and nests arbitrarily (splits of splits,
    non-blocking collectives on splits). Trace events keep world-rank
    attribution; the parent's topology (if any) is restricted to the
    members automatically.
    """

    def __init__(self, parent: Communicator, members: tuple[int, ...], slot: int) -> None:
        super().__init__(parent, (*parent.context, slot))
        self._members = members
        self.rank = members.index(parent.rank)
        self.size = len(members)
        self._topology = None
        if parent.topology is not None:
            # the same size check every launcher path applies: a topology
            # that does not describe the parent world cannot be restricted
            check_topology_size(parent.topology, parent.size)
            self._topology = parent.topology.restrict(members)

    @property
    def parent(self) -> Communicator:
        return self.inner

    @property
    def topology(self) -> Any:
        return self._topology

    @property
    def parent_ranks(self) -> tuple[int, ...]:
        """Parent-rank of every sub-rank (``parent_ranks[sub] -> parent``)."""
        return self._members

    # -- mapping hook: composes with whatever the parent maps -----------
    def _map_peer(self, peer: int) -> int:
        return self.inner._map_peer(self._members[peer])

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SubCommunicator(rank={self.rank}, size={self.size}, "
            f"parent_ranks={list(self._members)})"
        )


class Handle(abc.ABC):
    """Completion handle for non-blocking operations (MPI request analog)."""

    @abc.abstractmethod
    def wait(self) -> Any:
        """Block until complete; returns the payload for receive handles."""

    @abc.abstractmethod
    def test(self) -> bool:
        """Non-blocking completion probe."""


class CompletedHandle(Handle):
    """Handle of an already-finished operation (buffered sends)."""

    __slots__ = ("_value",)

    def __init__(self, value: Any = None) -> None:
        self._value = value

    def wait(self) -> Any:
        return self._value

    def test(self) -> bool:
        return True


class DeferredRecvHandle(Handle):
    """irecv handle: performs the matching receive at ``wait()`` time."""

    __slots__ = ("_comm", "_source", "_tag", "_done", "_value")

    def __init__(self, comm: Communicator, source: int, tag: int) -> None:
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = False
        self._value: Any = None

    def wait(self) -> Any:
        if not self._done:
            # a blocking recv observes world abort through the transport; an
            # up-front check just surfaces it without touching the queues
            # when the world is already gone
            state = self._comm._abort_state()
            if state is not None and state.is_set() and not self.test_quiet():
                raise state.error()
            self._value = self._comm.recv(self._source, self._tag)
            self._done = True
        return self._value

    def test_quiet(self) -> bool:
        """Completion probe that never raises (abort looks like 'not yet')."""
        if self._done:
            return True
        comm = self._comm
        return comm._probe(comm._map_peer(self._source), comm._context_key, self._tag)

    def test(self) -> bool:
        if self.test_quiet():
            return True
        # the matching message can never arrive once the world aborted:
        # raise like a blocking recv would instead of returning False forever
        state = self._comm._abort_state()
        if state is not None and state.is_set():
            raise state.error()
        return False
