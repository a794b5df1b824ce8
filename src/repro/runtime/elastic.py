"""Elastic worlds: shrink after rank failure, regrow through the rendezvous.

SparCML (§6) targets long data-parallel runs where rank loss is expected,
and its asynchronous decentralized SGD tolerates stale or partial updates
by design — the natural consumer of a world that can *shrink* past a dead
rank and later *regrow* when the rank restarts. PR 6 built the typed
failure surface (:class:`~repro.runtime.comm.RankFailedError`,
:class:`~repro.runtime.comm.CommTimeoutError`, deterministic
:class:`~repro.runtime.faults.FaultPlan` injection) but left the world
static; this module adds the membership layer on top of it.

Epochs
------
Every membership change bumps the backend communicator's *world epoch*.
The epoch travels in every wire frame header
(:mod:`~repro.runtime.wire`); receivers drop frames from dead epochs
(counted in ``comm.stale_epoch_rejected``), and operations attempted
through a superseded elastic world raise the typed
:class:`~repro.runtime.comm.StaleEpochError`. Each epoch's world also has
a context of its own, ``(e<epoch>,)``, and its membership barrier
``(e<epoch>, barrier)`` (:mod:`~repro.runtime.context`): no split or
launch produces either, so even on the thread backend — which has no
wire — the post-shrink collectives can never match pre-shrink traffic.

Shrink
------
:func:`shrink` (also reachable as ``comm.shrink()``) is collective over
the survivors: each rank gathers what it knows about the dead (the
:class:`~repro.runtime.comm.AbortState` attribution), the lowest-ranked
survivor runs a leader-based membership barrier with bounded per-round
timeouts (peers that fail *during* the barrier are folded into the dead
set and the round retried), and everyone returns the same
:class:`ElasticWorld` — a deterministically renumbered
:class:`~repro.runtime.comm.SubCommunicator` of the survivors, pinned to
the new epoch. Works on all four backends because it is built from the
ordinary transport hooks.

Grow / rejoin
-------------
On the socket backend a restarted rank joins again through the
rendezvous, which rank 0 keeps open (``serve-rank --elastic`` /
``--rejoin``) — the same registration, reply and mesh handshake as a
first join, with the rejoiner as the last member; on the thread backend
a fresh thread queues a join request on the shared world
(:func:`thread_rejoin`). Either way the join is *committed between
iterations*: every member calls :func:`grow` (``comm.grow()``) on its
current world; the leader takes the next join from its backend
communicator's one hook, ``_next_join(members, epoch) -> (rank, address
| None) | None``, which releases the joiner into the next epoch, and
broadcasts it (or ``None``); members commit it with ``_elastic_regrow``
(on the socket backend, each dials both channels to the joiner), the
epoch bumps, and ``grow`` returns the regrown :class:`ElasticWorld` —
or, with nothing pending, the world it was called on. The world a
membership change returns is the only record of which world is current.
State (model parameters etc.) is the consumer's to re-broadcast — see
:func:`~repro.mlopt.async_sgd.distributed_sgd_async`.

Caveats: the barrier is crash-consistent, not Byzantine — a false-positive
timeout (an alive but stalled peer) is treated as a death; and on the
socket backend the rendezvous lives in rank 0's ``serve-rank`` process,
so rank 0 itself cannot be revived.
"""

from __future__ import annotations

import threading
from typing import Any

from .comm import (
    AbortState,
    CommTimeoutError,
    Communicator,
    ProxyComm,
    RankFailedError,
    StaleEpochError,
    SubCommunicator,
    WorldAbortedError,
)
from .context import BARRIER, epoch_slot

__all__ = [
    "ElasticWorld",
    "grow",
    "shrink",
    "thread_rejoin",
]

#: default per-round timeout of the membership barrier (seconds); used when
#: the backend has no ``op_timeout`` of its own.
DEFAULT_BARRIER_TIMEOUT = 5.0

#: budget for wiring a rejoined rank into the mesh (seconds).
DEFAULT_GROW_TIMEOUT = 20.0


def _members_of(world: Communicator) -> tuple[int, ...]:
    """Current membership of ``world`` in backend rank numbering."""
    if isinstance(world, ElasticWorld):
        return world.parent_ranks
    if isinstance(world, SubCommunicator):
        raise ValueError(
            "elastic operations need a backend communicator or an "
            "ElasticWorld, not an ordinary split/subgroup"
        )
    return tuple(range(world.backend.size))


def _superseded(epoch: int, current: int) -> StaleEpochError:
    """The error of an operation through the world of ``epoch`` once the
    transport moved to ``current``."""
    return StaleEpochError(
        f"this world belongs to epoch {epoch} but the transport has moved to "
        f"epoch {current}; use the world the latest shrink() or grow() returned",
        frame_epoch=epoch,
        current_epoch=current,
    )


class ElasticWorld(SubCommunicator):
    """The working world of one elastic epoch: survivors renumbered from 0.

    A :class:`~repro.runtime.comm.SubCommunicator` of the backend
    communicator whose members are the epoch's alive ranks (sorted, so
    renumbering is deterministic on every rank) and whose context,
    ``(e<epoch>,)``, is the epoch's. Once the backend moves to a newer
    epoch — another shrink, a committed rejoin — every operation through
    this world raises :class:`~repro.runtime.comm.StaleEpochError`
    instead of leaking traffic into the new membership.
    """

    def __init__(self, backend: Communicator, members, epoch: int) -> None:
        super().__init__(backend, tuple(int(m) for m in members), epoch_slot(epoch))
        self._epoch = int(epoch)

    @property
    def epoch(self) -> int:
        return self._epoch

    # a channel maps its peer through this hook (``Communicator._channel``)
    # at its first message and again whenever the backend's epoch moved, so
    # every operation after a membership change passes here: the one choke
    # point where a superseded world can be rejected with the typed error
    def _map_peer(self, peer: int) -> int:
        current = self.inner.epoch
        if current != self._epoch:
            raise _superseded(self._epoch, current)
        return super()._map_peer(peer)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ElasticWorld(epoch={self._epoch}, rank={self.rank}, "
            f"size={self.size}, parent_ranks={list(self.parent_ranks)})"
        )


# ----------------------------------------------------------------------
# shrink: the membership barrier
# ----------------------------------------------------------------------
def shrink(comm: Communicator, dead: Any = ()) -> ElasticWorld:
    """Collective membership barrier: agree on the survivors, bump the epoch.

    Call from every surviving rank after catching a
    :class:`~repro.runtime.comm.RankFailedError` (or with an explicit
    ``dead`` set). Gathers each survivor's view of the dead (seeded from
    the abort-state attribution), runs a bounded leader-based agreement
    round — survivors that fail *during* the barrier are folded in and
    the round retried — and returns the new :class:`ElasticWorld` of the
    agreed survivors on every rank, bit-identically renumbered.

    Each barrier operation is bounded by the backend's ``op_timeout``,
    else :data:`DEFAULT_BARRIER_TIMEOUT`.
    """
    backend = comm.backend
    members = list(_members_of(comm))
    known_dead = set(int(r) for r in dead)
    state = backend.aborted
    if state is not None:
        known_dead |= set(state.failed_ranks)
    known_dead |= set(backend.dead_ranks) & set(members)
    me = backend.rank
    if me in known_dead:
        raise ValueError(f"rank {me} cannot shrink a world it is dead in")

    new_epoch = backend.epoch + 1
    # reset *before* the barrier: barrier frames are stamped with the new
    # epoch (receivers still on the old epoch deliver newer frames), and a
    # late EOF from an already-known-dead peer can no longer re-abort us
    backend._elastic_reset(known_dead, new_epoch)

    alive = [m for m in members if m not in known_dead]
    saved_timeout = backend.op_timeout
    backend.op_timeout = saved_timeout or DEFAULT_BARRIER_TIMEOUT
    try:
        alive, agreed_dead = _membership_barrier(
            backend, alive, set(known_dead), new_epoch
        )
    finally:
        backend.op_timeout = saved_timeout
    backend._elastic_note_dead(agreed_dead)
    return ElasticWorld(backend, alive, new_epoch)


#: what a barrier exchange with a dead or stalled peer raises.
_LOST = (RankFailedError, CommTimeoutError)


def _culprit(exc: Exception, alive: list[int], peer: int) -> int:
    """Who a failed exchange with ``peer`` is blamed on: the rank a
    :class:`RankFailedError` names if it is still believed alive, else
    (a timeout, an already-dead culprit) the peer itself."""
    rank = getattr(exc, "rank", None)
    return rank if rank in alive else peer


def _membership_barrier(
    backend: Communicator, alive: list[int], dead: set, epoch: int
) -> tuple[list[int], set]:
    """Leader-based agreement on the survivor set (crash-consistent).

    Each round ``r`` uses its own pair of tags in the context of the new
    epoch's barrier, ``(e<epoch>, barrier)``: non-leaders send their
    dead-set proposal to the leader (the lowest alive rank), the leader
    unions them and answers either ``("commit", dead)`` — membership
    settled — or ``("retry", dead)`` after folding in peers that failed
    mid-round. A non-leader whose
    leader stops answering declares *it* dead and retries under the next
    leader. Rounds are bounded by the member count: each retry removes at
    least one rank, so a non-converging partition surfaces as
    :class:`~repro.runtime.comm.WorldAbortedError` instead of a hang.
    """
    me = backend.rank
    wire = ProxyComm(backend, (epoch_slot(epoch), BARRIER))
    max_rounds = len(alive) + 2
    for round_no in range(max_rounds):
        ptag = 2 * round_no  # proposals (members -> leader)
        vtag = ptag + 1      # verdict   (leader -> members)
        if me not in alive:
            break
        if alive == [me]:
            return alive, dead
        leader = alive[0]
        committed = False
        if me == leader:
            try:
                for peer in alive[1:]:
                    dead.update(int(r) for r in wire.recv(peer, tag=ptag))
                committed = not (dead & set(alive))
            except _LOST as exc:
                dead.add(_culprit(exc, alive, peer))
            verdict = ("commit" if committed else "retry", sorted(dead))
            for peer in [r for r in alive[1:] if r not in dead]:
                try:
                    wire.send(verdict, peer, tag=vtag)
                except _LOST:
                    dead.add(peer)
                    committed = False  # settle without it in another round
        else:
            try:
                wire.send(sorted(dead), leader, tag=ptag)
                kind, agreed = wire.recv(leader, tag=vtag)
                dead.update(int(r) for r in agreed)
                committed = kind == "commit"
            except _LOST as exc:
                dead.add(_culprit(exc, alive, leader))
        backend._elastic_note_dead(dead)
        alive = [r for r in alive if r not in dead]
        if committed and me in alive:
            return alive, dead
    if me not in alive:
        raise WorldAbortedError(
            "this rank was declared dead by the membership barrier "
            "(a peer gave up waiting on it); it must rejoin, not shrink"
        )
    raise WorldAbortedError(
        f"membership barrier did not converge after {max_rounds} rounds "
        f"(alive view: {alive}, dead view: {sorted(dead)})"
    )


# ----------------------------------------------------------------------
# grow: rejoin requests committed between iterations
# ----------------------------------------------------------------------
def grow(comm: Communicator) -> Communicator:
    """Collective join-commit point: commit at most one pending rejoin.

    Call from every member of the current world ``comm`` (the backend
    communicator before any membership change, else the
    :class:`ElasticWorld` the latest :func:`shrink` or :func:`grow`
    returned) between iterations. The leader (world rank 0) asks its
    backend communicator for the next rejoin (``_next_join``, which also
    releases the joiner) and broadcasts it or ``None``; on a join every
    member commits it (``_elastic_regrow``: on the socket backend, dial
    the joiner) and the regrown :class:`ElasticWorld` of the next epoch is
    returned. With nothing pending, ``comm`` itself is returned and the
    broadcast was the only traffic. A world some later membership change
    superseded raises :class:`~repro.runtime.comm.StaleEpochError`.
    """
    members = _members_of(comm)
    backend = comm.backend
    current = comm.epoch if isinstance(comm, ElasticWorld) else 0
    if current != backend.epoch:
        raise _superseded(current, backend.epoch)
    epoch = backend.epoch + 1
    join = backend._next_join(members, epoch) if comm.rank == 0 else None
    join = comm.bcast(join, root=0)
    if join is None:
        return comm
    rank, addr = join
    backend._elastic_regrow(rank, epoch, addr, DEFAULT_GROW_TIMEOUT)
    return ElasticWorld(backend, sorted({*members, rank}), epoch)


def thread_rejoin(world, rank: int, timeout: float = 30.0) -> ElasticWorld:
    """Rejoin a dead rank into a thread-backend world (rendezvous analog).

    Called from a *fresh thread* standing in for the restarted rank.
    Queues a join request on the shared
    :class:`~repro.runtime.thread_backend.ThreadWorld`; once the elastic
    leader's :func:`grow` takes it, returns this rank's
    :class:`ElasticWorld` for the new epoch (its traffic waits in the
    members' queues until they commit). The caller is responsible for
    re-synchronizing consumer state (e.g. a parameter broadcast).
    """
    request = {"rank": int(rank), "event": threading.Event()}
    with world._elastic_lock:
        if int(rank) not in world.dead_ranks:
            raise ValueError(f"rank {rank} is not dead in this world")
        world._pending_joins.append(request)
    if not request["event"].wait(timeout):
        with world._elastic_lock:
            if request in world._pending_joins:
                world._pending_joins.remove(request)
        raise TimeoutError(
            f"rejoin of rank {rank} was not committed within {timeout}s"
        )
    comm = world.comm(int(rank))
    with world._elastic_lock:
        # the original failure left this rank's abort state set (it names
        # this very rank); the revived thread starts from a clean flag
        world._rank_states[int(rank)] = AbortState()
    comm.epoch = int(request["epoch"])
    return ElasticWorld(comm, request["members"], request["epoch"])
