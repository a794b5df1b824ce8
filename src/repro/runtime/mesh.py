"""Process-family core: one byte-stream communicator, one launcher, one rank lifecycle.

The ``process``, ``shmem`` and ``socket`` backends run every rank in its
own OS process and differ only in the channel objects that carry the byte
stream between two of them — pipe ends, pipe ends next to a shared-memory
slab for large frames, TCP sockets. Everything else lives here, once:

* :class:`StreamComm` — the per-rank communicator: one table of
  per-(source, context, tag) FIFO queues under the engine lock, sender-side
  sequence numbers, the abort flag, the elastic
  epoch hooks, the **blocked-receive loop** with its one-at-a-time
  progress engine (one ``poll`` over every live inbound channel,
  per-source frame reassembly), :meth:`StreamComm._deliver`, the single
  inbound path (*decode → drop stale epoch → FIN → hand off or queue*),
  and the one outbound write loop that finishes a frame it has begun;
* :class:`MeshBackend` — the launcher (``Backend.run``): build the mesh,
  fork one process per rank with the list of inherited ends it must
  close, release the parent's ends, collect results (:func:`_collect`),
  reap, clean up, merge traces (:func:`_finalize_run`);
* :func:`_rank_main` / :func:`_run_rank` — the rank lifecycle: close
  foreign ends → connect → ``fn(comm)`` → ``shutdown`` → report
  ``ok/aborted/error`` → linger → close (``serve_rank`` runs the same
  tail for a rank that was started by hand).

Inline progress: a blocked rank reads its own channels
------------------------------------------------------
No communicator here starts a thread. Whichever thread of a rank is
*blocked* — in a receive whose queue is empty, or in a send whose
channel is full — takes the rank's progress engine and runs
:meth:`StreamComm._progress`: wait for traffic on every live inbound
channel, read what is there, hand every whole frame to ``_deliver``. One
thread holds the engine at a time — a lock acquired without blocking; a
second blocked thread (an ``i_collective`` next to the rank thread)
sleeps on a condition the holder signals on every frame it queues and
when it leaves, whenever a thread sleeps on it, so the hand-off is a
wake-up, not a timed poll. The frame the holder itself waits for is not
queued at all: the first one of its channel is kept for it and returned
as it leaves the engine — no lock, no queue entry, no wake-up — while
its channel's later frames, and every other channel's, are queued in
order. A receive on a rank with one thread takes no lock at all. This is MPI without an asynchronous
progress thread: a message costs no thread hand-off, and in exchange
**sends are kernel-buffered only** — one larger than the channel buffer
completes when the receiver next enters a transport call, and a peer's
death is observed at the next transport operation, not asynchronously.
Deadlock-freedom survives because a blocked sender keeps reading: any
cycle of blocked ranks is a cycle of progress engines, each draining its
inbound channels into unbounded queues.

What a transport supplies
-------------------------
A backend is a :class:`MeshBackend` subclass whose ``_transport`` returns a
:class:`Transport`: the parent-side mesh of one run. It says how the
channels are built and handed to a child (``build`` / ``ends`` / ``own``
/ ``connector``), how the parent lets go of every mesh end after forking
so that a rank's exit shows as EOF (``release``), and what to tear down
(``close``); the parent never reads a channel. The communicator it
connects is a :class:`StreamComm` over **channel objects with four methods** —
``fileno`` (what the engine polls), ``setblocking``, ``send`` and
``recv_into`` — sockets as they are, pipe ends behind
:class:`~repro.runtime.process_backend._PipeEnd`.

Failure handling: a failing rank reports its exception over its result
pipe and exits; peers observe EOF on its channels *without* a preceding
FIN frame, flag the world aborted and unwind with
:class:`WorldAbortedError`; the parent gives survivors
:data:`_ERROR_GRACE_S` to finish, terminates stragglers and re-raises the
lowest-ranked failure as :class:`RankError`, exactly like the thread
backend.

Leaving is collective, as MPI's finalize is: a launched rank that
reported ``ok`` *or* ``aborted`` keeps reading its inbound channels
(:meth:`StreamComm.linger`) until each has delivered FIN or EOF, so a
peer's late buffered send completes, and only a rank's own death closes
its channels. EOF is then a death signal with one source: the first
peer to read it names the rank that failed, not one that merely unwound
from that failure. Three exits stay immediate, because their EOF is the
right signal: a rank that reports its own ``error``, a rank a fault plan
kills, and a rank at which a stream broke mid-frame — it cut one of
its own frames on ``op_timeout``, or read a corrupt or undecodable
frame whose writer lives on, so no death's EOF will reach the other
peers. The parent terminates every live rank once it holds the last
report, so lingering adds no wall time; ``serve_rank``, which no parent
reaps, lingers only after a clean finish.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import select
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as conn_wait
from typing import Any, Callable

from .backend import Backend, ParallelResult, RankError
from .comm import (
    _ABORT_POLL_S,
    AbortState,
    CommTimeoutError,
    Communicator,
    RankFailedError,
    WorldAbortedError,
)
from .faults import KILL_EXIT_CODE
from .nonblocking import join_progress
from .trace import Trace, run_trace
from .wire import _LEN, check_frame_size, decode_message, encode_message

__all__ = ["MeshBackend", "MeshWorld", "StreamComm", "Transport"]

#: after the first failure report, how long to keep collecting results from
#: the other ranks before terminating them (seconds). Generous enough for
#: survivors of a killed rank to run an elastic shrink barrier and finish
#: real post-shrink work before the parent reaps them.
_ERROR_GRACE_S = 5.0

#: how long a finished or aborted rank keeps reading its inbound channels
#: after reporting, waiting for each peer's FIN or EOF (seconds); the
#: parent cuts it short once every rank has reported.
_LINGER_S = 30.0

#: frame tag of the graceful-shutdown marker a finishing rank sends on every
#: outbound channel. Receivers treat EOF *without* a preceding FIN as peer
#: death (abort); EOF after FIN is a normal wind-down.
_FIN_TAG = -1


class StreamComm(Communicator):
    """The per-rank communicator of every process-family backend.

    ``out[d]`` / ``inn[s]`` are this rank's non-blocking byte-stream
    channels to and from each peer (``None`` at its own slot): sockets, or
    anything with their ``fileno`` / ``setblocking`` / ``send`` /
    ``recv_into`` (the pipe ends of :mod:`~repro.runtime.process_backend`).
    A message is ``<u64 frame length><frame>``. Incoming traffic lands in
    :attr:`_queues`, one FIFO per (source, context key, tag) that exists
    only while it holds messages, guarded by ``_lock`` — the one lock a
    queued message takes on its way in and out — except the frame a
    blocked receiver reads for itself, which is handed to it directly
    (:meth:`_deliver`). Sequence numbers are
    allocated sender-side against the worker-local trace (only this rank
    sends on a (rank, dest, context, tag) channel, so local counters are
    the truth). The
    channels are read by whichever thread is blocked (see "Inline
    progress" in the module docstring); the engine reassembles frames per
    source, so a read takes whatever the channel holds — length prefix and
    frame in one call for small messages — never waits for the rest of a
    frame, and passes every whole frame through :meth:`_deliver`.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        out: list,
        inn: list,
        trace: Trace,
        op_timeout: float | None = None,
    ) -> None:
        self.rank = rank
        self.size = size
        self.trace = trace
        self._channels = {}
        self.op_timeout = op_timeout
        self.aborted = AbortState()
        #: elastic world version stamped on every outgoing frame; bumped by
        #: :func:`~repro.runtime.elastic.shrink` via :meth:`_elastic_reset`.
        self.epoch = 0
        #: count of inbound frames dropped because their epoch was stale.
        self.stale_epoch_rejected = 0
        #: ranks a membership change already declared dead: late transport
        #: failures from them (channel EOF, broken sends) must not re-abort
        #: the new, smaller world.
        self.dead_ranks: set[int] = set()
        #: the progress engine: held by whichever thread acquired this
        #: (never blocking on it), released as it leaves
        self._token = threading.Lock()
        #: guards the queue table and the two counts below; threads that
        #: find the engine taken sleep on ``_engine`` (its condition) until
        #: the holder queues a delivery or leaves — it notifies only when
        #: one sleeps.
        self._lock = threading.Lock()
        self._engine = threading.Condition(self._lock)
        self._sleepers = 0
        #: the holder's own receive, ``(source, context key, tag)`` or None,
        #: and the frame handed straight to it (engine-holder state, no lock)
        self._want = self._kept = None
        #: ``(source, context key, tag) -> deque of (payload, nbytes, seq)``,
        #: under ``_lock``; the pop that empties a queue deletes it, so a
        #: drained channel keeps nothing.
        self._queues: dict[tuple[int, bytes, int], deque] = {}
        #: threads waiting in :meth:`_holding_engine`; receivers stand back.
        self._engine_claims = 0
        #: live inbound channels (fd -> ``(channel, source)``), each
        #: registered with the poller the engine waits on.
        self._watch: dict[int, tuple[Any, int]] = {}
        self._poller = select.poll()
        #: set once a stream broke mid-frame at this rank — one of its own
        #: frames cut on ``op_timeout``, or a corrupt stream it read, whose
        #: writer lives on: only this rank's EOF tells its peers, so it does
        #: not linger.
        self._cut = False
        self._out, self._inn = out, inn
        self._out_locks = [threading.Lock() if c is not None else None for c in out]
        for channel in out:
            if channel is not None:
                channel.setblocking(False)
        #: per-source reassembly state ``[buffer, bytes filled]``; a frame
        #: under assembly always starts at offset 0.
        self._partial: list[list | None] = [None] * size
        for src, channel in enumerate(inn):
            if channel is not None:
                self._attach(src, channel)

    def _abort(self, failed_rank: int | None = None, reason: str | None = None) -> None:
        if failed_rank is not None and failed_rank in self.dead_ranks:
            return  # already accounted for by a shrink; the world lives on
        self.aborted.set(failed_rank, reason)
        with self._lock:  # every blocked receiver waits on the engine
            self._engine.notify_all()

    def _deliver(self, src: int, frame: Any) -> bool:
        """Hand one inbound frame from ``src`` to its receiver.

        The one place a frame is decoded; runs on the engine holder. The
        first frame of the holder's own receive (``_want``) is kept for it
        (``_kept``) — no lock, no queue, no wake-up: nothing of that
        channel can be queued then, as the holder only steps with its
        queue empty, and it returns the frame as it leaves the engine.
        Every other frame is queued under ``_lock``, waking the threads
        that wait for one. Returns False once nothing more will be
        delivered from ``src``'s channel: the peer sent FIN (it finished
        cleanly), or the frame was undecodable and the world is aborted
        naming ``src``. Decoding copies (``copy=True``): the buffer
        ``frame`` views is reused, so the arrays must own their memory.
        """
        try:
            tag, seq, nbytes, epoch, context, payload = decode_message(frame)
        except Exception as exc:
            # undecodable frame (e.g. a payload whose pickle references a
            # class this process cannot import, or a stream whose count
            # overruns its frame): fail fast, naming its writer, instead of
            # silently dropping it and hanging the run
            self._cut = True
            self._abort(src, f"undecodable frame from rank {src}: {exc}")
            return False
        if epoch < self.epoch:
            # a frame from a dead world epoch (in flight across a shrink
            # or sent by a peer that has not committed the shrink yet):
            # dropping it here is what keeps post-shrink collectives from
            # matching pre-shrink traffic
            self.stale_epoch_rejected += 1
            return True
        if tag == _FIN_TAG:
            return False
        key = (src, context, tag)
        if key == self._want and self._kept is None:
            self._kept = (payload, nbytes, seq)
        else:
            with self._lock:
                self._queues.setdefault(key, deque()).append((payload, nbytes, seq))
                if self._sleepers:  # a thread without the engine may be waiting for this
                    self._engine.notify_all()
        return True

    def _die(self) -> None:
        # a rank that owns its process dies for real: immediate exit, no
        # FIN frames, no result report — peers observe EOF like a crash
        os._exit(KILL_EXIT_CODE)

    # ------------------------------------------------------------------
    # rank lifecycle (driven by _run_rank)
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Graceful wind-down: tell every peer this rank is done sending."""
        fin = self._frame(_FIN_TAG, -1, 0, None)
        for dest, channel in enumerate(self._out):
            if channel is None:
                continue
            try:
                with self._out_locks[dest]:
                    self._write(dest, fin, b"", _FIN_TAG, None)
            except (OSError, WorldAbortedError):  # peer already gone
                pass

    def linger(self, timeout: float) -> None:
        """Keep reading until every inbound channel has delivered FIN or
        EOF, or ``timeout`` passes: a peer's late buffered send to this
        finished (or aborted) rank completes, and this rank's channels
        close only when it is done. Not once a stream broke here
        (:attr:`_cut`): this rank's EOF is then its peers' signal."""
        deadline = time.monotonic() + timeout
        while self._watch and not self._cut and time.monotonic() < deadline:
            self._run_progress(_ABORT_POLL_S)

    def close(self) -> None:
        """Release the channels (process exit does it for pipes)."""

    # ------------------------------------------------------------------
    # the progress engine: one holder at a time, signalled hand-off
    # ------------------------------------------------------------------
    def _attach(self, src: int, channel: Any) -> None:
        """Start reading ``src``'s inbound ``channel`` (engine held, or no
        other thread yet)."""
        channel.setblocking(False)
        self._watch[channel.fileno()] = (channel, src)
        self._poller.register(channel.fileno(), select.POLLIN)
        self._partial[src] = [bytearray(1 << 16), 0]

    def _detach(self, fd: int) -> None:
        """Stop waiting on ``fd`` (engine held): its channel is drained,
        dead, or about to be replaced."""
        if self._watch.pop(fd, None) is not None:
            self._poller.unregister(fd)

    @staticmethod
    def _wait(poller: Any, writable: Any, wait: float) -> list:
        """``poller``'s ready ``(fd, event)`` pairs once there is one — or
        ``writable`` accepts bytes, or ``wait`` seconds have passed. ``poll``,
        not ``select``: a large world's descriptors pass ``FD_SETSIZE``."""
        if writable is not None:
            poller.register(writable, select.POLLOUT)
        try:
            return poller.poll(max(wait, 0.0) * 1e3)  # negative would mean forever
        finally:
            if writable is not None:
                poller.unregister(writable)

    def _progress(self, wait: float, writable: Any = None) -> None:
        """One progress step, called with the engine held.

        Wait at most ``wait`` seconds for inbound traffic (or for the
        outbound channel ``writable`` to accept bytes), read whatever has
        arrived without ever blocking inside a partial frame, and pass
        every whole frame to :meth:`_deliver`. Peer death (EOF without
        FIN) and stream corruption are reported through :meth:`_abort`.
        """
        for fd, _ in self._wait(self._poller, writable, wait):
            if fd in self._watch:  # hang-ups and errors read as EOF / OSError
                self._pull(fd, *self._watch[fd])

    def _pull(self, fd: int, channel: Any, src: int) -> None:
        """Read what ``src``'s channel holds now; deliver every whole frame."""
        state = self._partial[src]
        buf, filled = state
        view = memoryview(buf)
        try:
            # inside a frame of known length, read to its end and no
            # further, so the next frame starts a fresh buffer; at a frame
            # boundary take everything (many small frames in one read)
            limit = len(buf)
            if filled >= _LEN.size:
                limit = _LEN.size + _LEN.unpack_from(buf)[0]
            got = channel.recv_into(view[filled:limit])
            if not got:
                raise EOFError("peer closed the channel")
            filled += got
            pos = 0
            while filled - pos >= _LEN.size:
                # a length word past the limit is corruption, never an allocation
                end = pos + _LEN.size + check_frame_size(_LEN.unpack_from(buf, pos)[0], "stream")
                if end > filled:
                    if end - pos > len(buf):  # grows geometrically, then stays
                        state[0] = bytearray(max(end - pos, 2 * len(buf)))
                    break
                if not self._deliver(src, view[pos + _LEN.size:end]):
                    self._detach(fd)  # FIN: the channel is drained (or the world aborted)
                    return
                pos = end
            if filled > pos and (pos or state[0] is not buf):  # move the partial frame to offset 0
                memoryview(state[0])[:filled - pos] = view[pos:filled]
            state[1] = filled - pos
        except BlockingIOError:
            pass  # readiness was spurious
        except (EOFError, OSError):
            # EOF (or a reset) with no FIN first: the peer died mid-run.
            # Wake anyone blocked on its (or anyone's) traffic so the rank
            # unwinds with a RankFailedError naming the dead peer.
            self._detach(fd)
            self._abort(failed_rank=src)
        except (ValueError, MemoryError) as exc:
            # a garbage length word (MemoryError: one under the limit can
            # still be unallocatable) or a frame ``_deliver`` refused:
            # nothing behind it on this stream can be trusted, and only its
            # writer can have sent it
            self._detach(fd)
            self._cut = True
            self._abort(src, f"stream from rank {src} is corrupt: {exc}")

    def _run_progress(self, wait: float, writable: Any = None, want: tuple | None = None) -> Any:
        """Make one progress step on this thread if the engine is free.

        Returns whether this thread stepped: not when another thread has
        the engine — that thread reads for everyone, so a caller with
        nothing to write sleeps until it signals a delivery or leaves (at
        most ``wait``). Given a receiver's ``want``, ``(source, context
        key, tag)``, it returns that channel's next message or None
        instead: taken from the queue — before stepping (nothing is read
        if one is already queued) or after a sleep — or, when it stepped,
        the frame its own step handed it (:meth:`_deliver`). A receiver
        that steps takes no lock: the engine is a lock acquired without
        blocking, and a frame it waits for is handed over, not queued.
        """
        if want not in self._queues and not self._engine_claims and self._token.acquire(False):
            # the engine is ours, so nothing is queued meanwhile: a frame
            # queued for ``want`` before we took it is served first
            if want not in self._queues:
                self._want = want
                try:
                    self._progress(wait, writable)
                except BaseException:
                    self._leave_engine()
                    raise
                return self._leave_engine(want)
            self._leave_engine()
        with self._lock:
            if want in self._queues:
                return self._take(want)
            # counted before looking, so a holder leaving now sees us and wakes us
            self._sleepers += 1
            if writable is None and (self._token.locked() or self._engine_claims):
                self._engine.wait(wait)
            self._sleepers -= 1
            return self._take(want) if want else False

    def _leave_engine(self, want: tuple | None = None) -> Any:
        """Hand the engine back: True, or with ``want`` the frame the step
        handed over (None if none came). A step that raised leaves its
        handed-over frame at the head of its channel's queue, ahead of the
        frames that came behind it, for the next receive."""
        kept, self._kept = self._kept, None
        if want is None and kept is not None:
            with self._lock:
                self._queues.setdefault(self._want, deque()).appendleft(kept)
        self._token.release()
        if self._sleepers:  # read after the release: a sleeper counted later finds the engine free
            with self._lock:
                self._engine.notify_all()
        return kept if want else True

    @contextmanager
    def _holding_engine(self):
        """Hold the engine without progressing: no step of another thread
        runs meanwhile, so the channel set can change (elastic rejoin).
        Blocks until the holder leaves, with precedence over receivers —
        a receiver re-takes the engine faster than a waiter can wake."""
        with self._lock:
            self._engine_claims += 1  # receivers stand back meanwhile
        self._token.acquire()
        with self._lock:
            self._engine_claims -= 1
        self._want = None
        try:
            yield
        finally:
            self._leave_engine()

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    def _transport_recv(self, source: int, key: bytes, tag: int) -> tuple[Any, int, int]:
        want = (source, key, tag)
        aborted = self.aborted  # an elastic reset swaps the flag; unwind on the one we started under
        deadline = None if self.op_timeout is None else time.monotonic() + self.op_timeout
        while True:
            # a queued message wins over an abort or an expired deadline:
            # those only shorten the step to a look
            wait = 0.0 if aborted.is_set() else _ABORT_POLL_S
            if deadline is not None:
                wait = max(min(wait, deadline - time.monotonic()), 0.0)
            item = self._run_progress(wait, want=want)
            if item is not None:
                return item
            if aborted.is_set():
                raise aborted.error()
            if deadline is not None and time.monotonic() >= deadline:
                raise CommTimeoutError.expired("recv from", source, key, tag, self.op_timeout)

    def _frame(self, tag: int, seq: int, nbytes: int, obj: Any, context: bytes = b"") -> bytes:
        """Length prefix + frame in one send buffer (one write per
        message keeps the frame contiguous on the stream)."""
        return encode_message(tag, seq, nbytes, obj, self.epoch, context, prefixed=True)

    def _write(self, dest: int, blob: Any, key: bytes, tag: int, timeout: float | None) -> None:
        """Write ``blob``, a frame of ``(key, tag)``, whole to ``dest``'s
        channel (its lock held).

        While the channel is full this thread drives the engine — a
        blocked sender keeps reading — or, if another thread has it, waits
        for writability alone. A frame that has begun is finished even if
        the world aborts meanwhile: the channel to a healthy ``dest``
        outlives a shrink, and a truncated frame would swallow whatever is
        sent on it next. So the abort flag raises the recorded culprit only
        before the first byte (or once ``dest`` itself has failed); no byte
        moving for ``timeout`` seconds is a :class:`CommTimeoutError`,
        which aborts the world if it leaves a frame half-written;
        ``OSError`` means the peer is gone.
        """
        channel, aborted = self._out[dest], self.aborted
        view = memoryview(blob)
        sent, deadline = 0, None
        while True:
            try:
                moved = channel.send(view[sent:] if sent else view)
            except BlockingIOError:
                moved = 0
            sent += moved
            if sent == len(view):
                return
            if aborted.is_set() and (not sent or dest in aborted.failed_ranks):
                raise aborted.error()
            wait = _ABORT_POLL_S
            if timeout is not None:
                now = time.monotonic()
                if moved or deadline is None:
                    deadline = now + timeout
                elif now >= deadline:  # the peer stopped reading
                    if sent:  # the stream is cut mid-frame: nothing can follow on it
                        self._cut = True
                        self._abort()
                    raise CommTimeoutError.expired("send to", dest, key, tag, timeout)
                wait = min(wait, deadline - now)
            if not self._run_progress(wait, writable=channel):
                self._wait(select.poll(), channel, wait)

    def _transport_send(self, obj: Any, nbytes: int, seq: int, dest: int, key: bytes, tag: int) -> None:
        blob = self._frame(tag, seq, nbytes, obj, key)
        try:
            with self._out_locks[dest]:
                self._write(dest, blob, key, tag, self.op_timeout)
        except CommTimeoutError:  # an OSError by inheritance, but not a dead peer
            raise
        except OSError as exc:
            self._abort(failed_rank=dest)
            raise RankFailedError(dest, f"rank {dest} is gone; send failed") from exc


# ----------------------------------------------------------------------
# the parent side: transport seam, world record, launcher
# ----------------------------------------------------------------------
class Transport:
    """Parent-side mesh of one run: what a process-family backend supplies.

    :meth:`MeshBackend.run` drives it in this order: ``build`` → per rank
    ``own`` / ``connector`` (fork) → ``release`` → ``close``. ``close``
    also runs when ``build`` or a fork raised part-way and must release
    whatever exists by then. Between ``release`` and ``close`` the parent
    only collects reports: each rank reads its own inbound channels until
    its peers are done (:meth:`StreamComm.linger`).
    """

    #: transport-specific fields of the run's :class:`MeshWorld`.
    info: dict[str, Any] = {}

    def build(self) -> None:  # pragma: no cover - abstract
        """Create every channel of the mesh."""
        raise NotImplementedError

    def ends(self) -> list:
        """Every closable OS handle of the mesh the parent holds — what a
        forked child inherits."""
        return []

    def own(self, rank: int) -> list:
        """The subset of :meth:`ends` that ``rank`` keeps; a forked child
        closes the rest so peer death propagates as EOF instead of hanging."""
        return []

    def connector(self, rank: int) -> Callable[[Trace, "float | None"], StreamComm]:  # pragma: no cover
        """``connect(trace, op_timeout) -> comm``, run in the child; a
        raise is reported as that rank's failure."""
        raise NotImplementedError

    def release(self) -> None:
        """After the last fork: let go of the parent's copies of the mesh
        ends, so that a rank's exit is its peers' EOF."""

    def close(self) -> None:
        """Tear the mesh down (idempotent; tolerates a partial build)."""


@dataclass
class MeshWorld:
    """Parent-side record of one process-family run (for ParallelResult)."""

    size: int
    pids: list[int]
    #: capacity in bytes of each per-pair large-frame slab (shmem runs).
    slab_capacity: int | None = None
    #: the loopback address the world assembled through (socket runs).
    rendezvous: tuple[str, int] | None = None


class MeshBackend(Backend):
    """One OS process per rank over a :class:`Transport` mesh.

    The launcher of every process-family backend; subclasses supply
    :attr:`name` and :meth:`_transport`.
    """

    def _transport(self, ctx: Any, nranks: int, timeout: float | None) -> Transport:  # pragma: no cover
        raise NotImplementedError

    def run(
        self,
        fn: Callable[..., Any],
        nranks: int,
        *args: Any,
        trace: Trace | None = None,
        timeout: float | None = 300.0,
        op_timeout: float | None = None,
        topology: Any = None,
        fault_plan: Any = None,
        **kwargs: Any,
    ) -> ParallelResult:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        trace = run_trace(trace, nranks)
        # fork, explicitly (3.14 changes the default): rank functions may be
        # closures, and a child inherits the mesh instead of re-attaching to it
        ctx = mp.get_context("fork")
        mesh = self._transport(ctx, nranks, timeout)
        result_pipes: list[tuple[Connection, Connection]] = []
        procs: list[mp.Process] = []
        # setup and launch are guarded so a partial failure (e.g. EMFILE on
        # a large mesh — the parent briefly holds ~2*P^2 descriptors) cleans
        # up every channel and already-started rank instead of leaking them
        try:
            try:
                mesh.build()
                result_pipes = [ctx.Pipe(duplex=False) for _ in range(nranks)]
                inherited = mesh.ends() + [c for pair in result_pipes for c in pair]
                for rank in range(nranks):
                    report = result_pipes[rank][1]
                    # a forked child inherits every end of every rank and
                    # must close the foreign ones explicitly
                    own = {id(c) for c in mesh.own(rank)} | {id(report)}
                    close_list = [c for c in inherited if id(c) not in own]
                    p = ctx.Process(
                        target=_rank_main,
                        args=(
                            rank,
                            nranks,
                            fn,
                            args,
                            kwargs,
                            mesh.connector(rank),
                            report,
                            close_list,
                            topology,
                            op_timeout,
                            fault_plan,
                        ),
                        name=f"rank-{rank}",
                        daemon=True,
                    )
                    p.start()
                    procs.append(p)
                # only after forking: the parent never forks while a service
                # thread of the transport is mid-flight
                mesh.release()
                for _, w in result_pipes:
                    w.close()
                outcome = _collect(procs, [r for r, _ in result_pipes], timeout)
            finally:
                for p in procs:
                    if p.is_alive():
                        p.terminate()
                for p in procs:
                    p.join(timeout=5.0)
                for pair in result_pipes:
                    for c in pair:
                        c.close()
        finally:
            mesh.close()

        world = MeshWorld(nranks, [p.pid for p in procs], **mesh.info)
        return _finalize_run(outcome, trace, world)


def _collect(
    procs: list[mp.Process],
    result_conns: list[Connection],
    timeout: float | None,
) -> tuple[list[Any], list["tuple | None"], list[tuple[int, BaseException]], list[int]]:
    """Gather every rank's report: ``(results, trace exports, errors, aborted)``.

    A rank whose result pipe hits EOF died hard (:class:`RankFailedError`
    with its exit code). After the first failure the rest get
    :data:`_ERROR_GRACE_S`; with none, running out of ``timeout`` is a
    deadlock (:class:`TimeoutError`).
    """
    nranks = len(procs)
    deadline = None if timeout is None else time.monotonic() + timeout
    error_deadline: float | None = None
    results: list[Any] = [None] * nranks
    exports: list["tuple | None"] = [None] * nranks
    errors: list[tuple[int, BaseException]] = []
    aborted_ranks: list[int] = []
    pending = dict(enumerate(result_conns))

    while pending:
        ends = [end for end in (deadline, error_deadline) if end is not None]
        wait_for = min(ends) - time.monotonic() if ends else None
        if wait_for is not None and wait_for <= 0:
            if errors or error_deadline is not None:
                break  # grace period after a failure ran out
            raise TimeoutError(
                f"parallel run did not finish within {timeout}s "
                f"(ranks {sorted(pending)} still pending; likely deadlock)"
            )
        for conn in conn_wait(list(pending.values()), wait_for):
            rank = next(r for r, c in pending.items() if c is conn)
            del pending[rank]
            try:
                status, _r, value, exports[rank] = conn.recv()
            except (EOFError, OSError):
                procs[rank].join(timeout=1.0)  # reap so exitcode is real
                code = procs[rank].exitcode
                errors.append(
                    (rank, RankFailedError(rank, f"rank {rank} process died (exitcode {code})"))
                )
                continue
            if status == "ok":
                results[rank] = value
            elif status == "aborted":
                aborted_ranks.append(rank)
            else:  # "error"
                errors.append((rank, value))
        if errors and error_deadline is None:
            error_deadline = time.monotonic() + _ERROR_GRACE_S
    return results, exports, errors, aborted_ranks


# ----------------------------------------------------------------------
# the rank side
# ----------------------------------------------------------------------
def _rank_main(
    rank: int,
    size: int,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    connect: Callable[[Trace, "float | None"], StreamComm],
    result_conn: Connection,
    close_list: list,
    topology: Any = None,
    op_timeout: float | None = None,
    fault_plan: Any = None,
) -> None:
    """Entry point of one rank process."""
    # every end of every rank was inherited; drop the ones that are not
    # ours so peer death propagates as EOF instead of hanging
    for conn in close_list:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    trace = Trace(size)

    def report(status: str, value: Any) -> None:
        try:
            try:
                result_conn.send((status, rank, value, trace.export(rank)))
            except Exception as exc:  # unpicklable result/exception
                result_conn.send(("error", rank, _portable_exception(exc), None))
        finally:
            result_conn.close()

    try:
        comm = connect(trace, op_timeout)
    except BaseException as exc:  # noqa: BLE001 - setup failure is the rank failure
        report("error", _portable_exception(exc))
        return
    if topology is not None:
        comm.topology = topology
    comm.fault_plan = fault_plan
    _run_rank(comm, fn, args, kwargs, report)


def _run_rank(
    comm: StreamComm,
    fn: Callable[..., Any],
    args: tuple = (),
    kwargs: "dict | None" = None,
    report: "Callable[[str, Any], None] | None" = None,
) -> Any:
    """The one rank lifecycle: ``fn(comm)`` → join its progress threads →
    shutdown → report → linger → close.

    With ``report`` (a launched child) the outcome is shipped as
    ``ok``/``aborted``/``error`` and nothing propagates; both ``ok`` and
    ``aborted`` linger (:meth:`StreamComm.linger`), so the rank stays
    readable until its peers are done and only a rank's own death reads
    as EOF. Without it (a rank started by hand, ``serve_rank``) the
    result is returned and a failure raises at once: no parent reaps
    such a rank, and aborted ranks send no FIN, so they would wait on
    each other. Only a clean finish lingers there.
    """
    status = "ok"
    try:
        try:
            result = fn(comm, *args, **(kwargs or {}))
            join_progress(comm)
            comm.shutdown()
        except BaseException as exc:  # noqa: BLE001 - must propagate rank errors
            if report is None:
                raise
            if not isinstance(exc, WorldAbortedError):
                report("error", _portable_exception(exc))
                return None
            status, result = "aborted", None
        if report is not None:
            report(status, result)
        comm.linger(_LINGER_S)
        return result
    finally:
        comm.close()


def _portable_exception(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives a pickle round-trip, else a stand-in."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# run epilogue
# ----------------------------------------------------------------------
def _finalize_run(
    outcome: tuple[list[Any], list["tuple | None"], list[tuple[int, BaseException]], list[int]],
    trace: Trace,
    world: Any,
) -> ParallelResult:
    """Merge worker traces and raise/return — the tail of every run.

    Merging happens before raising: on failure a caller-supplied trace
    keeps the partial events of surviving ranks, matching the thread
    backend.
    """
    results, exports, errors, aborted_ranks = outcome
    trace.merge_run({rank: log for rank, log in enumerate(exports) if log is not None})
    if errors:
        rank, original = min(errors, key=lambda e: e[0])
    elif aborted_ranks:
        # a rank unwound with WorldAbortedError but nobody reported the
        # root failure (e.g. an undecodable frame on the inbound path);
        # surfacing it beats silently returning None results
        rank = min(aborted_ranks)
        original = WorldAbortedError(
            f"rank {rank} aborted (peer connection or frame failure "
            "without a reported rank error)"
        )
    else:
        return ParallelResult(results=results, trace=trace, world=world)
    raise RankError(rank, original, results) from original
