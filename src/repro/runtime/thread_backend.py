"""Thread-backed communicator: one Python thread per rank, one queue table per rank.

This backend gives the collectives *real* concurrent execution with MPI
point-to-point semantics:

* messages on one (source, dest, context, tag) channel are delivered FIFO,
* ``recv`` blocks until a matching message arrives,
* payloads are copied on send, so sender and receiver never alias buffers
  (matching MPI's independent-buffer guarantee),
* every operation is appended to the run's :class:`~repro.runtime.trace.Trace`
  for later timing replay.

Failure handling: if any rank raises, the world is flagged as failed and all
ranks blocked in ``recv`` abort with :class:`WorldAbortedError` instead of
deadlocking.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

from .backend import Backend, ParallelResult, RankError, register_backend
from .comm import (
    _ABORT_POLL_S,
    AbortState,
    CommTimeoutError,
    Communicator,
    WorldAbortedError,
    copy_payload,
)
from .trace import Trace

__all__ = ["ThreadBackend", "ThreadWorld", "ThreadComm"]


class ThreadWorld:
    """Shared state of one parallel run: queue tables, trace, failure flags."""

    def __init__(
        self,
        size: int,
        *,
        trace: Trace | None = None,
        topology: Any = None,
        op_timeout: float | None = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.size = size
        self.trace = trace if trace is not None else Trace(size)
        self.topology = topology
        self.op_timeout = op_timeout
        #: per destination rank, its inbound messages
        #: (``Communicator._queues``) and the condition that guards them:
        #: a put appends and notifies, a receiver waits on it.
        self._queues: list[dict[tuple, deque]] = [{} for _ in range(size)]
        self._ready = [threading.Condition() for _ in range(size)]
        #: per-rank abort states, mirroring the process family where each
        #: rank's *process* holds its own flag: a failure sets every rank's
        #: state, but an elastic shrink resets only the shrinking rank's —
        #: so ranks that have not yet observed the failure still find it
        #: recorded, no matter how late they arrive at their shrink() call.
        self._rank_states = [AbortState() for _ in range(size)]
        #: ranks a membership change declared dead; late aborts attributed
        #: to them are suppressed so they cannot kill the shrunken world.
        self.dead_ranks: set[int] = set()
        self._elastic_lock = threading.Lock()
        #: rejoin requests queued by :func:`~repro.runtime.elastic.thread_rejoin`
        #: (the thread backend's rendezvous analog); the elastic leader
        #: commits them between iterations.
        self._pending_joins: list[dict] = []

    @property
    def aborted(self) -> AbortState:
        """Rank 0's abort state (the launcher's world-failed probe)."""
        return self._rank_states[0]

    def abort(self, failed_rank: int | None = None) -> None:
        """Flag the world as failed and wake all blocked receivers."""
        if failed_rank is not None and failed_rank in self.dead_ranks:
            return  # already accounted for by a shrink; the world lives on
        for state in self._rank_states:
            state.set(failed_rank)
        for ready in self._ready:
            with ready:
                ready.notify_all()

    def comm(self, rank: int) -> "ThreadComm":
        """The communicator handle for one rank."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for world of size {self.size}")
        return ThreadComm(self, rank)


class ThreadComm(Communicator):
    """Per-rank communicator bound to a :class:`ThreadWorld`."""

    def __init__(self, world: ThreadWorld, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        self.trace = world.trace
        self.topology = world.topology
        self.op_timeout = world.op_timeout
        self._collective_counter = 0
        self._queues = world._queues[rank]
        self._ready = world._ready[rank]
        #: this rank's elastic epoch — per-communicator, not shared, so
        #: every survivor computes the same ``epoch + 1`` at shrink time no
        #: matter in what order the rank threads reach their shrink() call
        #: (exactly like the per-process epochs of the other backends)
        self.epoch = 0

    @property
    def dead_ranks(self) -> set[int]:
        return self.world.dead_ranks

    # the dead set is world knowledge, but the abort flag and epoch are
    # per-rank: an elastic shrink replaces only this rank's state, which
    # leaves the recorded failure visible to rank threads that have not
    # caught it yet
    @property
    def aborted(self) -> AbortState:
        return self.world._rank_states[self.rank]

    @aborted.setter
    def aborted(self, state: AbortState) -> None:
        self.world._rank_states[self.rank] = state

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    def _alloc_seq(self, dest: int, context: tuple, tag: int) -> int:
        return self.world.trace.next_seq(self.rank, dest, tag, context)

    def _transport_send(self, obj: Any, nbytes: int, seq: int, dest: int, key: bytes, tag: int) -> None:
        item = (copy_payload(obj), nbytes, seq)
        ready = self.world._ready[dest]
        with ready:
            self.world._queues[dest].setdefault((self.rank, key, tag), deque()).append(item)
            ready.notify_all()  # the rank's threads wait on different keys

    def _transport_recv(self, source: int, key: bytes, tag: int) -> tuple[Any, int, int]:
        want = (source, key, tag)
        aborted = self.aborted  # an elastic reset swaps the flag; unwind on the one we started under
        deadline = None if self.op_timeout is None else time.monotonic() + self.op_timeout
        with self._ready:
            while (item := self._take(want)) is None:
                if aborted.is_set():
                    raise aborted.error()
                wait = _ABORT_POLL_S
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise CommTimeoutError.expired("recv from", source, key, tag, self.op_timeout)
                    wait = min(wait, remaining)
                self._ready.wait(wait)
        return item

    def _probe(self, source: int, key: bytes, tag: int) -> bool:
        return (source, key, tag) in self._queues  # a queue that exists holds a message

    def _next_join(self, members, epoch: int):
        """Pop the first queued :func:`~repro.runtime.elastic.thread_rejoin`
        of a rank outside ``members`` and release it into ``epoch`` (its
        sends queue until the members switch to the regrown world)."""
        world = self.world
        with world._elastic_lock:
            request = next((r for r in world._pending_joins if r["rank"] not in members), None)
            if request is None:
                return None
            world._pending_joins.remove(request)
        request["members"] = sorted({*members, request["rank"]})
        request["epoch"] = epoch
        request["event"].set()
        return request["rank"], None


class ThreadBackend(Backend):
    """In-process backend: one daemon thread per rank, zero-copy transport
    apart from the MPI-mandated send-side payload copy."""

    name = "thread"

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
        world = ThreadWorld(
            nranks,
            trace=trace,
            topology=topology,
            op_timeout=op_timeout,
        )
        results: list[Any] = [None] * nranks
        errors: list[tuple[int, BaseException]] = []
        errors_lock = threading.Lock()

        def runner(rank: int) -> None:
            comm = world.comm(rank)
            comm.fault_plan = fault_plan
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except WorldAbortedError:
                pass  # secondary failure: another rank already aborted the world
            except BaseException as exc:  # noqa: BLE001 - must propagate rank errors
                with errors_lock:
                    errors.append((rank, exc))
                world.abort(failed_rank=rank)

        threads = [
            threading.Thread(target=runner, args=(rank,), name=f"rank-{rank}", daemon=True)
            for rank in range(nranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
            if t.is_alive():
                world.abort()
                raise TimeoutError(
                    f"parallel run did not finish within {timeout}s "
                    f"(likely deadlock in {t.name})"
                )

        if errors:
            rank, original = min(errors, key=lambda e: e[0])
            err = RankError(rank, original)
            err.partial_results = results
            raise err from original
        return ParallelResult(results=results, trace=world.trace, world=world)


register_backend(ThreadBackend.name, ThreadBackend)
