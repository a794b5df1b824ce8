"""Non-blocking collective operations (MPI-3 style, paper §7).

SparCML "allow[s] a thread to trigger a collective operation, such as
allreduce, in a nonblocking way. This enables the thread to proceed with
local computations while the operation is performed in the background."

We reproduce exactly that: :func:`i_collective` launches the rank's part of
a collective and hands back a handle. The caller keeps computing and calls
``wait()`` when it needs the result.

**One launch context and one progress thread per launching
communicator.** A communicator's first launch takes a child slot of the
counter ``split`` and ``subgroup`` draw from
(:mod:`~repro.runtime.context`) and starts one long-lived thread; every
later launch, callable form and started plan run alike, runs in that one
context on that one thread, one after another in launch order — the
order the MPI contract already fixes on every rank, so the launches of
all ranks line up without a handshake, and per-channel FIFO keeps
successive launches apart as it keeps successive blocking collectives
apart. A launch made *inside* a launch is a launch on another
communicator (the launch context itself, or a split of it), so it runs
on another thread and nesting cannot deadlock. Every backend's rank
epilogue joins the rank's progress threads once their queued launches
ran (:func:`join_progress`), and a communicator that is collected stops
its thread, so no thread outlives its world and none is started per
launch.

**Two forms.** The callable form runs the collective on the launch
context, a :class:`_BufferedComm`: a
:class:`~repro.runtime.comm.ProxyComm` that buffers each launch's trace
events, while the payloads themselves flow through the wrapped
communicator's transport hooks — thread queues or process pipes alike. A
launch context is a communicator like any other, so launches nest to any
depth and run any number of collectives. The stream form is a started
run of the communicator's persistent plan for its knobs
(:func:`~repro.collectives.api.cached_plan`), in the same context.

Trace semantics: a launch's events are buffered and appended to the
rank's trace at ``wait()`` time, i.e. replay times the collective as if it
completed at the join point. End-to-end benches model the overlap benefit as
``max(compute, comm)`` per step (the standard overlap idealisation) — see
``repro.netsim.replay.overlap_step_time``.
"""

from __future__ import annotations

import queue
import threading
import weakref
from typing import Any

from .comm import Communicator, Handle, ProxyComm
from .trace import Trace

__all__ = ["NonBlockingHandle", "i_collective", "join_progress"]


class _BufferedComm(ProxyComm):
    """A communicator's launch context: buffers each launch's trace events
    until it is joined, and holds the job queue of the progress thread
    that runs the launches.

    Point-to-point traffic flows through the real backend immediately (the
    collective makes real progress in the background); only the *trace*
    bookkeeping is deferred so the rank's event log stays in program order.
    """

    def __init__(self, inner: Communicator, slot: int) -> None:
        super().__init__(inner, (*inner.context, slot))
        # private event buffer, sized to the *world* so events (always
        # attributed to world ranks) index correctly even when the wrapped
        # communicator is a sub-communicator of a bigger world
        self.trace = Trace(inner.trace.nranks)
        self.jobs: queue.SimpleQueue = queue.SimpleQueue()


class NonBlockingHandle(Handle):
    """Handle of a launched collective; ``wait()`` joins and returns."""

    def __init__(self, comm: _BufferedComm, work: tuple) -> None:
        self._comm = comm
        self._work: Any = work  # (target, args, kwargs) until it ran
        self._done = threading.Event()
        self._box: list[Any] = []  # the result or the error, then the trace rows
        self._joined = False
        #: called with the result when the first ``wait()`` returns it
        self.received: Any = None

    def _run(self) -> None:
        """The launch itself, on the progress thread."""
        target, args, kwargs = self._work
        self._work = None
        try:
            self._box.append(target(self._comm, *args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - surfaced at wait()
            self._box.append(exc)
        finally:
            self._box.append(self._comm.trace.drain(self._comm.world_rank))
            self._done.set()

    def settle(self) -> None:
        """Block until the launch has run; its result and trace rows
        stay for :meth:`wait`."""
        self._done.wait()

    def wait(self) -> Any:
        if not self._joined:
            self._done.wait()
            self._comm.inner.trace.merge(self._comm.world_rank, self._box.pop())
            self._joined = True
            if self.received is not None and not isinstance(self._box[0], BaseException):
                self.received(self._box[0])
        if isinstance(self._box[0], BaseException):
            raise self._box[0]
        return self._box[0]

    def test(self) -> bool:
        return self._done.is_set()


def _serve(jobs: queue.SimpleQueue) -> None:
    """A progress thread: run the queued launches in order until told to stop."""
    while (job := jobs.get()) is not None:
        job._run()
        job = None  # idle, the thread holds no launch (nor the communicator behind it)


#: guards the rank lists of progress threads (``Communicator._launch_threads``)
_THREADS = threading.Lock()


def _launch_context(comm: Communicator) -> _BufferedComm:
    """``comm``'s launch context, made with its progress thread at the first launch."""
    if comm._launched is None:
        launched = _BufferedComm(comm, comm._next_slot())
        name = f"icoll-rank{comm.world_rank}-depth{len(comm.context)}"
        thread = threading.Thread(target=_serve, args=(launched.jobs,), name=name, daemon=True)
        thread.start()
        comm._launched = launched
        weakref.finalize(comm, launched.jobs.put, None)  # a collected communicator stops its thread
        backend = comm.backend
        with _THREADS:  # listed on the backend communicator, for the rank epilogue
            live = [pair for pair in backend._launch_threads or () if pair[1].is_alive()]
            backend._launch_threads = [*live, (launched.jobs, thread)]
    return comm._launched


def join_progress(comm: Communicator) -> None:
    """Join every progress thread of ``comm``'s rank once its queued
    launches ran, in the order they started (an outer launch's thread
    before the threads its launches started).

    Every backend's rank epilogue calls this when the rank program
    returns — after a failure once the world is aborted, so a launch still
    blocked on a peer unwinds — so no progress thread outlives its world.
    """
    backend = comm.backend
    while True:
        with _THREADS:
            if not backend._launch_threads:
                return
            jobs, thread = backend._launch_threads.pop(0)
        jobs.put(None)
        thread.join()


def launch(comm: Communicator, target, /, *args, **kwargs) -> NonBlockingHandle:
    """Queue ``target(launched, *args, **kwargs)`` on ``comm``'s progress
    thread, behind ``comm``'s earlier launches (``launched`` is ``comm``'s
    launch context)."""
    launched = _launch_context(comm)
    handle = NonBlockingHandle(launched, (target, args, kwargs))
    launched.jobs.put(handle)
    return handle


#: the blocking-surface knobs the stream form accepts
_KNOBS = ("algorithm", "quantizer", "op", "chunks")


def i_collective(comm: Communicator, collective: Any, *args: Any, **kwargs: Any) -> NonBlockingHandle:
    """Launch a collective in the background; returns a joinable handle.

    Two forms, mirroring the blocking surface:

    * **Stream form** — ``collective`` is a
      :class:`~repro.streams.SparseStream`: the call accepts exactly the
      knobs of :func:`~repro.collectives.api.sparse_allreduce`
      (``algorithm="auto"``, ``quantizer=``, ``op=``, ``chunks=``) and
      starts a run of the same cached plan
      (:func:`~repro.collectives.api.cached_plan`), resolved *eagerly* on
      the calling thread, so ``"auto"`` selection and argument validation
      behave identically to the blocking call (and bad knobs raise at
      launch, not at ``wait()``).
    * **Callable form** — ``collective`` is a callable: it runs as
      ``collective(launched, *args, **kwargs)``, knobs included, where
      ``launched`` is ``comm``'s launch context (the same for every launch).

    All ranks must call this in the same program order (the usual MPI
    non-blocking-collective contract): the launches then run in the same
    order on every rank, and their frames meet on the same keys.
    Works on any backend: the progress thread lives inside the rank (the
    rank's thread on the thread backend, the rank's process on the process
    backend).
    """
    if callable(collective):
        return launch(comm, collective, *args, **kwargs)
    # stream form: a started run of the plan sparse_allreduce would run
    if len(args) > 1 or (args and "algorithm" in kwargs):
        raise TypeError(
            "stream form of i_collective takes at most one positional "
            "argument (the algorithm name)"
        )
    if stray := sorted(set(kwargs) - set(_KNOBS)):
        raise TypeError(
            f"stream form of i_collective got unexpected keyword arguments "
            f"{stray}; it accepts {list(_KNOBS)}"
        )
    # local import: collectives is layered on top of the runtime package
    from ..collectives.api import cached_plan

    quantizer = kwargs.pop("quantizer", None)
    return cached_plan(comm, collective, *args, **kwargs).start(collective, quantizer)
