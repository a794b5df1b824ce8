"""Non-blocking collective operations (MPI-3 style, paper §7).

SparCML "allow[s] a thread to trigger a collective operation, such as
allreduce, in a nonblocking way. This enables the thread to proceed with
local computations while the operation is performed in the background."

We reproduce exactly that: :func:`i_collective` launches the rank's part of
a collective on a background progress thread and hands back a handle. The
caller keeps computing and calls ``wait()`` when it needs the result.

The machinery is backend-agnostic: :class:`_BufferedComm` is a
:class:`~repro.runtime.comm.ProxyComm` whose context is a child of the
launching communicator's (the launch takes a slot of the same counter
``split`` and ``subgroup`` draw from, :mod:`~repro.runtime.context`) and
which buffers the collective's trace events, while the payloads
themselves flow through the wrapped communicator's transport hooks —
thread queues or process pipes alike. A launch is a communicator like any
other, so launches nest to any depth and run any number of collectives.

Trace semantics: the background events are buffered and appended to the
rank's trace at ``wait()`` time, i.e. replay times the collective as if it
completed at the join point. End-to-end benches model the overlap benefit as
``max(compute, comm)`` per step (the standard overlap idealisation) — see
``repro.netsim.replay.overlap_step_time``.
"""

from __future__ import annotations

import threading
from typing import Any

from .comm import Communicator, Handle, ProxyComm
from .trace import Trace

__all__ = ["NonBlockingHandle", "i_collective"]


class _BufferedComm(ProxyComm):
    """Proxy communicator that buffers trace events until joined.

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

    def flush_into(self, trace: Trace) -> None:
        """Append the buffered rows to the real trace (at join time)."""
        trace.merge(self.world_rank, self.trace.export(self.world_rank))


class NonBlockingHandle(Handle):
    """Handle of a background collective; ``wait()`` joins and returns."""

    def __init__(self, thread: threading.Thread, comm: _BufferedComm, result_box: list[Any]) -> None:
        self._thread = thread
        self._comm = comm
        self._box = result_box
        self._joined = False

    def wait(self) -> Any:
        if not self._joined:
            self._thread.join()
            self._comm.flush_into(self._comm.inner.trace)
            self._joined = True
        if self._box and isinstance(self._box[0], BaseException):
            raise self._box[0]
        return self._box[0] if self._box else None

    def test(self) -> bool:
        return not self._thread.is_alive()


#: "knob not passed" sentinel — lets the callable form forward only the
#: keywords the caller actually set (a callable need not accept all four).
_UNSET: Any = object()

#: the blocking-surface knobs mirrored by the stream form (and forwarded
#: verbatim by the callable form when explicitly set).
_KNOBS = ("algorithm", "quantizer", "op", "chunks")


def i_collective(
    comm: Communicator,
    collective: Any,
    *args: Any,
    algorithm: Any = _UNSET,
    quantizer: Any = _UNSET,
    op: Any = _UNSET,
    chunks: Any = _UNSET,
    **kwargs: Any,
) -> NonBlockingHandle:
    """Launch a collective in the background; returns a joinable handle.

    Two forms, mirroring the blocking surface:

    * **Stream form** — ``collective`` is a
      :class:`~repro.streams.SparseStream`: the call accepts exactly the
      knobs of :func:`~repro.collectives.api.sparse_allreduce`
      (``algorithm="auto"``, ``quantizer=``, ``op=``, ``chunks=``) and
      resolves them through the same
      :func:`~repro.collectives.api.resolve_collective` path *eagerly* on
      the calling thread, so ``"auto"`` selection and argument validation
      behave identically to the blocking call (and bad knobs raise at
      launch, not at ``wait()``).
    * **Callable form** — ``collective`` is a callable: it runs as
      ``collective(buffered_comm, *args, **kwargs)``; any of the four
      knobs passed explicitly are forwarded into ``kwargs`` unchanged.

    All ranks must call this in the same program order (the usual MPI
    non-blocking-collective contract) so the launches' contexts line up.
    Works on any backend: the progress thread lives inside the rank (the
    rank's thread on the thread backend, the rank's process on the process
    backend).
    """
    knobs = {
        name: value
        for name, value in zip(_KNOBS, (algorithm, quantizer, op, chunks))
        if value is not _UNSET
    }
    if callable(collective):
        kwargs.update(knobs)
        target, call_args, call_kwargs = collective, args, kwargs
        payload = ()
    else:
        # stream form: resolve like sparse_allreduce would, on this thread
        if args:
            if len(args) > 1 or "algorithm" in knobs:
                raise TypeError(
                    "stream form of i_collective takes at most one positional "
                    "argument (the algorithm name)"
                )
            knobs["algorithm"] = args[0]
        if kwargs:
            raise TypeError(
                f"stream form of i_collective got unexpected keyword arguments "
                f"{sorted(kwargs)}; it accepts {list(_KNOBS)}"
            )
        # local import: collectives is layered on top of the runtime package
        from ..collectives.api import resolve_collective

        target, call_kwargs = resolve_collective(comm, collective, **knobs)
        call_args, payload = (), (collective,)

    proxy = _BufferedComm(comm, comm._next_slot())
    box: list[Any] = []

    def work() -> None:
        try:
            box.append(target(proxy, *payload, *call_args, **call_kwargs))
        except BaseException as exc:  # noqa: BLE001 - surfaced at wait()
            box.append(exc)

    name = f"icoll-rank{comm.world_rank}-depth{len(comm.context)}"
    thread = threading.Thread(target=work, name=name, daemon=True)
    thread.start()
    return NonBlockingHandle(thread, proxy, box)
