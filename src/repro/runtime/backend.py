"""Pluggable runtime backends: who executes the ranks of a parallel run.

Every collective in :mod:`repro.collectives` is written against the
:class:`~repro.runtime.comm.Communicator` interface alone; a *backend* is
the piece that brings ``P`` communicators to life, runs the user's rank
function on each, moves messages between them, and assembles the per-rank
results and the trace. SparCML's algorithms are drop-in MPI collectives
(§7); mirroring that, backends are interchangeable launchers — the same
program runs unmodified on any of them:

``thread`` (:class:`~repro.runtime.thread_backend.ThreadBackend`)
    one thread per rank in this process, one queue table per rank. Fast,
    zero-setup, the default for tests and cost-model studies.
``process`` (:class:`~repro.runtime.process_backend.ProcessBackend`)
    one OS process per rank with real serialized transport over pipes,
    including the sparse/dense header word of §5.1 on every stream
    payload. The closest analog of the paper's deployment.
``shmem`` (:class:`~repro.runtime.shmem_backend.ShmemBackend`)
    the ``process`` backend plus a shared-memory slab per pair of ranks:
    a large frame is packed once into the slab and decoded in place, a
    42-byte descriptor on the pipe announcing it. Same as pipes and TCP
    below ~100 KB per frame, about twice TCP at 256 KB - 1 MB.
``socket`` (:class:`~repro.runtime.socket_backend.SocketBackend`)
    one OS process per rank with payloads framed over a full TCP mesh
    assembled through a rendezvous address. The only transport that can
    span machines: ``run_ranks`` launches all ranks on this host, while
    ``python -m repro serve-rank`` joins ranks from anywhere into the
    same world — and, with ``--elastic`` / ``--rejoin``, a restarted rank
    back into it by the same join path
    (:mod:`~repro.runtime.rendezvous`).

Backends register themselves under a short name via
:func:`register_backend` when their module is imported (the built-ins
are imported by ``repro.runtime``'s package ``__init__``, so they are
always available); :func:`~repro.runtime.run_ranks` resolves the
``backend=`` argument through :func:`get_backend`, so user code selects a
transport with a string::

    run_ranks(program, nranks=8, backend="process")

Writing a new backend
---------------------
A backend whose ranks are OS processes does not write a launcher: it
subclasses :class:`~repro.runtime.mesh.MeshBackend` and supplies a
*transport*. The launcher there owns everything transport-independent —
forking one process per rank with the list of inherited ends to close,
the rank lifecycle (connect → ``fn(comm)`` → FIN → report → linger →
close), result collection with the failure grace period, reaping, cleanup
on a partial launch, and the trace merge. The transport says only what is
its own: a :class:`~repro.runtime.mesh.Transport` (how the mesh is built
and handed to a child, which ends the parent releases after forking, how
a finished rank's inbound channels are drained, what to tear down) and a
**channel class with four methods** — ``fileno``, ``setblocking``,
``send``, ``recv_into`` — whose instances it hands to the one
communicator of the family, :class:`~repro.runtime.mesh.StreamComm`
(``<u64 length><frame>`` framing, per-source reassembly, the
blocked-receive loop in which whichever thread of a rank is blocked reads
the rank's channels — there are no receiver threads — and the write loop
that finishes a frame it has begun). Sockets are such channels as they
are; ``process_backend.py`` wraps pipe ends and is the smallest complete
example (~80 lines of code); ``shmem_backend.py`` shows a side channel
for large frames added on top (override ``_transport_send`` /
``_deliver``, keep the stream as the complete transport).

Anything else (ranks as threads, a remote scheduler, …) subclasses
:class:`Backend` directly, implements :meth:`Backend.run` (typically by
providing a ``Communicator`` subclass with the two transport hooks), and
registers itself; a new name in the equivalence tests' ``BACKENDS`` lists
then inherits the whole contract.

What a backend communicator owes the seam
-----------------------------------------
Besides the two transport hooks, the shared layers above act on a few
pieces of *state* of the backend communicator (see "The seam under every
message" in :mod:`repro.runtime.comm`) — a backend provides the state,
never the logic: ``fault_plan`` (set by the launcher from
``run(fault_plan=)``; :meth:`Communicator.send` / ``recv`` apply it, the
backend only overrides ``_die`` when its ranks own a process that should
really exit), and ``epoch`` / ``dead_ranks`` / a settable ``aborted``
(what the ``_elastic_*`` membership hooks commit to). A backend that can
revive a dead rank answers one more hook, ``_next_join(members, epoch)``
(the thread and socket backends do; the default says nobody can rejoin),
and extends ``_elastic_regrow`` if a rejoiner must be connected.
Sub-communicators,
non-blocking launches and elastic worlds are
:class:`~repro.runtime.comm.ProxyComm` stacks over that one communicator
and need nothing from the backend.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable

from .trace import Trace

__all__ = [
    "Backend",
    "ParallelResult",
    "RankError",
    "register_backend",
    "get_backend",
    "available_backends",
]


class RankError(RuntimeError):
    """Wraps an exception raised inside a rank function.

    ``partial_results`` holds the return values of the ranks that *did*
    complete (``None`` at failed/aborted slots) — graceful-degradation
    consumers survive a peer death and still produce results worth
    inspecting even though the run as a whole failed.
    """

    def __init__(
        self, rank: int, original: BaseException, partial_results: "list[Any] | None" = None
    ) -> None:
        super().__init__(f"rank {rank} failed: {type(original).__name__}: {original}")
        self.rank = rank
        self.original = original
        self.partial_results = partial_results


@dataclass
class ParallelResult:
    """Outcome of one parallel run."""

    results: list[Any]
    trace: Trace
    world: Any

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, rank: int) -> Any:
        return self.results[rank]


class Backend(abc.ABC):
    """A way of executing ``P`` communicating ranks.

    Subclasses provide :attr:`name` (the registry key) and :meth:`run`.
    A backend instance is stateless and reusable; all per-run state lives
    in the world object it creates for each :meth:`run` call.
    """

    #: registry key; also what ``run_ranks(backend=...)`` matches against.
    name: str = ""

    @abc.abstractmethod
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
        """Execute ``fn(comm, *args, **kwargs)`` on ``nranks`` ranks.

        Must propagate the first rank failure as :class:`RankError`, abort
        peers blocked on communication instead of deadlocking, enforce
        ``timeout`` (raising :class:`TimeoutError`), expose ``op_timeout``
        as ``comm.op_timeout`` so blocked per-operation waits raise
        :class:`~repro.runtime.comm.CommTimeoutError` after that many
        seconds, and hand ``topology`` (an already-normalized
        :class:`~repro.runtime.topology.Topology` or ``None``) and
        ``fault_plan`` (a :class:`~repro.runtime.faults.FaultPlan` or
        ``None``) to every rank's communicator as ``comm.topology`` /
        ``comm.fault_plan``. The run records into ``trace``
        (:func:`~repro.runtime.trace.run_trace`: a given trace must be
        fresh, refused before any rank starts), also when it raises.
        """

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: dict[str, Callable[[], Backend]] = {}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register a backend factory under ``name`` (idempotent re-register)."""
    if not name:
        raise ValueError("backend name must be non-empty")
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """Sorted names of all registered backends."""
    return tuple(sorted(_REGISTRY))


def get_backend(spec: "str | Backend") -> Backend:
    """Resolve a registered backend name (or pass through an instance)."""
    if isinstance(spec, Backend):
        return spec
    factory = _REGISTRY.get(spec)
    if factory is None:
        raise ValueError(f"unknown backend {spec!r}; choose from {sorted(_REGISTRY)}")
    return factory()
