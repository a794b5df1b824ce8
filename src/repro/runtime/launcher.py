"""Parallel run harness: spawn one rank per thread/process and collect results.

``run_ranks(fn, nranks)`` is the ``mpiexec`` analog: it resolves the
requested :class:`~repro.runtime.backend.Backend` (``"thread"`` by default,
``"process"`` for real multiprocess transport), runs ``fn(comm, ...)`` on
every rank concurrently, propagates the first exception (aborting blocked
peers instead of deadlocking) and returns the per-rank results together
with the recorded trace.
"""

from __future__ import annotations

from typing import Any, Callable

from .backend import Backend, ParallelResult, RankError, get_backend
from .faults import FaultPlan
from .topology import Topology, normalize_topology
from .trace import Trace

__all__ = ["run_ranks", "ParallelResult", "RankError"]


def _check_timeouts(**timeouts: "float | None") -> None:
    """Every given timeout is positive or ``None`` (``ValueError`` naming it)."""
    for name, value in timeouts.items():
        if value is not None and not value > 0:
            raise ValueError(f"{name} must be positive or None, got {value!r}")


def run_ranks(
    fn: Callable[..., Any],
    nranks: int,
    *args: Any,
    backend: "str | Backend" = "thread",
    trace: Trace | None = None,
    timeout: float | None = 300.0,
    op_timeout: float | None = None,
    topology: "Topology | str | int | None" = None,
    fault_plan: Any = None,
    **kwargs: Any,
) -> ParallelResult:
    """Execute ``fn(comm, *args, **kwargs)`` on ``nranks`` concurrent ranks.

    Parameters
    ----------
    fn:
        The per-rank program. Its first argument is the rank's communicator.
    nranks:
        World size ``P``.
    backend:
        Which runtime executes the ranks: ``"thread"`` (in-process, the
        default), ``"process"`` (one OS process per rank with serialized
        pipe transport), ``"shmem"`` (pipes plus a shared-memory
        slab for large frames), ``"socket"`` (processes over a TCP mesh — the multi-host
        transport), or any registered :class:`Backend` instance.
    trace:
        Optional pre-existing trace to append to (e.g. to accumulate multiple
        collective invocations into one replayable log).
    timeout:
        Per-run watchdog in seconds (positive); ``None`` disables it.
    op_timeout:
        Per-operation deadline in seconds (positive) for blocked transport
        sends and receives; ``None`` (the default) blocks until the run watchdog. A
        rank stalled past the deadline raises
        :class:`~repro.runtime.comm.CommTimeoutError` naming the peer and
        tag, instead of hanging until ``timeout``.
    topology:
        Optional rank -> host map surfaced as ``comm.topology`` on every
        rank: a :class:`~repro.runtime.topology.Topology`, an ``"HxR"``
        spec string (hosts x ranks-per-node, e.g. ``"2x4"``), an ``int``
        (ranks per node), or a per-rank host list. Lets any backend
        *simulate* a multi-host world for topology-aware collectives; on
        the socket backend it overrides the rendezvous-derived map.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` (or spec string,
        e.g. ``"seed=7,drop=0.02,kill=1@5"``) injecting deterministic
        drop/delay/kill faults: handed to every rank's communicator as
        ``comm.fault_plan``, where the one send/recv seam applies it.

    Returns
    -------
    ParallelResult
        Per-rank return values (indexable by rank) plus the trace.

    Raises
    ------
    RankError
        Re-raises the first rank failure, chained to the original exception.
    """
    _check_timeouts(timeout=timeout, op_timeout=op_timeout)
    return get_backend(backend).run(
        fn,
        nranks,
        *args,
        trace=trace,
        timeout=timeout,
        op_timeout=op_timeout,
        topology=normalize_topology(topology, nranks),
        fault_plan=FaultPlan.coerce(fault_plan),
        **kwargs,
    )
