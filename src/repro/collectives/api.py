"""Public entry points for sparse and dense collective operations.

This is the user-facing surface of the communication library — the analog
of SparCML's MPI-like interface ("The SparCML library provides a similar
interface to that of standard MPI calls, with the caveat that the data
representation is assumed to be a sparse stream", §7).

**Persistent collectives.** MPI-4 splits a collective a program repeats
into ``MPI_Allreduce_init`` — what does not change between calls, done
once — and ``MPI_Start`` / ``MPI_Wait`` every step; SpComm3D's setup
phase does the same for a sparse kernel's communication pattern.
:func:`allreduce_plan` is that split for the six sparse allreduce
schedules:

* it resolves the knobs once. An ``"auto"`` plan agrees on its first run
  after creation or :meth:`~AllreducePlan.reset` — one scalar
  :func:`~repro.costmodel.adaptive.consistent_mean` round over the
  stream's nnz — and prices every later run from the newest result the
  program has *received* from it (a blocking run's return value, or a
  started run's, once its handle is waited). A result is bit-identical on
  every rank, so its support size u is agreed without a message; the
  plan inverts Appendix B's fill-in (``expected_union_size``) to the
  per-rank estimate k̂ = N(1 − (1 − u/N)^(1/P)). ``"auto"`` is re-ranked,
  and ``chunks="auto"`` re-priced, only when that estimate
  :func:`~repro.costmodel.adaptive.drifted` from the one the held
  resolution was priced from (the first result re-anchors, a run with no
  new result holds) — the library's one re-selection rule — and every
  (re-)selection of ``"auto"`` is logged on :attr:`AllreducePlan.switches`.
  A run still in flight is never read: which one finishes first is a
  matter of timing, which differs between ranks;
* it binds its schedule and knobs once per resolution;
* a blocking run (``plan(stream)``) runs on the calling thread in the
  communicator's own context; a started run (``plan.start(stream)``) runs
  on the communicator's progress thread (:mod:`~repro.runtime.nonblocking`)
  in its launch context, and its trace events reach the rank's log at
  ``wait()``. Starts queue in launch order on that one thread, and a
  blocking run first waits for the plan's last start to finish — at the
  same point of the program on every rank. An ``"auto"`` run after the
  first sends only its schedule's messages.

Every collective of a communicator, planned or not, runs on the same keys:
the communicator's context and the one tag block
(:data:`~repro.runtime.comm.COLLECTIVE_TAG`); a hierarchical schedule's two
host subgroups are built once per communicator and dimension
(:func:`~repro.collectives.hier.build_hierarchy`). A rank's channel count is
therefore fixed by what it runs, not by its step count.

:func:`sparse_allreduce`, the stream form of
:func:`~repro.runtime.nonblocking.i_collective` and
:class:`~repro.core.fusion.GradientFuser` run through :func:`cached_plan`:
one plan per communicator and key every rank agrees on (algorithm knob,
op, chunks knob, dimension, dtype; the quantizer is a run argument). A
shrunk or regrown world is a new communicator and plans afresh.
"""

from __future__ import annotations

import numpy as np

from ..costmodel.adaptive import AlgorithmSwitch, consistent_mean, drifted
from ..costmodel.model import SCHEDULES, CostModel, Instance
from ..quant import QSGDQuantizer
from ..runtime.backend import Backend, ParallelResult
from ..runtime.comm import Communicator
from ..runtime.launcher import run_ranks
from ..runtime.nonblocking import NonBlockingHandle, launch
from ..runtime.topology import Topology
from ..streams import SparseStream
from ..streams.ops import REDUCE_OPS, SUM, ReduceOp
from .allgather import sparse_allgather
from .dense import DENSE_ALGORITHMS
from .dsar import dsar_split_allgather
from .hier import _check_chunks, dsar_hierarchical, ssar_hierarchical
from .sparse import ssar_recursive_double, ssar_ring, ssar_split_allgather

__all__ = [
    "sparse_allreduce",
    "dense_allreduce",
    "sparse_allgather",
    "run_sparse_allreduce",
    "resolve_collective",
    "allreduce_plan",
    "AllreducePlan",
    "cached_plan",
    "cached_plans",
    "ALGORITHMS",
]

#: the schedule behind every name of :data:`~repro.costmodel.model.SCHEDULES`
ALGORITHMS = {
    "ssar_rec_dbl": ssar_recursive_double,
    "ssar_split_ag": ssar_split_allgather,
    "ssar_ring": ssar_ring,
    "ssar_hier": ssar_hierarchical,
    "dsar_split_ag": dsar_split_allgather,
    "dsar_hier": dsar_hierarchical,
}


def _resolve_op(op: "ReduceOp | str") -> ReduceOp:
    if isinstance(op, ReduceOp):
        return op
    if op in REDUCE_OPS:
        return REDUCE_OPS[op]
    raise ValueError(f"unknown reduction op {op!r}; choose from {sorted(REDUCE_OPS)}")


def resolve_collective(
    comm: Communicator,
    stream: SparseStream,
    algorithm: str = "auto",
    quantizer: QSGDQuantizer | None = None,
    op: "ReduceOp | str" = SUM,
    chunks: "int | str" = 1,
) -> "tuple[object, dict]":
    """Resolve the public allreduce knobs into ``(algorithm_fn, kwargs)``, once.

    A one-shot resolution: the first run of a throwaway plan, resolved the
    way every plan resolves (:meth:`AllreducePlan.resolve` — the
    ``"auto"`` selector, op lookup and per-algorithm knob routing,
    ``quantizer`` only to the dense-stage algorithms, ``chunks`` only to
    the hierarchical ones, both warning-free no-ops elsewhere;
    :data:`~repro.costmodel.model.SCHEDULES` says which is which), but
    keeping nothing: :func:`sparse_allreduce` and the stream form of
    :func:`~repro.runtime.nonblocking.i_collective` run through
    :func:`cached_plan` instead, and ``bench/`` times this call as
    ``costmodel.resolve_us``. The returned pair satisfies
    ``fn(comm, stream, **kwargs)``.

    ``algorithm="auto"`` and ``chunks="auto"`` resolve from a
    *rank-consistent* density estimate — a first run's one scalar
    agreement round (:func:`~repro.costmodel.consistent_mean` over
    ``stream.nnz``) — never from the local stream alone: with skewed
    per-rank sparsity a local resolve can pick different algorithms on
    different ranks, whose mismatched schedules deadlock. Both knobs are
    therefore collective when set to ``"auto"`` (all ranks pass the same
    knob values already, per the collective contract, so the agreement
    round is uniform too).
    """
    plan = AllreducePlan(comm, stream.dimension, stream.value_dtype, algorithm, op, chunks)
    algorithm, chunks = plan.resolve(stream)
    return ALGORITHMS[algorithm], plan.kwargs(algorithm, quantizer, chunks)


class AllreducePlan:
    """A sparse allreduce planned once and run every step: made by
    :func:`allreduce_plan`, or per communicator and key by :func:`cached_plan`.

    :attr:`switches` logs every (re-)selection of an ``"auto"`` algorithm
    as an :class:`~repro.costmodel.AlgorithmSwitch` (``iteration`` = the
    run that made it), identical on every rank."""

    def __init__(self, comm, dimension, dtype, algorithm="auto", op=SUM, chunks=1) -> None:
        if algorithm != "auto" and algorithm not in SCHEDULES:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose from {sorted(SCHEDULES)} or 'auto'"
            )
        self.comm, self.dimension, self.dtype = comm, int(dimension), np.dtype(dtype)
        self.algorithm, self.op = algorithm, _resolve_op(op)
        self.chunks = chunks if chunks == "auto" else _check_chunks(chunks)
        self._auto = "auto" in (algorithm, self.chunks)
        self.reset()
        #: the run bound for the last resolution: ``(resolution, schedule, kwargs)``
        self._bound: "tuple | None" = None
        self._last: "NonBlockingHandle | None" = None

    def resolve(self, stream: SparseStream) -> tuple:
        """The ``(algorithm, chunks)`` a run of ``stream`` takes: the held
        ones, priced at the plan's first run from one agreement round and
        re-priced when the estimate read off the newest received result
        drifted from the one they were priced from."""
        if stream.dimension != self.dimension or stream.value_dtype != self.dtype:
            raise ValueError(
                f"plan for {self.dimension} x {self.dtype} streams "
                f"got {stream.dimension} x {stream.value_dtype}"
            )
        if not self._auto:
            return self._resolved
        self._runs += 1
        result, self._received = self._received, None
        if "auto" in self._resolved:  # the first run since creation or reset agrees
            self._price(consistent_mean(self.comm, float(stream.nnz)), "initial selection")
            self._anchor = None  # an agreed mean: the first result re-anchors
        elif result is not None:  # a run with no new result holds
            # the per-rank nnz whose expected union (Appendix B) is the result's support
            n = max(self.dimension, 1)
            union = result.stored_nonzeros if result.is_dense else result.nnz
            estimate = n * (1.0 - (1.0 - union / n) ** (1.0 / self.comm.size))
            if self._anchor is None:
                self._anchor = estimate
            elif drifted(self._anchor, estimate):
                self._price(
                    estimate, f"density drift (anchor {self._anchor:.1f} -> {estimate:.1f})"
                )
        return self._resolved

    def _price(self, estimate: float, reason: str) -> None:
        """Re-resolve the ``"auto"`` knobs at ``estimate`` nnz per rank."""
        nnz = min(max(estimate, 0.0), float(self.dimension))
        instance = Instance(self.dimension, self.comm.size, nnz, self.dtype.itemsize)
        model, topology = CostModel.default(), self.comm.topology
        algorithm, chunks = self.algorithm, self.chunks
        if algorithm == "auto":
            algorithm = model.choose(instance, topology)
            previous = self._resolved[0] if self.switches else None
            self.switches.append(AlgorithmSwitch(self._runs, algorithm, previous, nnz, reason))
        if chunks == "auto":
            # 1 for the flat algorithms, which ignore chunking silently
            chunks = model.auto_chunks(instance, algorithm, topology=topology)
        self._resolved, self._anchor = (algorithm, chunks), nnz

    def _receive(self, result: SparseStream) -> SparseStream:
        """Keep ``result``, which the program now holds, for the next resolve."""
        if self._auto:
            self._received = result
        return result

    def reset(self) -> None:
        """Forget the held ``"auto"`` resolution and the switch log: the
        next run selects afresh and logs it as run 1's ``"initial
        selection"``, as a new plan's first run does. Like a run, all ranks
        reset it at the same point of the program."""
        #: the held (algorithm, chunks), and the per-rank nnz it was priced
        #: from — None from the first run's agreement to the first result
        self._resolved, self._anchor = (self.algorithm, self.chunks), None
        #: the newest result the program received and no run has read yet
        self._received: "SparseStream | None" = None
        self.switches: list[AlgorithmSwitch] = []
        self._runs = 0

    def kwargs(self, algorithm: str, quantizer, chunks) -> dict:
        """The knobs ``algorithm``'s schedule takes of the four."""
        schedule = SCHEDULES[algorithm]
        kwargs: dict = {"op": self.op}
        if schedule.dense:
            kwargs["quantizer"] = quantizer
        if schedule.hierarchical:
            kwargs["chunks"] = chunks
        return kwargs

    def _bind(self, stream: SparseStream, quantizer) -> tuple:
        """``(schedule, kwargs)`` of a run, bound again only when the
        resolution changes: a fixed plan binds at its first run."""
        resolved = self.resolve(stream)
        if self._bound is None or self._bound[0] != resolved:
            algorithm, chunks = resolved
            self._bound = resolved, ALGORITHMS[algorithm], self.kwargs(algorithm, None, chunks)
        _, schedule, kwargs = self._bound
        return schedule, (kwargs | {"quantizer": quantizer} if "quantizer" in kwargs else kwargs)

    def __call__(self, stream: SparseStream, quantizer=None) -> SparseStream:
        """Run blocking on the calling thread, once the plan's last start
        has finished, so a quantizer both runs use draws in program order.
        (Starts do not wait for each other: any number of them may be in
        flight, queued in launch order.)"""
        if self._last is not None:
            self._last.settle()
        schedule, kwargs = self._bind(stream, quantizer)
        return self._receive(schedule(self.comm, stream, **kwargs))

    def start(self, stream: SparseStream, quantizer=None) -> NonBlockingHandle:
        """Start a run on the communicator's progress thread, behind its
        earlier launches; the handle's ``wait()`` returns the result."""
        schedule, kwargs = self._bind(stream, quantizer)
        self._last = launch(self.comm, schedule, stream, **kwargs)
        self._last.received = self._receive
        return self._last


def allreduce_plan(comm, dimension, dtype, algorithm="auto", op=SUM, chunks=1) -> AllreducePlan:
    """Plan the sparse allreduce of ``dimension`` x ``dtype`` streams once,
    to run it every step (MPI-4's ``MPI_Allreduce_init``).

    The knobs are those of :func:`sparse_allreduce`, and a bad one raises
    here. Making a plan sends nothing; like every collective call, all
    ranks make their plans in the same program order with the same knobs.
    ``plan(stream, quantizer=None)`` runs it blocking and
    ``plan.start(stream, quantizer=None)`` starts it
    (:class:`~repro.runtime.nonblocking.NonBlockingHandle`); either gives
    the bits :func:`sparse_allreduce` gives for the same knobs. An
    ``"auto"`` plan's first run agrees on the density in one round; every
    later run sends only its schedule's messages (see the module docstring).
    """
    return AllreducePlan(comm, dimension, dtype, algorithm, op, chunks)


def cached_plan(comm, stream, algorithm="auto", op=SUM, chunks=1) -> AllreducePlan:
    """``comm``'s plan for these knobs and ``stream``'s shape, made at the
    first call: keyed only by values every rank passes alike, so every
    rank makes it at the same call."""
    plans = comm._plans = comm._plans or {}
    key = (algorithm, op, chunks, stream.dimension, stream.value_dtype)
    return plans.get(key) or plans.setdefault(
        key, AllreducePlan(comm, stream.dimension, stream.value_dtype, algorithm, op, chunks)
    )


def cached_plans(comm) -> list[AllreducePlan]:
    """``comm``'s plans made by :func:`cached_plan`, in the order they were made."""
    return list((comm._plans or {}).values())


def sparse_allreduce(
    comm: Communicator,
    stream: SparseStream,
    algorithm: str = "auto",
    quantizer: QSGDQuantizer | None = None,
    op: "ReduceOp | str" = SUM,
    chunks: "int | str" = 1,
) -> SparseStream:
    """Element-wise sum of one sparse stream per rank, result on all ranks.

    Parameters
    ----------
    comm:
        This rank's communicator; all ranks must call with the same
        ``algorithm`` and compatible stream dimensions/dtypes.
    stream:
        The local contribution (sparse or dense representation).
    algorithm:
        ``"auto"`` (the switching procedure of §5.3, topology-aware when
        the communicator carries one, re-run when the density drifts),
        or one of ``ssar_rec_dbl``,
        ``ssar_split_ag``, ``ssar_ring``, ``ssar_hier``,
        ``dsar_split_ag``, ``dsar_hier``.
    quantizer:
        Optional QSGD quantizer applied to the dense stage; only meaningful
        for the DSAR algorithms (ignored with a warning-free no-op
        otherwise, matching the paper: low precision targets the dense
        case).
    op:
        The coordinate-wise reduction (§5.2): a :class:`ReduceOp` or one of
        ``"sum"``, ``"max"``, ``"min"``, ``"prod"``. Missing sparse entries
        are treated as the operation's neutral element.
    chunks:
        Pipeline depth for the hierarchical algorithms (``ssar_hier``,
        ``dsar_hier``): the stream is split into ``chunks`` dimension
        ranges so leader traffic for chunk *k* overlaps the intra-host
        reduce of chunk *k+1* — bit-identical to the unchunked run
        (unquantized). Warning-free no-op for the flat algorithms.
        ``"auto"`` picks the depth minimizing the cost model's pipelined
        makespan curve (:meth:`~repro.costmodel.CostModel.auto_chunks`)
        from the rank-consistent density estimate; flat algorithms keep
        ignoring it silently.

    Returns
    -------
    SparseStream
        The sum; representation (sparse/dense) reflects actual fill-in.
    """
    return cached_plan(comm, stream, algorithm, op, chunks)(stream, quantizer)


def _allreduce_rank(
    comm: Communicator,
    streams: "list[SparseStream]",
    algorithm: str,
    quantizer: QSGDQuantizer | None,
    op: "ReduceOp | str",
    chunks: "int | str" = 1,
) -> SparseStream:
    """Rank program of :func:`run_sparse_allreduce`."""
    return sparse_allreduce(
        comm, streams[comm.rank], algorithm=algorithm, quantizer=quantizer, op=op,
        chunks=chunks,
    )


def run_sparse_allreduce(
    streams: "list[SparseStream]",
    algorithm: str = "auto",
    *,
    backend: "str | Backend" = "thread",
    quantizer: QSGDQuantizer | None = None,
    op: "ReduceOp | str" = SUM,
    timeout: float | None = 300.0,
    topology: "Topology | str | int | None" = None,
    chunks: "int | str" = 1,
) -> ParallelResult:
    """One-call driver: allreduce one stream per rank on a chosen backend.

    Spawns ``len(streams)`` ranks on ``backend`` (``"thread"``,
    ``"process"``, ``"shmem"`` or ``"socket"``), runs
    :func:`sparse_allreduce` on each, and returns the
    :class:`~repro.runtime.ParallelResult` (per-rank reduced streams plus
    the recorded trace). This is the ``mpiexec``-style entry point the
    benchmarks and cross-backend tests share. ``topology`` (any
    form :func:`~repro.runtime.topology.normalize_topology` accepts, e.g.
    ``"2x4"``) simulates a multi-host world so topology-aware algorithms
    (``ssar_hier``, ``"auto"`` on hierarchical maps) can be exercised on
    any backend; ``chunks`` is the pipeline depth of the hierarchical
    algorithms (see :func:`sparse_allreduce`), checked here, before any
    rank starts.
    """
    if chunks != "auto":
        _check_chunks(chunks)
    return run_ranks(
        _allreduce_rank,
        len(streams),
        streams,
        algorithm,
        quantizer,
        op,
        chunks,
        backend=backend,
        timeout=timeout,
        topology=topology,
    )


def dense_allreduce(
    comm: Communicator,
    vec: np.ndarray,
    algorithm: str = "dense_rabenseifner",
    op: "ReduceOp | str" = SUM,
) -> np.ndarray:
    """Dense allreduce baseline (the 'MPI' the paper compares against)."""
    if algorithm not in DENSE_ALGORITHMS:
        raise ValueError(
            f"unknown dense algorithm {algorithm!r}; choose from {sorted(DENSE_ALGORITHMS)}"
        )
    return DENSE_ALGORITHMS[algorithm](comm, vec, op=_resolve_op(op))
