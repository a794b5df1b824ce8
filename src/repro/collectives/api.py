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

* it resolves the knobs once: ``"auto"`` is re-ranked, and
  ``chunks="auto"`` re-priced, only when the agreed nnz
  :func:`~repro.costmodel.adaptive.drifted` from the estimate the held
  resolution was priced from — the library's one re-selection rule — and
  every (re-)selection of ``"auto"`` is logged on :attr:`AllreducePlan.switches`;
* it takes its message keys once — a tag block and, for the hierarchical
  schedules, the two host subgroups
  (:func:`~repro.collectives.hier.build_hierarchy`) — so a rank's channel
  count is fixed by its plans, not by its step count;
* a blocking run (``plan(stream)``) runs on the calling thread in the
  communicator's own context; a started run (``plan.start(stream)``) runs
  on the communicator's progress thread (:mod:`~repro.runtime.nonblocking`)
  in one child context the plan takes at its first start, and its trace
  events reach the rank's log at ``wait()``. Runs of one plan share their
  keys, so they never overlap: starts queue in launch order on that one
  thread, and a blocking run first waits for the plan's last start to
  finish — at the same point of the program on every rank.

:func:`sparse_allreduce`, the stream form of
:func:`~repro.runtime.nonblocking.i_collective` and
:class:`~repro.core.fusion.GradientFuser` run through :func:`cached_plan`:
one plan per communicator and key every rank agrees on (algorithm knob,
op, chunks knob, dimension, dtype; the quantizer is a run argument). A
shrunk or regrown world is a new communicator and plans afresh.
"""

from __future__ import annotations

import numpy as np

from ..costmodel.adaptive import Agreed, AlgorithmSwitch, consistent_mean, drifted
from ..costmodel.model import SCHEDULES, Instance
from ..quant import QSGDQuantizer
from ..runtime.backend import Backend, ParallelResult
from ..runtime.comm import Communicator
from ..runtime.launcher import run_ranks
from ..runtime.nonblocking import NonBlockingHandle, _BufferedComm, launch
from ..runtime.topology import Topology
from ..streams import SparseStream
from ..streams.ops import REDUCE_OPS, SUM, ReduceOp
from .allgather import sparse_allgather
from .dense import DENSE_ALGORITHMS
from .dsar import dsar_split_allgather
from .hier import _check_chunks, build_hierarchy, dsar_hierarchical, ssar_hierarchical
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
    agreed: "Agreed | None" = None,
) -> "tuple[object, dict]":
    """Resolve the public allreduce knobs into ``(algorithm_fn, kwargs)``, once.

    A one-shot resolution over a throwaway plan: it resolves the way every
    plan does (:meth:`AllreducePlan.resolve` — the ``"auto"`` selector, op
    lookup and per-algorithm knob routing, ``quantizer`` only to the
    dense-stage algorithms, ``chunks`` only to the hierarchical ones, both
    warning-free no-ops elsewhere; :data:`~repro.costmodel.model.SCHEDULES`
    says which is which), but keeps nothing: :func:`sparse_allreduce` and
    the stream form of :func:`~repro.runtime.nonblocking.i_collective` run
    through :func:`cached_plan` instead, and ``bench/`` times this call as
    ``costmodel.resolve_us``. The returned pair satisfies
    ``fn(comm, stream, **kwargs)``.

    ``algorithm="auto"`` and ``chunks="auto"`` resolve from a
    *rank-consistent* density estimate — one scalar agreement round
    (:func:`~repro.costmodel.consistent_mean` over ``stream.nnz``) —
    never from the local stream alone: with skewed per-rank sparsity a
    local resolve can pick different algorithms on different ranks, whose
    mismatched schedules deadlock. Both knobs are therefore collective
    when set to ``"auto"`` (all ranks pass the same knob values already,
    per the collective contract, so the agreement round is uniform too).

    ``agreed`` (internal) is that estimate when the caller has already
    agreed on it, together with the cost model it is priced under; the
    call then costs no messages. Without it the default model prices the
    instance.
    """
    plan = AllreducePlan(comm, stream.dimension, stream.value_dtype, algorithm, op, chunks)
    if agreed is None and "auto" in (algorithm, chunks):
        agreed = Agreed(consistent_mean(comm, float(stream.nnz)))
    algorithm, chunks = plan.resolve(stream, agreed)
    return ALGORITHMS[algorithm], plan.kwargs(algorithm, quantizer, chunks)


class _Keys:
    """A plan's message keys on one communicator, each taken at its first
    use: the tag block of the flat schedules, the hierarchy of the others."""

    def __init__(self, comm: Communicator) -> None:
        self.comm, self.tag, self.hierarchy = comm, None, None

    def of(self, plan: "AllreducePlan", algorithm: str) -> dict:
        if SCHEDULES[algorithm].hierarchical:
            self.hierarchy = self.hierarchy or build_hierarchy(self.comm, plan.dimension)
            return {"hierarchy": self.hierarchy}
        self.tag = self.comm.next_collective_tag() if self.tag is None else self.tag
        return {"tag": self.tag}


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
        #: the held (algorithm, chunks), and the agreed estimate it was priced from
        self._resolved, self._priced = (algorithm, self.chunks), None
        self.switches: list[AlgorithmSwitch] = []
        self._runs = 0
        #: the blocking runs' keys, and the started runs' (in a child
        #: context, from the first start)
        self._keys, self._started = _Keys(comm), None
        self._last: "NonBlockingHandle | None" = None

    def resolve(self, stream: SparseStream, agreed: "Agreed | None" = None) -> tuple:
        """The ``(algorithm, chunks)`` a run of ``stream`` takes: the held
        ones, re-priced when an ``"auto"`` knob's agreed nnz (``agreed``, or
        one round of this plan's own) drifted from the one they were
        priced from."""
        if stream.dimension != self.dimension or stream.value_dtype != self.dtype:
            raise ValueError(
                f"plan for {self.dimension} x {self.dtype} streams "
                f"got {stream.dimension} x {stream.value_dtype}"
            )
        if "auto" not in (self.algorithm, self.chunks):
            return self._resolved
        if agreed is None:
            agreed = Agreed(consistent_mean(self.comm, float(stream.nnz), agreement_tag(self.comm)))
        self._runs += 1
        held = self._priced
        if held is None:
            reason = "initial selection"
        elif held.model != agreed.model:
            reason = "cost model changed"
        elif drifted(held.nnz, agreed.nnz):
            reason = f"density drift (anchor {held.nnz:.1f} -> {agreed.nnz:.1f})"
        else:
            return self._resolved
        nnz = min(max(agreed.nnz, 0.0), float(self.dimension))
        instance = Instance(self.dimension, self.comm.size, nnz, self.dtype.itemsize)
        algorithm, chunks, topology = self.algorithm, self.chunks, self.comm.topology
        if algorithm == "auto":
            algorithm = agreed.model.choose(instance, topology)
            previous = None if held is None else self._resolved[0]
            self.switches.append(AlgorithmSwitch(self._runs, algorithm, previous, nnz, reason))
        if chunks == "auto":
            # 1 for the flat algorithms, which ignore chunking silently
            chunks = agreed.model.auto_chunks(instance, algorithm, topology=topology)
        self._resolved, self._priced = (algorithm, chunks), agreed
        return self._resolved

    def reset(self) -> None:
        """Forget the held ``"auto"`` resolution and the switch log: the
        next run selects afresh and logs it as run 1's ``"initial
        selection"``, as a new plan's first run does. The plan keeps its
        keys (tags, subgroups, child context); like a run, all ranks reset
        it at the same point of the program."""
        self._resolved, self._priced = (self.algorithm, self.chunks), None
        self.switches, self._runs = [], 0

    def kwargs(self, algorithm: str, quantizer, chunks) -> dict:
        """The knobs ``algorithm``'s schedule takes of the four."""
        schedule = SCHEDULES[algorithm]
        kwargs: dict = {"op": self.op}
        if schedule.dense:
            kwargs["quantizer"] = quantizer
        if schedule.hierarchical:
            kwargs["chunks"] = chunks
        return kwargs

    def __call__(self, stream: SparseStream, quantizer=None, agreed=None) -> SparseStream:
        """Run blocking on the calling thread, once the plan's last start
        has finished: a plan has at most one run in flight, as a persistent
        MPI request has, so a quantizer both runs use draws in program order."""
        if self._last is not None:
            self._last.settle()
        algorithm, chunks = self.resolve(stream, agreed)
        kwargs = self.kwargs(algorithm, quantizer, chunks) | self._keys.of(self, algorithm)
        return ALGORITHMS[algorithm](self.comm, stream, **kwargs)

    def start(self, stream: SparseStream, quantizer=None, agreed=None) -> NonBlockingHandle:
        """Start a run on the communicator's progress thread, behind its
        earlier launches; the handle's ``wait()`` returns the result."""
        algorithm, chunks = self.resolve(stream, agreed)
        if self._started is None:
            self._started = _Keys(_BufferedComm(self.comm, self.comm._next_slot()))
        kwargs = self.kwargs(algorithm, quantizer, chunks) | self._started.of(self, algorithm)
        self._last = launch(self.comm, self._started.comm, ALGORITHMS[algorithm], stream, **kwargs)
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
    the bits :func:`sparse_allreduce` gives for the same knobs. ``agreed``
    (internal, both) is a pre-agreed nnz estimate for ``"auto"`` knobs, as
    in :func:`resolve_collective`; without one an ``"auto"`` run agrees on
    its own, one round on a tag block every plan of ``comm`` shares.
    """
    return AllreducePlan(comm, dimension, dtype, algorithm, op, chunks)


def cached_plan(comm, stream, algorithm="auto", op=SUM, chunks=1) -> AllreducePlan:
    """``comm``'s plan for these knobs and ``stream``'s shape, made at the
    first call: keyed only by values every rank passes alike, so every
    rank makes it at the same call."""
    plans = comm._plans = comm._plans or {}
    key = (algorithm, op, chunks, stream.dimension, stream.value_dtype)
    if key not in plans:
        plans[key] = AllreducePlan(comm, stream.dimension, stream.value_dtype, algorithm, op, chunks)
    return plans[key]


def cached_plans(comm) -> list[AllreducePlan]:
    """``comm``'s plans made by :func:`cached_plan`, in the order they were made."""
    return list((comm._plans or {}).values())


def agreement_tag(comm: Communicator) -> int:
    """The tag block the agreement rounds of ``comm``'s plans and fused
    steps share, taken by the first (they run on the calling thread, in
    program order)."""
    if comm._agreement_tag is None:
        comm._agreement_tag = comm.next_collective_tag()
    return comm._agreement_tag


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
        the communicator carries one, re-run when the agreed nnz drifts),
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
    sweeps, examples and cross-backend tests share. ``topology`` (any
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
