"""Public entry points for sparse and dense collective operations.

This is the user-facing surface of the communication library — the analog
of SparCML's MPI-like interface ("The SparCML library provides a similar
interface to that of standard MPI calls, with the caveat that the data
representation is assumed to be a sparse stream", §7).
"""

from __future__ import annotations

import numpy as np

from ..costmodel.adaptive import Agreed, consistent_mean
from ..costmodel.model import Instance
from ..quant import QSGDQuantizer
from ..runtime.backend import Backend, ParallelResult
from ..runtime.comm import Communicator
from ..runtime.launcher import run_ranks
from ..runtime.runconfig import _UNSET, RunConfig
from ..runtime.topology import Topology
from ..streams import SparseStream
from ..streams.ops import REDUCE_OPS, SUM, ReduceOp
from .allgather import sparse_allgather
from .dense import (
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
    allreduce_ring,
)
from .dsar import dsar_split_allgather
from .hier import _check_chunks, dsar_hierarchical, ssar_hierarchical
from .sparse import ssar_recursive_double, ssar_ring, ssar_split_allgather

__all__ = [
    "sparse_allreduce",
    "dense_allreduce",
    "sparse_allgather",
    "run_sparse_allreduce",
    "resolve_collective",
    "ALGORITHMS",
]

ALGORITHMS = {
    "ssar_rec_dbl": ssar_recursive_double,
    "ssar_split_ag": ssar_split_allgather,
    "ssar_ring": ssar_ring,
    "ssar_hier": ssar_hierarchical,
    "dsar_split_ag": dsar_split_allgather,
    "dsar_hier": dsar_hierarchical,
}

#: the dynamic-instance algorithms, whose dense stage takes the quantizer.
DSAR_ALGORITHMS = ("dsar_split_ag", "dsar_hier")

#: the algorithms that accept ``chunks=`` (pipelined hierarchical path).
CHUNKED_ALGORITHMS = ("ssar_hier", "dsar_hier")

DENSE = {
    "dense_rec_dbl": allreduce_recursive_doubling,
    "dense_ring": allreduce_ring,
    "dense_rabenseifner": allreduce_rabenseifner,
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
    """Resolve the public allreduce knobs into ``(algorithm_fn, kwargs)``.

    Single resolution path shared by the blocking surface
    (:func:`sparse_allreduce`) and the non-blocking one
    (:func:`~repro.runtime.nonblocking.i_collective` stream form): the
    ``"auto"`` selector, op lookup and per-algorithm knob routing
    (``quantizer`` only to the DSAR algorithms, ``chunks`` only to the
    hierarchical ones — both warning-free no-ops elsewhere, matching the
    quantizer contract) live here and nowhere else. The returned pair
    satisfies ``fn(comm, stream, **kwargs)``.

    ``algorithm="auto"`` and ``chunks="auto"`` resolve from a
    *rank-consistent* density estimate — one scalar agreement round
    (:func:`~repro.costmodel.consistent_mean` over ``stream.nnz``) —
    never from the local stream alone: with skewed per-rank sparsity a
    local resolve can pick different algorithms on different ranks, whose
    mismatched schedules deadlock. Both knobs are therefore collective
    when set to ``"auto"`` (all ranks pass the same knob values already,
    per the collective contract, so the agreement round is uniform too).

    ``agreed`` (internal) is that estimate when the caller has already
    agreed on it — a step that launches several collectives runs *one*
    vector round for all of them (see
    :meth:`~repro.costmodel.AdaptiveSelector.step_agreeing`) — together
    with the cost model it is priced under; the call then costs no
    messages. Without it the default model prices the instance.
    """
    auto_algorithm = algorithm == "auto"
    auto_chunks = chunks == "auto"
    if not auto_chunks:
        _check_chunks(chunks)
    if auto_algorithm or auto_chunks:
        if agreed is None:
            agreed = Agreed(consistent_mean(comm, float(stream.nnz)))
        instance = Instance(
            stream.dimension,
            comm.size,
            min(max(agreed.nnz, 0.0), float(stream.dimension)),
            stream.value_dtype.itemsize,
        )
    if auto_algorithm:
        algorithm = agreed.model.choose(instance, comm.topology)
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)} or 'auto'"
        )
    if auto_chunks:
        # 1 for the flat algorithms, which ignore chunking silently
        chunks = agreed.model.auto_chunks(instance, algorithm, topology=comm.topology)
    kwargs: dict = {"op": _resolve_op(op)}
    if algorithm in DSAR_ALGORITHMS:
        kwargs["quantizer"] = quantizer
    if algorithm in CHUNKED_ALGORITHMS:
        kwargs["chunks"] = chunks
    return ALGORITHMS[algorithm], kwargs


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
        ``"auto"`` (selector heuristic of §5.3, topology-aware when the
        communicator carries one), or one of ``ssar_rec_dbl``,
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
    fn, kwargs = resolve_collective(
        comm, stream, algorithm=algorithm, quantizer=quantizer, op=op, chunks=chunks
    )
    return fn(comm, stream, **kwargs)


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
    config: RunConfig | None = None,
    backend: "str | Backend" = _UNSET,
    quantizer: QSGDQuantizer | None = None,
    op: "ReduceOp | str" = SUM,
    timeout: float | None = _UNSET,
    topology: "Topology | str | int | None" = _UNSET,
    chunks: "int | str" = _UNSET,
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
    algorithms (see :func:`sparse_allreduce`). A
    :class:`~repro.runtime.RunConfig` passed as ``config=`` supplies any
    knob not given explicitly (explicit kwargs win).
    """
    cfg = (config if config is not None else RunConfig()).merged(
        backend=backend, timeout=timeout, topology=topology, chunks=chunks
    )
    return run_ranks(
        _allreduce_rank,
        len(streams),
        streams,
        algorithm,
        quantizer,
        op,
        cfg.chunks,
        config=cfg,
    )


def dense_allreduce(
    comm: Communicator,
    vec: np.ndarray,
    algorithm: str = "dense_rabenseifner",
    op: "ReduceOp | str" = SUM,
) -> np.ndarray:
    """Dense allreduce baseline (the 'MPI' the paper compares against)."""
    if algorithm not in DENSE:
        raise ValueError(f"unknown dense algorithm {algorithm!r}; choose from {sorted(DENSE)}")
    return DENSE[algorithm](comm, vec, op=_resolve_op(op))
