"""Topology-aware hierarchical allreduce (SSAR_Hierarchical + DSAR_Hier).

SparCML's large-scale results (§6) come from clusters whose intra-node
links are an order of magnitude faster than the network between nodes.
:func:`ssar_hierarchical` exploits that split the way SparDL and
SpComm3D's communicator-splitting designs do — reduce *locally first* so
only the merged sparse union crosses the slow tier:

1. **intra-node reduce**: every host's ranks merge their streams onto the
   host *leader* (lowest rank on the host) along a binomial tree — each
   contribution crosses only the fast intra-node tier, once;
2. **inter-node allreduce**: the leaders — one per host — run recursive
   doubling among themselves on a leader sub-communicator, so only
   ``nnodes`` merged unions travel on the slow tier instead of ``P`` raw
   streams;
3. **intra-node broadcast**: each leader broadcasts the reduced result
   back down its host's binomial tree.

With Appendix B's uniform fill-in model, the stream a leader carries
across the slow tier has expected size ``E[K_local] = N (1 - (1-k/N)^m)``
for ``m`` ranks per host — already the merged union, so overlapping
supports inside a host are paid for exactly once inter-node
(:meth:`repro.costmodel.Instance.fill_in` with ``m`` supports prices it).

The rank groups come from the communicator's
:class:`~repro.runtime.topology.Topology` (``comm.topology`` — derived
from the socket rendezvous, injected via ``run_ranks(..., topology=...)``,
or ``None`` = flat). On a flat topology the algorithm degenerates to
binomial reduce + broadcast, which is still a valid allreduce.

Determinism note: every stage merges with the commutative coordinate-wise
``op``, so results are identical on every backend bit for bit. They also
match :func:`~repro.collectives.sparse.ssar_recursive_double` *bit for
bit* whenever the host groups are aligned power-of-two blocks (e.g. flat
worlds or uniform ``2x2``/``2x4``/``4x2`` topologies), because both then
apply the same floating-point association; on other shapes the results
agree up to float rounding.

:func:`dsar_hierarchical` is the *dense-stage* counterpart for dynamic
instances (expected reduced size past the sparse-efficiency threshold
``delta``): the same intra-host reduce onto leaders, then the leaders run
:func:`~repro.collectives.dsar.dsar_split_allgather` — including its
representation switch and optional quantized allgather — among
themselves, and each leader broadcasts the dense result back down its
host. Only ``nnodes`` dense partitions ever cross the slow tier instead
of ``P``, and each partition is still quantized exactly once by its
owning leader.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..config import INDEX_DTYPE
from ..quant import QSGDQuantizer
from ..runtime.comm import COLLECTIVE_TAG, Communicator
from ..runtime.nonblocking import i_collective
from ..runtime.topology import Topology
from ..streams import SparseStream, add_streams_
from ..streams.ops import SUM, ReduceOp
from .dense import partition_bounds
from .dsar import dsar_split_allgather
from .sparse import _accumulator, _ensure_sparse, _merge_work, _owned, slice_stream, ssar_recursive_double

__all__ = ["ssar_hierarchical", "dsar_hierarchical", "tree_reduce", "Hierarchy", "build_hierarchy"]


def tree_reduce(
    comm: Communicator, stream: SparseStream, op: ReduceOp = SUM
) -> "SparseStream | None":
    """Binomial-tree sparse reduce onto rank 0 of ``comm``.

    Rank 0 returns the merged union of every rank's stream; every other
    rank returns ``None`` once it has sent its partial accumulator up the
    tree (callers broadcast the real result back). The merge order
    matches recursive doubling's association on power-of-two worlds,
    which is what makes the hierarchical composition bit-compatible with
    ``ssar_rec_dbl`` on aligned topologies.
    """
    stream = _ensure_sparse(stream)
    acc = _accumulator(stream)
    mask = 1
    while mask < comm.size:
        if comm.rank & mask:
            comm.send(acc, comm.rank - mask, COLLECTIVE_TAG)
            return None
        if comm.rank + mask < comm.size:
            incoming = comm.recv(comm.rank + mask, COLLECTIVE_TAG)
            comm.compute(_merge_work(acc, incoming), "reduce")
            # the received stream is ours alone (freshly decoded / copied
            # on send), so the reduction may adopt its arrays outright
            add_streams_(acc, incoming, op, own_other=True)
        mask <<= 1
    return _owned(acc, stream)


class Hierarchy(NamedTuple):
    """What a hierarchical schedule runs on besides the stream, built once
    per communicator and dimension (:func:`build_hierarchy`)."""

    #: this rank's host group, and the host leaders (``None`` off a leader)
    local: Communicator
    leaders: "Communicator | None"
    #: the leaders' partition of the full dimension (``dsar_hier``'s owners)
    leader_bounds: np.ndarray


def build_hierarchy(comm: Communicator, dimension: int) -> Hierarchy:
    """The two subgroups of ``comm`` a hierarchical schedule runs on and the
    leader partition of ``dimension``, built at the first call for this
    ``dimension`` and returned by every later one.

    The rank -> host map is ``comm.topology``, else a flat world. Building
    takes two slots of ``comm``'s child counter on every rank (host groups
    are pairwise disjoint, so they share the first); the cache is keyed by
    a value every rank passes alike, so every rank builds at the same
    call, the way :func:`~repro.collectives.api.cached_plan` makes plans.
    """
    hierarchies = comm._hierarchies = comm._hierarchies or {}
    if dimension not in hierarchies:
        topo = comm.topology if comm.topology is not None else Topology.flat(comm.size)
        local = comm.subgroup(topo.group_of(comm.rank))
        leaders = comm.subgroup(topo.leaders)
        hierarchies[dimension] = Hierarchy(
            local, leaders, partition_bounds(dimension, len(topo.leaders))
        )
    return hierarchies[dimension]


def _check_chunks(chunks: int) -> int:
    if not isinstance(chunks, (int, np.integer)) or isinstance(chunks, bool) or chunks < 1:
        raise ValueError(f"chunks must be a positive int, got {chunks!r}")
    return int(chunks)


def _rebase_chunk(stream: SparseStream, lo: int, hi: int) -> SparseStream:
    """Restrict ``stream`` to ``[lo, hi)`` and rebase it to dimension
    ``hi - lo`` (indices shifted by ``-lo``) so the chunk travels and
    densifies at chunk width, not the full dimension."""
    piece = slice_stream(stream, lo, hi)
    return SparseStream(
        hi - lo,
        indices=(piece.indices - np.uint32(lo)).astype(INDEX_DTYPE, copy=False),
        values=piece.values,
        value_dtype=stream.value_dtype,
        copy=False,
    )


def _clip_bounds(global_bounds: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rank-ownership bounds of the chunk ``[lo, hi)``, rebased to it.

    Clipping the *full-dimension* partition into the chunk keeps every
    global coordinate owned by the same rank as in an unchunked run, which
    pins the merge order — and therefore the floating-point association —
    of the split-based leader stage (``dsar_hier``). This is what makes
    the chunked hierarchy bit-identical to the unchunked one.
    """
    return np.clip(global_bounds, lo, hi) - lo


def _reassemble_chunks(
    parts: "list[SparseStream]",
    bounds: np.ndarray,
    dimension: int,
    op: ReduceOp,
    value_dtype,
) -> SparseStream:
    """Concatenate per-chunk allreduce results back to the full dimension.

    Chunk results are disjoint restrictions of the final vector, so the
    "sum" is pure concatenation (§5.1 case 4). The final representation
    follows the usual fill-in rule on the *full* dimension: dense when any
    chunk already switched or the stored union exceeds ``delta``.
    """
    if any(p.is_dense for p in parts):
        out = np.empty(dimension, dtype=value_dtype)
        for k, p in enumerate(parts):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            if p.is_dense:
                out[lo:hi] = p.dense_payload
            else:
                seg = np.full(hi - lo, op.neutral, dtype=value_dtype)
                if p.nnz:
                    seg[p.indices.astype(np.int64)] = p.values
                out[lo:hi] = seg
        return SparseStream(dimension, dense=out, value_dtype=value_dtype, copy=False)
    idx = np.concatenate(
        [p.indices.astype(np.int64) + int(bounds[k]) for k, p in enumerate(parts)]
    ).astype(INDEX_DTYPE, copy=False)
    val = (
        np.concatenate([p.values for p in parts])
        if idx.size
        else np.empty(0, dtype=value_dtype)
    )
    out = SparseStream(dimension, indices=idx, values=val, value_dtype=value_dtype, copy=False)
    if out.nnz > out.delta:
        out.densify(fill=op.neutral)
    return out


def _hierarchical(
    comm: Communicator,
    stream: SparseStream,
    op: ReduceOp,
    hierarchy: Hierarchy,
    chunks: int,
    leader_stage,
    leader_runs_alone: bool,
    mark: str,
) -> SparseStream:
    """The one schedule both hierarchical algorithms run: a depth-1
    software pipeline over ``chunks`` coordinate ranges.

    Per chunk ``k``: the intra-host binomial reduce runs on the calling
    thread, the leaders' inter-node stage is *launched* through
    :func:`~repro.runtime.nonblocking.i_collective`, and only then is
    chunk ``k-1`` joined and broadcast — so the slow-tier exchange of one
    chunk overlaps the fast-tier reduce of the next. Handles are joined in
    chunk order (the MPI non-blocking-collective contract), and the
    concurrent traffic pairs are disjoint by construction: the background
    thread only talks leader-to-leader while the calling thread only talks
    intra-host.

    With ``chunks == 1`` there is nothing to overlap, so the pipeline
    degenerates in place to reduce → leaders → broadcast on the calling
    thread: the leader stage runs inline, on the leaders' own context, the
    stream is not rebased and the single part is the result.

    ``leader_stage(leader_comm, chunk_acc, lo, hi)`` is the per-chunk
    inter-node kernel; ``leader_runs_alone`` says whether it also runs in
    a one-leader world (DSAR must still densify and quantize there, SSAR
    has nothing to do).
    """
    comm.mark(mark)
    local, leader_comm, _ = hierarchy
    launch = leader_comm is not None and (leader_comm.size > 1 or leader_runs_alone)

    overlap = launch and chunks > 1
    bounds = partition_bounds(stream.dimension, chunks)
    # per chunk: the reduced chunk (``None`` off a leader), or the handle
    # of its launched leader stage
    pending: list = []
    parts: list[SparseStream | None] = [None] * chunks

    def join(k: int) -> None:
        # fan the reduced chunk back out inside each host
        acc = pending[k].wait() if overlap else pending[k]
        if local.size > 1:
            comm.mark("hier_bcast")
            acc = local.bcast(acc, root=0)
        parts[k] = acc

    for k in range(chunks):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        # merge this host's streams onto its leader (fast tier only)
        comm.mark("hier_local_reduce")
        piece = stream if chunks == 1 else _rebase_chunk(stream, lo, hi)
        acc = tree_reduce(local, piece, op)
        if launch:
            # only the per-host merged unions cross the slow tier
            comm.mark("hier_leaders")
            if overlap:
                acc = i_collective(leader_comm, leader_stage, acc, lo, hi)
            else:
                acc = leader_stage(leader_comm, acc, lo, hi)
        pending.append(acc)
        if k:
            join(k - 1)
    join(chunks - 1)
    if chunks == 1:
        return parts[0]
    return _reassemble_chunks(parts, bounds, stream.dimension, op, stream.value_dtype)


def ssar_hierarchical(
    comm: Communicator,
    stream: SparseStream,
    op: ReduceOp = SUM,
    chunks: int = 1,
) -> SparseStream:
    """SSAR_Hierarchical: intra-node reduce, leader allreduce, broadcast.

    The host groups are ``comm.topology``'s (a flat single-host world
    without one): each host's ranks send their streams up a binomial tree
    to the host leader, which alone holds the host's union; the leaders
    allreduce the unions and broadcast the result back down each host.

    Parameters
    ----------
    comm:
        This rank's communicator. All ranks must agree on ``chunks``.
    stream:
        The local contribution (sparse or dense representation).
    op:
        The coordinate-wise reduction (§5.2).
    chunks:
        Split the dimension into this many coordinate ranges and pipeline
        them (§7's overlap-first schedule): the leaders' inter-node
        exchange of chunk ``k`` runs on a background thread while the
        calling thread reduces chunk ``k+1`` intra-host. The result is
        **bit-identical** to ``chunks=1`` on every backend: chunking only
        restricts each stage to a coordinate range, it never changes
        which rank combines a coordinate or in what order.

    The per-host leaders run recursive doubling among themselves:
    latency-optimal for the (small) leader world, and what keeps the
    bit-compatibility property above.
    """
    stream = _ensure_sparse(stream)
    chunks = _check_chunks(chunks)
    if comm.size == 1:
        return stream.copy()
    hierarchy = build_hierarchy(comm, stream.dimension)

    def leader_stage(leader_comm, chunk_acc, lo, hi):
        return ssar_recursive_double(leader_comm, chunk_acc, op)

    return _hierarchical(
        comm, stream, op, hierarchy, chunks, leader_stage,
        leader_runs_alone=False, mark="ssar_hier",
    )


def dsar_hierarchical(
    comm: Communicator,
    stream: SparseStream,
    quantizer: QSGDQuantizer | None = None,
    op: ReduceOp = SUM,
    chunks: int = 1,
) -> SparseStream:
    """DSAR_Hierarchical: the dense-stage hierarchy for dynamic instances.

    1. **intra-node reduce**: each host merges its streams onto the host
       leader along the same binomial tree as :func:`ssar_hierarchical`
       (sparse merges, fast tier only; only the leader keeps a result);
    2. **leader DSAR**: the leaders run
       :func:`~repro.collectives.dsar.dsar_split_allgather` among
       themselves — split exchange, each slice folded straight into the
       owner's dense partition block, and the (optionally quantized)
       dense allgather — so only ``nnodes`` dense
       partitions cross the slow tier instead of ``P``, and each
       partition is quantized exactly once by its owning leader;
    3. **intra-node broadcast**: each leader fans the dense result back
       down its host's binomial tree.

    Every leader concatenates the identical (de)quantized partitions, so
    the result is bit-identical on all ranks; it differs from the flat
    :func:`dsar_split_allgather` only by float association (different
    partition bounds) and by which rank's quantizer touched each entry.

    The host groups are ``comm.topology``'s, as in
    :func:`ssar_hierarchical`. Parameters mirror
    :func:`dsar_split_allgather` plus ``chunks`` (the pipelined schedule
    of :func:`ssar_hierarchical`; the leaders receive the full-dimension
    partition bounds clipped to each chunk, see :func:`_clip_bounds`).
    With the default ``quantizer=None`` the chunked result is
    bit-identical to the unchunked one on every backend; *with* a
    quantizer the chunked result is equal only in distribution — QSGD
    bucket boundaries and stochastic-rounding draws shift with the chunk
    offsets — so chunking a quantized run trades bit-reproducibility
    against overlap.
    """
    stream = _ensure_sparse(stream)
    chunks = _check_chunks(chunks)
    if comm.size == 1:
        # the flat kernel's single-rank path already densifies and
        # quantizes the one partition exactly once
        return dsar_split_allgather(comm, stream, quantizer=quantizer, op=op)
    hierarchy = build_hierarchy(comm, stream.dimension)

    def leader_stage(leader_comm, chunk_acc, lo, hi):
        return dsar_split_allgather(
            leader_comm, chunk_acc, quantizer=quantizer, op=op,
            bounds=_clip_bounds(hierarchy.leader_bounds, lo, hi),
        )

    return _hierarchical(
        comm, stream, op, hierarchy, chunks, leader_stage,
        leader_runs_alone=True, mark="dsar_hier",
    )
