"""Asynchronous (pipelined) gradient aggregation (MPI-OPT, §7).

MPI-OPT supports "sparse, dense, synchronous, and asynchronous
aggregation". The asynchronous mode implemented here is the standard
one-step-pipelined scheme built on the library's non-blocking collectives
(§7): the allreduce of step ``t``'s gradient is *launched* at step ``t``
but only awaited at step ``t+1``, so communication overlaps with the next
batch's gradient computation. The model update is applied with one step of
staleness — the relaxed-consistency trade the paper's introduction calls
out ("individual nodes can compute with a partially inconsistent view of
the parameters").

Convergence: with a modest learning rate, staleness-1 SGD tracks the
synchronous trajectory closely (tested); the win is that the replayed
step time becomes ``max(compute, comm)`` instead of their sum.

Selection: ``algorithm="auto"`` is resolved once per membership through
:meth:`~repro.costmodel.CostModel.choose`, or, with ``adaptive=True``,
left to the ``"auto"`` plans every step launches, which re-select on
density drift and log it (``history.algorithm_switches``).

Fault tolerance: if a peer rank dies mid-run, the blocked aggregation
raises :class:`~repro.runtime.comm.RankFailedError`. Two recovery modes:

``on_failure="degrade"`` (default)
    record the failed rank on the returned history
    (``history.degraded_rank``) and finish the remaining steps on local
    gradients only — the simplest instance of the paper's "continue with
    the surviving ranks' contributions" recovery (§6).
``on_failure="shrink"``
    reform the world without the dead rank through
    :func:`~repro.runtime.elastic.shrink`, finish the current epoch on
    local gradients (survivors may detect the failure at different step
    offsets; the epoch boundary realigns them), then resume synchronized
    aggregation among the survivors. Each epoch boundary also commits at
    most one pending rejoin (``comm.grow()``) and broadcasts the model to
    the regrown world, so a revived rank re-enters training
    via ``resume=True`` without a restart. ``history.world_sizes``
    records the aggregating world size per epoch.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..collectives.api import cached_plan, cached_plans
from ..core.fusion import GradientFuser
from ..costmodel.model import CostModel, Instance
from ..runtime.comm import Communicator, RankFailedError, WorldAbortedError
from .datasets import SparseDataset, partition_rows
from .linear import LinearModel
from .metrics import EpochRecord, RunHistory
from .sgd import SentBytes, SGDConfig

__all__ = ["distributed_sgd_async"]


def _grow_root(members: tuple, joiner: int) -> int:
    """Group rank all parties agree broadcasts the model after a regrow.

    The root must be a *survivor* (the joiner has no current model), and
    both sides must pick it without further communication: the lowest
    member that is not the joiner.
    """
    root_world_rank = min(r for r in members if r != joiner)
    return members.index(root_world_rank)


def distributed_sgd_async(
    comm: Communicator,
    dataset: SparseDataset,
    model: LinearModel,
    config: SGDConfig,
    *,
    on_failure: str = "degrade",
    resume: bool = False,
    fuser: "GradientFuser | None" = None,
    fuser_k: int = 32,
    chunks: "int | str" = 1,
    adaptive: bool = False,
) -> RunHistory:
    """Data-parallel SGD with one-step-pipelined sparse aggregation.

    All ranks call collectively, on any backend (the non-blocking
    collective machinery is backend-agnostic: the progress thread lives
    inside the rank, whatever transports its messages). Only sparse mode
    is supported — the asynchronous pipeline exists to hide the sparse
    exchange behind gradient computation.

    ``resume=True`` (elastic mode only) is the entry point for a rank
    that rejoined a running world: ``comm`` is the
    :class:`~repro.runtime.elastic.ElasticWorld` that
    :func:`~repro.runtime.elastic.thread_rejoin` returned or that
    ``serve-rank --rejoin`` runs the program on. It receives the current
    ``(epoch, model)`` from the broadcast that follows the survivors'
    ``comm.grow()`` and joins the loop at that epoch.

    ``fuser`` switches the exchange to the bucketed path of §9: each
    step's gradient stream is cut into its fused buckets' pairs,
    TopK-selected per bucket (with per-bucket error feedback shipping at
    most ``fuser_k`` of every 512 coordinates, never an exact zero), and
    launched through
    :meth:`~repro.core.fusion.GradientFuser.i_fused_allreduce` — every
    bucket's persistent plan started on the communicator's one progress
    thread, reducing the buckets in order, joined one step later as a
    stream of the update's non-zeros (the unfused path starts one plan
    the same way). No step densifies the gradient or scans the model's
    width. ``chunks`` pipelines the
    hierarchical collectives either way (see
    :func:`~repro.collectives.api.sparse_allreduce`).

    ``adaptive=True`` (requires ``config.algorithm == "auto"``) launches
    ``"auto"`` plans instead of the once-per-membership static resolve:
    each plan (one for the gradient stream, or with a ``fuser`` one per
    bucket size) agrees on the realized nnz of what it launches in one
    round at its first launch, then prices each later launch from the
    newest reduced update this loop has joined — identical on every
    rank, so no step after the first sends more than its collectives —
    and re-runs the cost model's selection when that estimate drifts, so
    the algorithm tracks the density the run actually produces. A step
    launches before it joins the previous step, so a launch is priced
    from the update of two steps back. Plans persist on the communicator,
    so each membership first resets the communicator's cached plans
    (:meth:`~repro.collectives.api.AllreducePlan.reset`): a run selects
    afresh, and ``history.algorithm_switches`` holds its own
    (re-)selections only — the rows of the plans' switch logs
    (:attr:`~repro.collectives.api.AllreducePlan.switches`) in launch
    order, bit-identical on every rank.
    """
    if config.mode != "sparse":
        raise ValueError("asynchronous aggregation supports sparse mode only")
    if on_failure not in ("degrade", "shrink"):
        raise ValueError(f"on_failure must be 'degrade' or 'shrink', got {on_failure!r}")
    if resume and on_failure != "shrink":
        raise ValueError("resume=True requires on_failure='shrink'")
    if fuser is not None and fuser.total_size != model.n_features:
        raise ValueError(
            f"fuser covers {fuser.total_size} params but the model has "
            f"{model.n_features} features"
        )
    if adaptive and config.algorithm != "auto":
        raise ValueError("adaptive selection requires config.algorithm='auto'")
    feedback = fuser.make_error_feedback(fuser_k) if fuser is not None else None
    shard = partition_rows(dataset.n_samples, comm.size, comm.rank)
    X_local: sp.csr_matrix = dataset.X[shard]
    y_local = dataset.y[shard]
    n_local = X_local.shape[0]
    if n_local == 0:
        raise ValueError(f"rank {comm.rank} received an empty shard")

    rng = np.random.default_rng(config.seed * 100003 + comm.rank)
    w = np.zeros(model.n_features, dtype=np.float64)
    history = RunHistory()
    steps_per_epoch = max(1, n_local // config.batch_size)

    reported: dict = {}  # plan -> its switch rows already on the history

    def resolve_algorithm() -> str:
        # every rank must launch the *same* algorithm or the collective
        # deadlocks, but the §5.3 procedure keys on the local stream's nnz,
        # which differs per rank — near the sparse/dense switchover two
        # ranks can legitimately disagree. Without adaptive plans (which
        # agree on it themselves), resolve "auto" once per membership from
        # a rank-independent estimate: the dataset's mean batch nnz (the
        # dataset is replicated, so all ranks compute the identical value).
        if adaptive:
            # plans an earlier run left on this communicator select afresh
            for plan in cached_plans(comm):
                plan.reset()
        if config.algorithm != "auto" or adaptive:
            return config.algorithm
        est_nnz = max(1, int(dataset.X.nnz / dataset.n_samples * config.batch_size))
        # priced as it ships: grad_stream's values are float32
        instance = Instance(model.n_features, comm.size, est_nnz, 4)
        return CostModel.default().choose(instance, comm.topology)

    algorithm = resolve_algorithm()

    pending = None  # in-flight collective handle from the previous step
    start_epoch = 0
    #: first epoch at which synchronized aggregation is (re)enabled; a
    #: shrink mid-epoch pushes it past the current epoch so survivors who
    #: noticed the failure at different step offsets realign locally
    resync_epoch = 0
    if resume:
        # the grow broadcast pairs with the survivors' send in
        # _elastic_epoch_step: root is the lowest surviving member
        members = comm.parent_ranks
        root = _grow_root(members, joiner=members[comm.rank])
        start_epoch, w_sync = comm.bcast(None, root=root)
        resync_epoch = start_epoch
        w[:] = w_sync

    def apply_update(total_stream, contributors: int) -> None:
        model.apply_regularization(w, config.lr)
        if total_stream.is_dense:
            comm.compute(total_stream.dense_payload.nbytes * 2, "apply")
            w[:] -= (config.lr / contributors) * total_stream.dense_payload.astype(np.float64)
            return
        idx = total_stream.indices.astype(np.int64)
        comm.compute(idx.size * 12, "apply")
        w[idx] -= (config.lr / contributors) * total_stream.values.astype(np.float64)

    def launch(grad):
        if fuser is not None:
            handle = fuser.i_fused_allreduce(comm, grad, feedback, algorithm, chunks=chunks)
        else:
            handle = cached_plan(comm, grad, algorithm, chunks=chunks).start(grad)
        if adaptive:
            # the launch's (re-)selections, plan by plan in creation order
            for plan in cached_plans(comm):
                rows = plan.switches[reported.get(plan, 0):]
                reported[plan] = len(plan.switches)
                history.algorithm_switches += [s.to_dict() for s in rows]
        return handle

    def recover(exc: RankFailedError, doomed_handle, epoch: int) -> None:
        # a peer died mid-aggregation: reap the handle that was launched
        # into the already-aborted world, then either degrade to
        # local-only updates for the rest of the run or shrink the world
        # and resume aggregation among the survivors
        nonlocal pending, comm, resync_epoch, algorithm
        if doomed_handle is not None:
            try:
                doomed_handle.wait()
            except WorldAbortedError:
                pass
        pending = None
        if on_failure != "shrink":
            history.degraded_rank = exc.rank
            return
        comm = comm.shrink()
        algorithm = resolve_algorithm()
        # survivors may detect the failure at different step offsets (the
        # pipeline means one rank can clear an epoch boundary another
        # fails at), so the resumption epoch must be agreed, not assumed:
        # everyone proposes "my next epoch" and the max wins. This is the
        # first collective on the fresh post-shrink world, so it lines up
        # regardless of where each survivor's loop currently stands.
        votes = comm.gather_to_root(epoch + 1, root=0)
        resync_epoch = comm.bcast(max(votes) if votes is not None else None, root=0)

    def aggregating(epoch: int) -> bool:
        return history.degraded_rank is None and epoch >= resync_epoch

    def elastic_epoch_step(epoch: int) -> None:
        # epoch boundary = membership commit point: drain the pipeline
        # (an in-flight handle on a superseded world would go stale the
        # moment a join bumps the epoch), commit at most one pending
        # rejoin, and hand the regrown world the current model
        nonlocal pending, comm, algorithm
        if pending is not None:
            try:
                apply_update(pending.wait(), comm.size)
            except RankFailedError as exc:
                recover(exc, None, epoch)
            pending = None
        history.world_sizes.append(comm.size if aggregating(epoch) else 1)
        if not aggregating(epoch):
            return
        try:
            grown = comm.grow()
            if grown is comm:
                return
            # a join needs a dead rank, so comm is an elastic world here
            (joiner,) = set(grown.parent_ranks) - set(comm.parent_ranks)
            comm = grown
            algorithm = resolve_algorithm()
            members = comm.parent_ranks
            root = _grow_root(members, joiner)
            payload = (epoch + 1, w.copy()) if comm.rank == root else None
            comm.bcast(payload, root=root)
        except RankFailedError as exc:
            recover(exc, None, epoch)

    sent = SentBytes(comm)
    for epoch in range(start_epoch, config.epochs):
        grad_nnz: list[int] = []
        for _ in range(steps_per_epoch):
            rows = rng.choice(n_local, size=min(config.batch_size, n_local), replace=False)
            comm.mark("compute")
            comm.compute(int(X_local[rows].nnz) * 16, "grad")
            grad = model.grad_stream(w, X_local[rows], y_local[rows])
            grad_nnz.append(grad.nnz)
            if not aggregating(epoch):
                apply_update(grad, 1)
                continue
            # launch this step's reduction; it progresses while the next
            # batch's gradient is being computed. A plan's first launch
            # agrees on the nnz its "auto" knobs price in one round on this
            # thread, so a dead peer can surface here as well as at the
            # join below; later launches are priced from joined updates.
            try:
                handle = launch(grad)
            except RankFailedError as exc:
                recover(exc, pending, epoch)
                apply_update(grad, 1)
                continue
            if pending is not None:
                try:
                    apply_update(pending.wait(), comm.size)
                except RankFailedError as exc:
                    recover(exc, handle, epoch)
                    apply_update(grad, 1)
                    continue
            pending = handle
        if on_failure == "shrink":
            elastic_epoch_step(epoch)
        history.add(
            EpochRecord(
                epoch=epoch,
                loss=model.loss(w, dataset.X, dataset.y),
                accuracy=model.accuracy(w, dataset.X, dataset.y),
                grad_nnz_mean=float(np.mean(grad_nnz)) if grad_nnz else 0.0,
                bytes_sent=sent.since_last_read(comm),
            )
        )
    if pending is not None:
        try:
            apply_update(pending.wait(), comm.size)
        except RankFailedError as exc:
            recover(exc, None, config.epochs)
    history.params = w
    return history
