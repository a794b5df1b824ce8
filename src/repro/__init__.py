"""SparCML reproduction: high-performance sparse communication for ML.

A from-scratch Python implementation of the system described in

    Renggli, Ashkboos, Aghagolzadeh, Alistarh, Hoefler.
    "SparCML: High-Performance Sparse Communication for Machine Learning."
    SC 2019 (arXiv:1802.08021).

Top-level surface (see DESIGN.md for the full inventory):

* :class:`~repro.streams.SparseStream` — the sparse/dense stream type;
* :func:`~repro.collectives.sparse_allreduce` /
  :func:`~repro.collectives.sparse_allgather` — the sparse collectives;
* :func:`~repro.core.quantized_topk_sgd` — Algorithm 1;
* :func:`~repro.runtime.run_ranks` — the parallel execution harness;
* :class:`~repro.costmodel.CostModel` — the unified §5.3 cost layer
  (prediction, selection reports, calibration, adaptive selection);
* :mod:`repro.netsim` — alpha-beta timing replay of executed traces.

Quickstart::

    import numpy as np
    from repro import SparseStream, run_ranks, sparse_allreduce

    def program(comm):
        rng = np.random.default_rng(comm.rank)
        s = SparseStream.random_uniform(1 << 20, nnz=1000, rng=rng)
        return sparse_allreduce(comm, s, algorithm="ssar_rec_dbl")

    out = run_ranks(program, nranks=8)
    print(out[0], out.trace.summary())
"""

from .collectives import (
    dense_allreduce,
    run_sparse_allreduce,
    sparse_allgather,
    sparse_allreduce,
)
from .config import INDEX_BYTES, INDEX_DTYPE, delta_threshold
from .costmodel import (
    AdaptiveSelector,
    CostModel,
    Instance,
    PredictedCost,
    SelectionReport,
)
from .core import (
    ErrorFeedback,
    TopKSGDConfig,
    TopKSGDResult,
    dense_sgd,
    quantized_topk_sgd,
    topk_stream,
)
from .netsim import (
    ARIES,
    GIGE,
    IB_FDR,
    SHM,
    TIERED_ARIES,
    TIERED_GIGE,
    TIERED_IB_FDR,
    NetworkModel,
    TieredNetworkModel,
    replay,
    resolve_network,
)
from .quant import QSGDQuantizer, QuantizedBlock
from .runtime import (
    Backend,
    CommTimeoutError,
    FaultPlan,
    RankFailedError,
    Topology,
    Trace,
    available_backends,
    get_backend,
    i_collective,
    inter_node_bytes,
    run_ranks,
)
from .streams import SparseStream, add_streams, reduce_streams

__version__ = "1.0.0"

__all__ = [
    "SparseStream",
    "add_streams",
    "reduce_streams",
    "sparse_allreduce",
    "sparse_allgather",
    "dense_allreduce",
    "QSGDQuantizer",
    "QuantizedBlock",
    "ErrorFeedback",
    "topk_stream",
    "TopKSGDConfig",
    "TopKSGDResult",
    "quantized_topk_sgd",
    "dense_sgd",
    "run_ranks",
    "run_sparse_allreduce",
    "i_collective",
    "Backend",
    "get_backend",
    "available_backends",
    "Topology",
    "inter_node_bytes",
    "Trace",
    "FaultPlan",
    "RankFailedError",
    "CommTimeoutError",
    "NetworkModel",
    "TieredNetworkModel",
    "ARIES",
    "IB_FDR",
    "GIGE",
    "SHM",
    "TIERED_ARIES",
    "TIERED_IB_FDR",
    "TIERED_GIGE",
    "replay",
    "resolve_network",
    "CostModel",
    "Instance",
    "PredictedCost",
    "SelectionReport",
    "AdaptiveSelector",
    "INDEX_DTYPE",
    "INDEX_BYTES",
    "delta_threshold",
    "__version__",
]
