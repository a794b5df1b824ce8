"""Fit a :class:`CostModel` from measurement: ``python -m repro calibrate``.

The presets in :mod:`repro.netsim.model` are class-representative
numbers; this module fits the same alpha/beta/gamma/launch parameters
*on the actual host*, from the only wall-clock measurements the package
itself makes:

* per-tier **alpha/beta** from a two-rank ping-pong of one sparse stream
  at the three frame sizes the repo benchmark reports as
  ``rtt_us_{1k,84k,1m}`` (:data:`PINGPONG`: 128 / 10 486 / 131 072 pairs
  at N = 2^20, the fastest round trip per size). One-way time
  vs bytes is a line ``t(L) = alpha + beta L``. The shared-memory backend
  stands in for the intra tier and the TCP socket backend for the inter
  tier (loopback TCP is the slowest transport the library has — the
  honest stand-in for a network link on a single box);
* **gamma** from one timing of the sparse merge (the §5.1 summation
  kernel) at the ``merge_bound`` workload's shape: seconds per byte
  touched — by whichever merge runs here, recorded in the provenance as
  ``merge_sparse_pairs/c-avx512`` (the compiled merge's AVX-512 body),
  ``merge_sparse_pairs/c`` (its scalar body) or ``merge_sparse_pairs/numpy``;
* **launch** — what launching and joining one background collective
  costs in software, the price :meth:`CostModel.auto_chunks` charges per
  extra pipeline chunk: a tiny allreduce run through ``i_collective`` and
  joined at once, minus the same allreduce run inline, on the smallest
  world a hierarchical collective can be chunked on (2 hosts x 2 ranks
  of the inter-tier backend).

The command has no modes: sizes, backends and iteration counts are
constants, the whole run takes a few seconds. The fitted model is written
as a named JSON under ``results/`` via
:func:`repro.netsim.model.save_network`, and
``CostModel.resolve("calibrated:<path>")`` loads it back (as does
``examples/quickstart.py --network calibrated:<path>``) — so a replay
or the selector can run under the measured machine instead of a preset.
"""

from __future__ import annotations

import platform
import statistics
import time
from pathlib import Path

import numpy as np

from ..config import INDEX_BYTES
from ..netsim.model import NetworkModel, TieredNetworkModel, save_network
from ..runtime import run_ranks
from ..runtime.nonblocking import i_collective
from ..streams import SparseStream, merge_sparse_pairs
from ..streams.summation import merge_implementation

__all__ = [
    "fit_alpha_beta",
    "fit_gamma",
    "fit_model",
    "measure_round_trips",
    "measure_merge",
    "measure_launch",
    "run_calibration",
    "DEFAULT_CALIBRATION_OUT",
]

#: default output path of ``python -m repro calibrate``.
DEFAULT_CALIBRATION_OUT = Path("results") / "calibrated_network.json"

#: the transport backend standing in for each tier.
TIER_BACKENDS = {"intra": "shmem", "inter": "socket"}

#: dimension every measurement stream is drawn from.
DIMENSION = 1 << 20
#: ping-pong ``(pairs, round trips)`` per size: ~1 KB / ~84 KB / ~1 MB on the
#: wire, the fastest trip kept. Small frames get more trips: a two-rank
#: exchange on a shared host runs in a fast and a 2-3x slower mode that
#: swap every few hundred trips, and a size that never met the fast one
#: reads slower than the next larger size.
PINGPONG = ((128, 2000), (10_486, 500), (131_072, 30))
#: pairs per merged stream: 5 % of N, the ``merge_bound`` workload's shape.
MERGE_NNZ = 52_429

#: bytes per sparse (index, value) pair on the wire (float32 payload).
_PAIR_BYTES = INDEX_BYTES + 4


def fit_alpha_beta(sizes_bytes: list[float], times_s: list[float]) -> tuple[float, float]:
    """Fit ``t(L) = alpha + beta * L`` by least *relative* error, clamped to >= 0.

    Each residual is divided by its measured time, so sizes decades apart
    weigh the same: under ordinary least squares the largest frame alone
    sets the slope and the intercept is whatever is left over, a fraction
    of the measured small-frame latency. With a single point the fit is
    underdetermined and the whole time is attributed to latency
    (``beta = 0``). Negative fitted parameters (possible when measurement
    noise dominates the slope or intercept) are clamped to zero so the
    result is always a valid :class:`~repro.netsim.model.NetworkModel`.
    """
    if len(sizes_bytes) != len(times_s) or not sizes_bytes or min(times_s) <= 0:
        raise ValueError("need equal, non-empty size and time lists of positive times")
    weights = [1.0 / (t * t) for t in times_s]
    total = sum(weights)
    mean_x = sum(w * x for w, x in zip(weights, sizes_bytes)) / total
    mean_y = sum(w * y for w, y in zip(weights, times_s)) / total
    var = sum(w * (x - mean_x) ** 2 for w, x in zip(weights, sizes_bytes))
    if var == 0.0:
        return mean_y, 0.0
    cov = sum(
        w * (x - mean_x) * (y - mean_y) for w, x, y in zip(weights, sizes_bytes, times_s)
    )
    beta = max(cov / var, 0.0)
    return max(mean_y - beta * mean_x, 0.0), beta


def fit_gamma(pairs: int, seconds: float) -> float:
    """Seconds per byte of local merge work: a merge that read ``pairs``
    input pairs in ``seconds`` — the accounting the trace replay charges
    compute with."""
    return seconds / (pairs * _PAIR_BYTES)


def fit_model(
    points: dict[str, list[tuple[float, float]]],
    gamma: float,
    launch_s: float,
    name: str = "calibrated",
) -> TieredNetworkModel:
    """The tiered model through each tier's ``(bytes, one_way_s)`` points.

    ``gamma`` and ``launch_s`` are properties of the host, not of a tier,
    so both tiers carry them.
    """
    tiers = {}
    for tier in TIER_BACKENDS:
        alpha, beta = fit_alpha_beta(
            [size for size, _ in points[tier]], [t for _, t in points[tier]]
        )
        tiers[tier] = NetworkModel(
            name=f"{name}_{tier}", alpha=alpha, beta=beta, gamma=gamma, launch=launch_s
        )
    return TieredNetworkModel(name=name, shared_uplink=True, **tiers)


def _pingpong_rank(comm) -> list[tuple[float, float]]:
    """``(bytes, one_way_s)`` per size of :data:`PINGPONG`."""
    peer = 1 - comm.rank
    points = []
    for nnz, trips in PINGPONG:
        stream = SparseStream.random_uniform(DIMENSION, nnz, np.random.default_rng(7))
        best = float("inf")
        for _ in range(trips):
            t0 = time.perf_counter()
            if comm.rank == 0:
                comm.send(stream, peer, tag=2)
                comm.recv(peer, tag=2)
            else:
                comm.recv(peer, tag=2)
                comm.send(stream, peer, tag=2)
            best = min(best, time.perf_counter() - t0)
        points.append((float(stream.comm_nbytes()), best / 2.0))
    return points


def measure_round_trips(backend: str) -> list[tuple[float, float]]:
    """One-way seconds of a sparse stream between two ranks of ``backend``,
    as ``(bytes the cost model charges, seconds)`` per frame size."""
    return run_ranks(_pingpong_rank, 2, backend=backend, timeout=120.0)[0]


def measure_merge() -> tuple[int, float]:
    """``(input pairs, best seconds)`` of one sparse + sparse merge."""
    gen = np.random.default_rng(11)
    a = SparseStream.random_uniform(DIMENSION, MERGE_NNZ, gen)
    b = SparseStream.random_uniform(DIMENSION, MERGE_NNZ, gen)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        merge_sparse_pairs(a.indices, a.values, b.indices, b.values)
        best = min(best, time.perf_counter() - t0)
    return 2 * MERGE_NNZ, best


def _launch_rank(comm) -> float:
    """Median seconds a tiny allreduce costs extra when it is launched in
    the background and joined at once instead of run inline."""
    from ..collectives.sparse import ssar_recursive_double  # imports this package

    stream = SparseStream.random_uniform(1 << 16, 64, np.random.default_rng(comm.rank))
    extra = []
    for _ in range(40):
        t0 = time.perf_counter()
        ssar_recursive_double(comm, stream)
        t1 = time.perf_counter()
        i_collective(comm, ssar_recursive_double, stream).wait()
        extra.append((time.perf_counter() - t1) - (t1 - t0))
    return statistics.median(extra)


def measure_launch() -> tuple[float, dict]:
    """The launch + join cost of one background collective on this host.

    Returns ``(seconds, provenance)``: the median over the four ranks of
    a 2x2 world on the inter-tier backend (twice as many ranks as a
    2-core host has cores is part of the price a chunk pays there),
    clamped at zero.
    """
    backend = TIER_BACKENDS["inter"]
    per_rank = run_ranks(
        _launch_rank, 4, backend=backend, topology="2x2", timeout=120.0
    ).results
    launch_s = max(statistics.median(per_rank), 0.0)
    return launch_s, {"backend": backend, "topology": "2x2", "per_rank_s": list(per_rank)}


def run_calibration(
    out: "str | Path | None" = None, name: str = "calibrated"
) -> tuple[TieredNetworkModel, Path, dict]:
    """Measure, fit, and persist a calibrated model.

    Returns ``(model, path, provenance)``; the provenance written next to
    the model records every measured point the fit went through.
    """
    points = {tier: measure_round_trips(b) for tier, b in TIER_BACKENDS.items()}
    pairs, merge_s = measure_merge()
    launch_s, launch_fit = measure_launch()
    model = fit_model(points, fit_gamma(pairs, merge_s), launch_s, name)
    fits: dict = {
        tier: {
            "backend": backend,
            "points": [{"wire_bytes": x, "one_way_s": t} for x, t in points[tier]],
        }
        for tier, backend in TIER_BACKENDS.items()
    }
    # the merges differ ~2x each (AVX-512 body, scalar C, numpy): say which was timed
    fits["gamma"] = {
        "kernel": f"merge_sparse_pairs/{merge_implementation()}",
        "pairs": pairs,
        "best_s": merge_s,
    }
    fits["launch"] = launch_fit
    provenance = {
        "source": "repro calibrate",
        "dimension": DIMENSION,
        "fits": fits,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    path = save_network(
        model, Path(out) if out is not None else DEFAULT_CALIBRATION_OUT, provenance=provenance
    )
    return model, path, provenance
