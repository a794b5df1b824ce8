"""Fit a :class:`CostModel` from measurement: ``python -m repro calibrate``.

The presets in :mod:`repro.netsim.model` are class-representative
numbers; this module fits the same alpha/beta/gamma parameters from the
bench-kernels measurement layers *on the actual host*:

* per-tier **alpha/beta** from the transport round-trip curve — one-way
  time vs wire bytes is a line ``t(L) = alpha + beta L``, least-squares
  fitted per backend. The shared-memory backend stands in for the intra
  tier and the TCP socket backend for the inter tier (loopback TCP is
  the slowest transport the harness has — the honest stand-in for a
  network link on a single box);
* **gamma** from the microkernel layer: seconds per byte touched by the
  sparse merge (the §5.1 summation kernel);
* **launch** — what launching and joining one background collective
  costs in software, the price :meth:`CostModel.auto_chunks` charges per
  extra pipeline chunk: a tiny allreduce run through ``i_collective`` and
  joined at once, minus the same allreduce run inline, on the smallest
  world a hierarchical collective can be chunked on (2 hosts x 2 ranks
  of the inter-tier backend). No bench-kernels layer records it, so it
  is always measured here (under a second).

The fitted model is written as a named JSON under ``results/`` via
:func:`repro.netsim.model.save_network`, and every ``--network`` flag
resolves it back through the ``"calibrated:<path>"`` spec — so a sweep,
a replay or the selector can run under the measured machine instead of a
preset. An existing bench-kernels document with at least two transport
sizes can be reused (``--bench``); otherwise the needed points are
measured directly (a few seconds in ``--quick`` mode).
"""

from __future__ import annotations

import platform
import statistics
import time
from pathlib import Path
from typing import Any

from ..config import INDEX_BYTES
from ..netsim.model import (
    DEFAULT_LAUNCH_S,
    NetworkModel,
    TieredNetworkModel,
    save_network,
)

__all__ = [
    "fit_alpha_beta",
    "fit_gamma",
    "measure_launch",
    "calibrate_from_doc",
    "run_calibration",
    "DEFAULT_CALIBRATION_OUT",
]

#: default output path of ``python -m repro calibrate``.
DEFAULT_CALIBRATION_OUT = Path("results") / "calibrated_network.json"

#: transport backend standing in for each tier (first available wins).
INTRA_BACKENDS = ("shmem", "process")
INTER_BACKENDS = ("socket", "process")

#: bytes per sparse (index, value) pair on the wire (float32 payload).
_PAIR_BYTES = INDEX_BYTES + 4


def fit_alpha_beta(sizes_bytes: list[float], times_s: list[float]) -> tuple[float, float]:
    """Least-squares fit of ``t(L) = alpha + beta * L``, clamped to >= 0.

    With a single point the fit is underdetermined and the whole time is
    attributed to latency (``beta = 0``). Negative fitted parameters
    (possible when measurement noise dominates the slope or intercept)
    are clamped to zero so the result is always a valid
    :class:`~repro.netsim.model.NetworkModel`.
    """
    if len(sizes_bytes) != len(times_s) or not sizes_bytes:
        raise ValueError("need equal, non-empty size and time lists")
    n = len(sizes_bytes)
    if n == 1:
        return max(float(times_s[0]), 0.0), 0.0
    mean_x = sum(sizes_bytes) / n
    mean_y = sum(times_s) / n
    var = sum((x - mean_x) ** 2 for x in sizes_bytes)
    if var == 0.0:
        return max(mean_y, 0.0), 0.0
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(sizes_bytes, times_s))
    beta = max(cov / var, 0.0)
    alpha = max(mean_y - beta * mean_x, 0.0)
    return alpha, beta


def fit_gamma(micro: dict) -> float:
    """Seconds per byte of local merge work, from the microkernel layer.

    Uses the sparse merge (the §5.1 summation kernel):
    merging two ``nnz``-pair streams touches ``2 nnz`` input pairs, the
    same accounting the trace replay charges compute with.
    """
    nnz = micro["params"]["nnz"]
    best = micro["merge_sparse_pairs"]["best_s"]
    touched = 2 * nnz * _PAIR_BYTES
    return best / touched if touched else 0.0


def _launch_rank(comm, iters: int) -> float:
    """Median seconds a tiny allreduce costs extra when it is launched in
    the background and joined at once instead of run inline."""
    import numpy as np

    from ..collectives.sparse import ssar_recursive_double
    from ..runtime.nonblocking import i_collective
    from ..streams import SparseStream

    stream = SparseStream.random_uniform(1 << 16, 64, np.random.default_rng(comm.rank))
    extra = []
    for _ in range(iters):
        t0 = time.perf_counter()
        ssar_recursive_double(comm, stream)
        t1 = time.perf_counter()
        i_collective(comm, ssar_recursive_double, stream).wait()
        extra.append((time.perf_counter() - t1) - (t1 - t0))
    return statistics.median(extra)


def measure_launch(quick: bool = True) -> tuple[float, dict]:
    """The launch + join cost of one background collective on this host.

    Returns ``(seconds, provenance)``: the median over the four ranks of
    a 2x2 world on the inter-tier backend (twice as many ranks as a
    2-core host has cores is part of the price a chunk pays there),
    clamped at zero.
    """
    from ..runtime import available_backends, run_ranks

    backend = next(b for b in INTER_BACKENDS if b in available_backends())
    per_rank = run_ranks(
        _launch_rank, 4, 40 if quick else 400,
        backend=backend, topology="2x2", timeout=120.0,
    ).results
    launch_s = max(statistics.median(per_rank), 0.0)
    return launch_s, {"backend": backend, "topology": "2x2", "per_rank_s": list(per_rank)}


def _wire_bytes(dimension: int, nnz: int) -> int:
    """Encoded frame size of an ``nnz``-pair sparse stream (one message)."""
    import numpy as np

    from ..runtime.wire import encode_message
    from ..streams import SparseStream

    s = SparseStream.random_uniform(dimension, nnz, np.random.default_rng(7))
    return len(bytes(encode_message(1, 0, s.nbytes_payload, s)))


def _tier_points(
    transport: dict, backend: str, dimension: int
) -> tuple[list[float], list[float]]:
    """(wire bytes, one-way seconds) points for one backend's rows."""
    sizes, times = [], []
    for key, stats in transport.get(backend, {}).items():
        nnz = int(key.split("_", 1)[1])
        sizes.append(float(_wire_bytes(dimension, nnz)))
        times.append(stats["best_s"] / 2.0)  # round trip -> one way
    return sizes, times


def _pick_backend(transport: dict, preferences: tuple[str, ...]) -> str | None:
    for backend in preferences:
        if len(transport.get(backend, {})) >= 2:
            return backend
    return None


def calibrate_from_doc(
    transport: dict,
    micro: dict,
    dimension: int,
    name: str = "calibrated",
    launch_s: float = DEFAULT_LAUNCH_S,
) -> tuple[TieredNetworkModel, dict]:
    """Fit the tiered model from measured transport + microkernel layers.

    ``launch_s`` (see :func:`measure_launch`) is a property of the host's
    runtime, not of a tier, so both tiers carry it. Returns
    ``(model, provenance)``; raises ``ValueError`` when no backend has
    the two transport sizes a line fit needs.
    """
    intra_backend = _pick_backend(transport, INTRA_BACKENDS)
    inter_backend = _pick_backend(transport, INTER_BACKENDS)
    if intra_backend is None or inter_backend is None:
        raise ValueError(
            "calibration needs >= 2 transport round-trip sizes for an intra "
            f"backend {INTRA_BACKENDS} and an inter backend {INTER_BACKENDS}; "
            f"got {sorted(transport)}"
        )
    gamma = fit_gamma(micro)
    tiers: dict[str, NetworkModel] = {}
    fits: dict[str, Any] = {}
    for tier_name, backend in (("intra", intra_backend), ("inter", inter_backend)):
        sizes, times = _tier_points(transport, backend, dimension)
        alpha, beta = fit_alpha_beta(sizes, times)
        tiers[tier_name] = NetworkModel(
            name=f"{name}_{tier_name}", alpha=alpha, beta=beta, gamma=gamma,
            launch=launch_s,
        )
        fits[tier_name] = {
            "backend": backend,
            "points": [
                {"wire_bytes": s, "one_way_s": t} for s, t in zip(sizes, times)
            ],
        }
    model = TieredNetworkModel(
        name=name, intra=tiers["intra"], inter=tiers["inter"], shared_uplink=True
    )
    provenance = {
        "source": "repro calibrate",
        "dimension": dimension,
        "gamma_kernel": "merge_sparse_pairs",
        "fits": fits,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    return model, provenance


def _measure(quick: bool, dimension: int) -> tuple[dict, dict, int]:
    """Run just the transport + microkernel measurements calibration needs.

    Imported lazily: :mod:`repro.tools.benchkernels` imports the
    collectives package, which imports this package — a module-level
    import here would be circular.
    """
    from ..tools.benchkernels import _bench_microkernels, _bench_transport

    if quick:
        iters, micro_iters = 5, 5
        sizes = [max(1, dimension // 200), max(2, dimension // 50), max(4, dimension // 10)]
    else:
        iters, micro_iters = 40, 30
        sizes = [dimension // 800, dimension // 100, dimension // 25, dimension // 10]
    backends = sorted(set(INTRA_BACKENDS + INTER_BACKENDS))
    transport = _bench_transport(backends, dimension, sizes, iters)
    micro = _bench_microkernels(dimension, max(1, dimension // 100), micro_iters)
    return transport, micro, dimension


def run_calibration(
    out: "str | Path | None" = None,
    quick: bool = True,
    dimension: int | None = None,
    bench: "str | Path | None" = None,
    name: str = "calibrated",
) -> tuple[TieredNetworkModel, Path, dict]:
    """Measure (or reuse ``bench``), fit, and persist a calibrated model.

    Returns ``(model, path, provenance)``. When ``bench`` points at a
    bench-kernels JSON with at least two transport sizes its rows are
    reused; otherwise — including for quick CI documents, which record a
    single round-trip size — the needed points are measured here.
    """
    transport = micro = None
    if bench is not None:
        import json

        doc = json.loads(Path(bench).read_text())
        dim = doc.get("params", {}).get("dimension", dimension or (1 << 16))
        t = doc.get("transport_roundtrip", {})
        m = doc.get("microkernels")
        if (
            m is not None
            and _pick_backend(t, INTRA_BACKENDS)
            and _pick_backend(t, INTER_BACKENDS)
        ):
            transport, micro, dimension = t, m, dim
    if transport is None or micro is None:
        transport, micro, dimension = _measure(quick, dimension or (1 << 16))
    launch_s, launch_fit = measure_launch(quick)
    model, provenance = calibrate_from_doc(
        transport, micro, dimension, name=name, launch_s=launch_s
    )
    provenance["fits"]["launch"] = launch_fit
    provenance["quick"] = quick
    provenance["reused_bench"] = str(bench) if bench is not None else None
    path = save_network(model, Path(out) if out is not None else DEFAULT_CALIBRATION_OUT,
                        provenance=provenance)
    return model, path, provenance
