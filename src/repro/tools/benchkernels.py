"""Wall-clock perf harness: ``python -m repro bench-kernels``.

Times the library's hot paths with real clocks (no replay model) and
writes the results as one JSON document, ``BENCH_microkernels.json`` at
the repo root by default, so successive PRs have a numeric trajectory to
diff against. Five layers are measured (``--layers`` selects a subset):

``microkernels``
    the §5.1 summation kernels (sparse merge, in-place stream addition)
    and the wire codec (vectored encode, single-copy decode);
``transport``
    per-backend point-to-point round-trip latency of a sparse stream
    between two real ranks — the purest backend comparison (the
    ``process``/``shmem`` gap is the pipe-vs-shared-memory story; the
    ``socket`` rows put the TCP loopback mesh on the same axis);
``allreduce``
    per-backend, per-algorithm end-to-end sparse allreduce time at the
    paper's micro-benchmark shape (N = 2^20, uniform random support)
    across densities, measured as sustained back-to-back operations
    inside the ranks (robust to barrier skew and process start-up). The
    world carries a simulated two-host topology so ``ssar_hier`` rows
    measure the real hierarchical schedule. Since schema 5 every measured
    row carries ``predicted_s`` — the
    :class:`~repro.costmodel.CostModel` allreduce time under the tiered
    replay preset on the same topology — and the document records an
    ``allreduce_ordering_check`` comparing the predicted and measured
    algorithm *orderings* (absolute times differ wildly between a real
    laptop and the modeled cluster; the ordering of clearly-separated
    predictions should not);
``hierarchy``
    byte accounting per algorithm on the simulated two-host world at the
    headline density: total vs *inter-node* traffic (the volume
    hierarchical reduction exists to shrink), the two-tier Appendix-B
    expectations for reference, and — new in schema 3 — the replayed
    makespan of each algorithm's trace under a flat preset
    (``replay_flat_s``) and under the matching tiered preset with the
    simulated topology (``replay_tiered_s``), so the perf trajectory
    captures whether the two-tier replay rewards hierarchy, not just
    whether fewer bytes crossed the slow tier;
``overlap``
    new in schema 4: achieved compute/communication overlap per backend
    for the *chunked* non-blocking hierarchical allreduce (§7). Each rank
    times a fixed numpy busywork loop alone, the blocking chunked
    ``ssar_hier`` alone, the two run back to back, and the overlapped
    schedule (launch through ``i_collective``, compute, join); the
    ``overlap_fraction`` column is the share of the hideable time —
    ``min(compute, comm)`` — actually hidden. Next to the measurements
    sits the *predicted* pipelined makespan: the tiered-replay time of the
    chunked trace fed through
    :func:`~repro.netsim.replay.overlap_step_time`, so prediction and
    reality live in the same figure.

Every measurement reports ``best`` (minimum) and ``median`` seconds.
``--quick`` shrinks sizes and iteration counts to a few seconds total for
CI smoke use; the committed baseline is produced by a full run.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..analysis.density import expected_two_tier_sizes
from ..collectives import (
    dsar_hierarchical,
    dsar_split_allgather,
    ssar_hierarchical,
    ssar_recursive_double,
    ssar_ring,
    ssar_split_allgather,
)
from ..costmodel.model import CostModel, Instance
from ..netsim import IB_FDR, TIERED_IB_FDR, replay
from ..netsim.replay import overlap_step_time
from ..runtime import Topology, bytes_by_tier, normalize_topology, run_ranks
from ..runtime.nonblocking import i_collective
from ..runtime.wire import decode_message, encode_message
from ..streams import SparseStream, add_streams_, merge_sparse_pairs

__all__ = ["run_bench", "write_bench", "DEFAULT_OUT", "LAYERS"]

#: the selectable measurement layers, in document order.
LAYERS = ("microkernels", "transport_roundtrip", "allreduce", "hierarchy", "overlap")

#: schema version of the JSON document (bump on layout changes).
#: 3: dsar rows in the allreduce/hierarchy layers + replayed makespans
#: (flat vs tiered preset) per hierarchy row.
#: 4: the ``overlap`` layer (measured compute/comm overlap per backend for
#: the chunked non-blocking hierarchy + the predicted pipelined makespan)
#: and optional layer selection (absent layers are simply omitted).
#: 5: ``predicted_s`` (CostModel time under the tiered replay preset) on
#: every allreduce row + the ``allreduce_ordering_check`` block.
SCHEMA = 5

#: repo root (src/repro/tools/ -> three levels up).
DEFAULT_OUT = Path(__file__).resolve().parents[3] / "BENCH_microkernels.json"

ALGOS = {
    "ssar_rec_dbl": ssar_recursive_double,
    "ssar_split_ag": ssar_split_allgather,
    "ssar_ring": ssar_ring,
    "ssar_hier": ssar_hierarchical,
    "dsar_split_ag": dsar_split_allgather,
    "dsar_hier": dsar_hierarchical,
}

#: the replay models of the hierarchy layer: one flat preset and its
#: tiered counterpart (shared-memory intra + the same inter tier).
REPLAY_FLAT = IB_FDR
REPLAY_TIERED = TIERED_IB_FDR


def _two_host_topology(nranks: int) -> Topology:
    """The simulated cluster of the bench: two hosts, ranks split evenly."""
    return Topology.uniform(nranks, max(1, (nranks + 1) // 2))


def _stats(samples: list[float]) -> dict[str, float]:
    arr = np.asarray(samples, dtype=float)
    return {"best_s": float(arr.min()), "median_s": float(np.median(arr)), "n": int(arr.size)}


def _time(fn: Callable[[], Any], iters: int, warmup: int = 2) -> dict[str, float]:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return _stats(samples)


# ----------------------------------------------------------------------
# layer 1: microkernels
# ----------------------------------------------------------------------
def _time_add_streams(a: SparseStream, b: SparseStream, iters: int) -> dict[str, float]:
    """Time the in-place add alone: the fresh accumulator each iteration
    needs is prepared *outside* the clocked window."""
    samples = []
    for _ in range(iters + 2):
        acc = a.copy()
        t0 = time.perf_counter()
        add_streams_(acc, b)
        samples.append(time.perf_counter() - t0)
    return _stats(samples[2:])  # first two are warmup


def _bench_microkernels(dimension: int, nnz: int, iters: int) -> dict[str, Any]:
    gen = np.random.default_rng(11)
    a = SparseStream.random_uniform(dimension, nnz, gen)
    b = SparseStream.random_uniform(dimension, nnz, gen)
    blob = bytes(encode_message(1, 0, a.nbytes_payload, a))

    out: dict[str, Any] = {
        "merge_sparse_pairs": _time(
            lambda: merge_sparse_pairs(a.indices, a.values, b.indices, b.values), iters
        ),
        "add_streams_sparse_sparse": _time_add_streams(a, b, iters),
        "encode_message_stream": _time(
            lambda: encode_message(1, 0, a.nbytes_payload, a), iters
        ),
        "decode_message_stream": _time(lambda: decode_message(blob), iters),
        "decode_message_stream_zero_copy": _time(
            lambda: decode_message(blob, copy=False), iters
        ),
    }
    out["params"] = {"dimension": dimension, "nnz": nnz, "wire_bytes": len(blob)}
    return out


# ----------------------------------------------------------------------
# layer 2: transport round trip (module-level so spawn platforms work)
# ----------------------------------------------------------------------
def _pingpong_rank(comm, dimension: int, nnz: int, iters: int):
    gen = np.random.default_rng(7)
    s = SparseStream.random_uniform(dimension, nnz, gen)
    peer = 1 - comm.rank
    def once():
        if comm.rank == 0:
            comm.send(s, peer, tag=2)
            comm.recv(peer, tag=2)
        else:
            comm.recv(peer, tag=2)
            comm.send(s, peer, tag=2)
    for _ in range(3):
        once()
    samples = []
    for _ in range(iters):
        t0 = time.perf_counter()
        once()
        samples.append(time.perf_counter() - t0)
    return samples


def _bench_transport(
    backends: list[str], dimension: int, nnz_list: list[int], iters: int
) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for backend in backends:
        if backend == "thread":
            continue  # in-process: no transport to speak of; e2e covers it
        per_size = {}
        for nnz in nnz_list:
            res = run_ranks(
                _pingpong_rank, 2, dimension, nnz, iters, backend=backend, timeout=300.0
            )
            per_size[f"nnz_{nnz}"] = _stats(res[0])
        out[backend] = per_size
    return out


# ----------------------------------------------------------------------
# layer 3: end-to-end allreduce
# ----------------------------------------------------------------------
def _allreduce_rank(comm, algo_name: str, dimension: int, nnz: int, iters: int):
    algo = ALGOS[algo_name]
    gen = np.random.default_rng(100 + comm.rank)
    s = SparseStream.random_uniform(dimension, nnz, gen)
    for _ in range(2):
        algo(comm, s)
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(iters):
        algo(comm, s)
    comm.barrier()
    return (time.perf_counter() - t0) / iters


def _bench_allreduce(
    backends: list[str],
    algos: list[str],
    dimension: int,
    densities: list[float],
    nranks: int,
    iters: int,
    repeats: int,
    topology: Topology,
) -> dict[str, Any]:
    model = CostModel(REPLAY_TIERED)
    out: dict[str, Any] = {}
    for backend in backends:
        per_algo: dict[str, Any] = {}
        for algo in algos:
            per_density = {}
            for density in densities:
                nnz = max(1, int(round(dimension * density)))
                samples = []
                for _ in range(repeats):
                    res = run_ranks(
                        _allreduce_rank, nranks, algo, dimension, nnz, iters,
                        backend=backend, timeout=600.0, topology=topology,
                    )
                    samples.append(max(res.results))  # slowest rank = op latency
                row = _stats(samples)
                # backend-independent analytic prediction next to the
                # measurement, so the trajectory shows model vs reality
                row["predicted_s"] = model.predict(
                    Instance(dimension, nranks, nnz), algo, topology=topology
                ).time_s
                per_density[f"density_{density:g}"] = row
            per_algo[algo] = per_density
        out[backend] = per_algo
    return out


def _check_allreduce_ordering(
    allreduce: dict[str, Any], ratio_band: float = 10.0, slack: float = 1.5
) -> dict[str, Any]:
    """Compare the CostModel's algorithm *ordering* against the clock.

    Absolute predicted times model a cluster, not this machine, so they
    are not asserted. What must hold is the ordering of clearly-separated
    pairs: when the model says algorithm A beats algorithm B by at least
    ``ratio_band`` (predicted_b / predicted_a >= band), the measured
    clock must not show the opposite by more than ``slack`` (measured_a
    > slack * measured_b). Pairs inside the band are noise and skipped.
    """
    violations: list[dict[str, Any]] = []
    pairs_checked = 0
    for backend, per_algo in allreduce.items():
        density_keys = set()
        for rows in per_algo.values():
            density_keys.update(rows)
        for dkey in sorted(density_keys):
            rows = {
                algo: per_algo[algo][dkey]
                for algo in per_algo
                if dkey in per_algo[algo] and "predicted_s" in per_algo[algo][dkey]
            }
            names = sorted(rows)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    pa, pb = rows[a]["predicted_s"], rows[b]["predicted_s"]
                    if min(pa, pb) <= 0:
                        continue
                    fast, slow = (a, b) if pa <= pb else (b, a)
                    if max(pa, pb) / min(pa, pb) < ratio_band:
                        continue
                    pairs_checked += 1
                    m_fast = rows[fast]["best_s"]
                    m_slow = rows[slow]["best_s"]
                    if m_fast > slack * m_slow:
                        violations.append({
                            "backend": backend,
                            "density": dkey,
                            "predicted_fast": fast,
                            "predicted_slow": slow,
                            "predicted_ratio": round(max(pa, pb) / min(pa, pb), 2),
                            "measured_fast_s": m_fast,
                            "measured_slow_s": m_slow,
                        })
    return {
        "ratio_band": ratio_band,
        "measured_slack": slack,
        "pairs_checked": pairs_checked,
        "violations": violations,
        "ok": not violations,
    }


# ----------------------------------------------------------------------
# layer 4: per-tier byte accounting on the simulated two-host world
# ----------------------------------------------------------------------
def _one_allreduce_rank(comm, algo_name: str, dimension: int, nnz: int):
    algo = ALGOS[algo_name]
    gen = np.random.default_rng(100 + comm.rank)
    algo(comm, SparseStream.random_uniform(dimension, nnz, gen))


def _bench_hierarchy(
    algos: list[str], dimension: int, nnz: int, nranks: int, topology: Topology
) -> dict[str, Any]:
    """Classify each algorithm's traffic into intra-/inter-host bytes and
    replay it under a flat and a tiered preset.

    Byte accounting and traces are backend-invariant (pinned by the
    equivalence suite), so one thread-backend run per algorithm suffices.
    Two columns matter: *inter-node bytes* — the volume hierarchical
    reduction shrinks — and ``replay_tiered_s``, the predicted time under
    the two-tier model (shared-memory intra + IB inter, shared per-host
    uplink) where that shrinkage must show up as a speedup over the
    ``replay_flat_s`` ordering.
    """
    k_local, k_total = expected_two_tier_sizes(
        nnz, dimension, nranks, topology.max_ranks_per_node
    )
    out: dict[str, Any] = {
        "topology": topology.describe(),
        "nnz_per_rank": nnz,
        "expected_k_local": round(k_local, 1),
        "expected_k_total": round(k_total, 1),
        "replay_flat_preset": REPLAY_FLAT.name,
        "replay_tiered_preset": REPLAY_TIERED.name,
        "per_algorithm": {},
    }
    for algo in algos:
        res = run_ranks(
            _one_allreduce_rank, nranks, algo, dimension, nnz,
            backend="thread", timeout=600.0, topology=topology,
        )
        intra, inter = bytes_by_tier(res.trace, topology)
        out["per_algorithm"][algo] = {
            "total_bytes": intra + inter,
            "intra_node_bytes": intra,
            "inter_node_bytes": inter,
            "messages": res.trace.total_messages,
            "replay_flat_s": replay(res.trace, REPLAY_FLAT).makespan,
            "replay_tiered_s": replay(
                res.trace, REPLAY_TIERED, topology=topology
            ).makespan,
        }
    return out


# ----------------------------------------------------------------------
# layer 5: achieved vs predicted compute/communication overlap
# ----------------------------------------------------------------------
def _overlap_rank(comm, dimension: int, nnz: int, chunks: int, iters: int):
    """Time compute alone, comm alone, the two back to back, and overlapped.

    The busywork is repeated large dot products — BLAS releases the GIL,
    so the background collective makes genuine progress underneath it on
    every backend. The repetition count is *calibrated* in-rank so the
    compute window roughly matches one collective's wall time: overlap is
    only measurable when there is a comparable amount of work to hide
    behind, whatever the backend's absolute speed is.
    """
    gen = np.random.default_rng(100 + comm.rank)
    s = SparseStream.random_uniform(dimension, nnz, gen)
    work = np.random.default_rng(7).standard_normal(max(dimension, 1 << 18))

    float(np.dot(work, work))  # BLAS warmup before calibration
    t0 = time.perf_counter()
    ssar_hierarchical(comm, s, chunks=chunks)
    t_comm = time.perf_counter() - t0
    t0 = time.perf_counter()
    float(np.dot(work, work))
    t_dot = time.perf_counter() - t0
    reps = min(10_000, max(1, int(round(t_comm / max(t_dot, 1e-9)))))

    def busywork() -> float:
        acc = 0.0
        for _ in range(reps):
            acc += float(np.dot(work, work))
        return acc

    busywork()
    comm.barrier()
    out: dict[str, list[float]] = {
        "compute_s": [], "comm_s": [], "blocking_s": [], "overlapped_s": []
    }
    for _ in range(iters):
        t0 = time.perf_counter()
        busywork()
        out["compute_s"].append(time.perf_counter() - t0)
        comm.barrier()
        t0 = time.perf_counter()
        ssar_hierarchical(comm, s, chunks=chunks)
        out["comm_s"].append(time.perf_counter() - t0)
        comm.barrier()
        t0 = time.perf_counter()
        ssar_hierarchical(comm, s, chunks=chunks)
        busywork()
        out["blocking_s"].append(time.perf_counter() - t0)
        comm.barrier()
        t0 = time.perf_counter()
        handle = i_collective(comm, s, "ssar_hier", chunks=chunks)
        busywork()
        handle.wait()
        out["overlapped_s"].append(time.perf_counter() - t0)
        comm.barrier()
    out["compute_reps"] = reps
    return out


def _one_chunked_rank(comm, dimension: int, nnz: int, chunks: int):
    gen = np.random.default_rng(100 + comm.rank)
    ssar_hierarchical(
        comm, SparseStream.random_uniform(dimension, nnz, gen), chunks=chunks
    )


def _bench_overlap(
    backends: list[str],
    dimension: int,
    nnz: int,
    nranks: int,
    chunks: int,
    iters: int,
    topology: Topology,
) -> dict[str, Any]:
    """Measured overlap per backend + the tiered-replay prediction.

    ``overlap_fraction`` is ``(blocking - overlapped) / min(compute, comm)``
    on the medians: 1.0 means the entire hideable window was hidden, 0
    means the non-blocking schedule bought nothing. The ``predicted``
    block replays the chunked thread-backend trace under the tiered preset
    and feeds it through :func:`~repro.netsim.replay.overlap_step_time`,
    putting the analytic pipelined makespan next to the measured rows.
    """
    out: dict[str, Any] = {
        "algorithm": "ssar_hier",
        "chunks": chunks,
        "nnz_per_rank": nnz,
        "topology": topology.describe(),
        "per_backend": {},
    }
    for backend in backends:
        res = run_ranks(
            _overlap_rank, nranks, dimension, nnz, chunks, iters,
            backend=backend, timeout=600.0, topology=topology,
        )
        metrics: dict[str, Any] = {
            "compute_reps": max(r["compute_reps"] for r in res.results),
        }
        for key in ("compute_s", "comm_s", "blocking_s", "overlapped_s"):
            # slowest rank per iteration = the op's latency that iteration
            metrics[key] = _stats(
                [max(r[key][i] for r in res.results) for i in range(iters)]
            )
        hideable = min(metrics["compute_s"]["median_s"], metrics["comm_s"]["median_s"])
        saved = metrics["blocking_s"]["median_s"] - metrics["overlapped_s"]["median_s"]
        metrics["overlap_fraction"] = (
            round(saved / hideable, 3) if hideable > 0 else 0.0
        )
        out["per_backend"][backend] = metrics

    trace_run = run_ranks(
        _one_chunked_rank, nranks, dimension, nnz, chunks,
        backend="thread", timeout=600.0, topology=topology,
    )
    comm_pred = replay(trace_run.trace, REPLAY_TIERED, topology=topology).makespan
    first = next(iter(out["per_backend"].values()), None)
    compute_ref = first["compute_s"]["median_s"] if first else 0.0
    out["predicted"] = {
        "replay_tiered_preset": REPLAY_TIERED.name,
        "comm_tiered_s": comm_pred,
        "compute_ref_s": compute_ref,
        "blocking_makespan_s": overlap_step_time(compute_ref, comm_pred, False),
        "pipelined_makespan_s": overlap_step_time(compute_ref, comm_pred, True, chunks),
    }
    return out


# ----------------------------------------------------------------------
# harness entry points
# ----------------------------------------------------------------------
def run_bench(
    quick: bool = False,
    *,
    dimension: int | None = None,
    densities: list[float] | None = None,
    nranks: int | None = None,
    backends: list[str] | None = None,
    algos: list[str] | None = None,
    topology: str | None = None,
    chunks: int = 4,
    layers: list[str] | None = None,
) -> dict[str, Any]:
    """Execute the selected layers and return the JSON-ready document.

    ``topology`` is an ``HxR`` spec for the simulated world the allreduce
    and hierarchy layers run on (it must describe ``nranks`` ranks);
    default is two hosts with the ranks split evenly. ``chunks`` is the
    pipeline depth of the overlap layer's chunked hierarchy; ``layers``
    selects a subset of :data:`LAYERS` (default: all) — omitted layers
    are simply absent from the document.
    """
    layers = list(layers) if layers else list(LAYERS)
    unknown = sorted(set(layers) - set(LAYERS))
    if unknown:
        raise ValueError(f"unknown bench layers {unknown}; choose from {list(LAYERS)}")
    if quick:
        dimension = dimension or (1 << 16)
        densities = densities or [0.01]
        # 4 ranks so the default two-host world is genuinely hierarchical
        # (2 hosts x 2 ranks) and the ssar_hier rows exercise the real
        # tree-reduce/leader/bcast schedule even in the CI smoke pass
        nranks = nranks or 4
        micro_iters, rt_iters, e2e_iters, repeats = 3, 3, 1, 1
        overlap_iters = 3
        rt_sizes = [max(1, dimension // 100)]
    else:
        dimension = dimension or (1 << 20)
        densities = densities or [0.001, 0.01, 0.05]
        nranks = nranks or 4
        micro_iters, rt_iters, e2e_iters, repeats = 30, 40, 15, 3
        overlap_iters = 10
        rt_sizes = [1311, 10486, 41943]  # ~10 KB / ~84 KB / ~335 KB frames
    backends = backends or ["thread", "process", "shmem", "socket"]
    algos = algos or sorted(ALGOS)
    headline_nnz = int(round(dimension * 0.01))
    topo = (
        normalize_topology(topology, nranks)
        if topology is not None
        else _two_host_topology(nranks)
    )

    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "quick": quick,
        "params": {
            "dimension": dimension,
            "densities": densities,
            "nranks": nranks,
            "backends": backends,
            "algorithms": algos,
            "topology": topo.describe(),
            "layers": layers,
            "cpu_count": __import__("os").cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if "microkernels" in layers:
        doc["microkernels"] = _bench_microkernels(dimension, headline_nnz, micro_iters)
    if "transport_roundtrip" in layers:
        doc["transport_roundtrip"] = _bench_transport(
            backends, dimension, rt_sizes, rt_iters
        )
    if "allreduce" in layers:
        doc["allreduce"] = _bench_allreduce(
            backends, algos, dimension, densities, nranks, e2e_iters, repeats, topo
        )
        check = _check_allreduce_ordering(doc["allreduce"])
        check["predicted_network"] = REPLAY_TIERED.name
        doc["allreduce_ordering_check"] = check
        if quick and not check["ok"]:
            raise AssertionError(
                "CostModel vs measured algorithm ordering disagrees beyond the "
                f"tolerance band: {check['violations']}"
            )
    if "hierarchy" in layers:
        doc["hierarchy"] = _bench_hierarchy(algos, dimension, headline_nnz, nranks, topo)
    if "overlap" in layers:
        doc["overlap"] = _bench_overlap(
            backends, dimension, headline_nnz, nranks, chunks, overlap_iters, topo
        )

    # headline comparison: shmem vs process at the reference point
    # (N = 2^20 in full mode, density 1 %): end-to-end per algorithm plus
    # the transport round trip at the closest measured frame size
    headline: dict[str, Any] = {}
    allreduce = doc.get("allreduce", {})
    key = f"density_{0.01:g}"
    if "process" in allreduce and "shmem" in allreduce:
        for algo in algos:
            p = allreduce["process"][algo].get(key)
            s = allreduce["shmem"][algo].get(key)
            if p and s:
                headline[f"e2e_{algo}_speedup_shmem_vs_process"] = round(
                    p["best_s"] / s["best_s"], 3
                )
    transport = doc.get("transport_roundtrip", {})
    if "process" in transport and "shmem" in transport:
        for size_key in transport["process"]:
            p, s = transport["process"][size_key], transport["shmem"][size_key]
            headline[f"transport_{size_key}_speedup_shmem_vs_process"] = round(
                p["median_s"] / s["median_s"], 3
            )
    doc["headline"] = headline
    return doc


def write_bench(doc: dict[str, Any], out_path: str | Path | None = None) -> Path:
    path = Path(out_path) if out_path is not None else DEFAULT_OUT
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    return path


def render_summary(doc: dict[str, Any]) -> str:
    """Human-readable digest of a bench document (for the CLI)."""
    lines = []
    p = doc["params"]
    lines.append(
        f"bench-kernels  N={p['dimension']}  P={p['nranks']}  "
        f"quick={doc['quick']}  cpus={p.get('cpu_count')}"
    )
    mk = doc.get("microkernels")
    if mk:
        lines.append("microkernels (best):")
        for name, st in mk.items():
            if name == "params":
                continue
            lines.append(f"  {name:34s} {st['best_s'] * 1e6:9.1f}us")
    tr = doc.get("transport_roundtrip", {})
    if tr:
        lines.append("transport round trip, 2 ranks (median):")
        sizes = next(iter(tr.values())).keys()
        for size_key in sizes:
            row = "  ".join(
                f"{bk}={tr[bk][size_key]['median_s'] * 1e6:8.1f}us" for bk in tr
            )
            lines.append(f"  {size_key:12s} {row}")
    if doc.get("allreduce"):
        lines.append("allreduce end-to-end (best, per op; predicted in parens):")
        for bk, per_algo in doc["allreduce"].items():
            for algo, per_d in per_algo.items():
                row = "  ".join(
                    f"{dk.split('_', 1)[1]}={st['best_s'] * 1e3:8.2f}ms"
                    + (
                        f" ({st['predicted_s'] * 1e3:.2f}ms)"
                        if "predicted_s" in st
                        else ""
                    )
                    for dk, st in per_d.items()
                )
                lines.append(f"  {bk:8s} {algo:14s} {row}")
        check = doc.get("allreduce_ordering_check")
        if check:
            lines.append(
                f"  ordering check vs {check.get('predicted_network', '?')}: "
                f"{check['pairs_checked']} separated pairs, "
                f"{len(check['violations'])} violations"
            )
    hier = doc.get("hierarchy")
    if hier:
        has_replay = "replay_tiered_preset" in hier  # schema >= 3
        replay_note = (
            f", replay {hier['replay_flat_preset']} flat vs "
            f"{hier['replay_tiered_preset']} tiered"
            if has_replay
            else ""
        )
        lines.append(
            f"byte accounting on {hier['topology']} (inter-node / total{replay_note}):"
        )
        for algo, row in hier["per_algorithm"].items():
            replay_cols = (
                f"  {row['replay_flat_s'] * 1e3:8.2f}ms flat"
                f"  {row['replay_tiered_s'] * 1e3:8.2f}ms tiered"
                if has_replay
                else ""
            )
            lines.append(
                f"  {algo:14s} {row['inter_node_bytes'] / 1e3:9.1f}kB / "
                f"{row['total_bytes'] / 1e3:9.1f}kB{replay_cols}"
            )
    ov = doc.get("overlap")
    if ov:
        lines.append(
            f"overlap ({ov['algorithm']}, chunks={ov['chunks']}, "
            f"{ov['topology']}; median):"
        )
        for bk, m in ov["per_backend"].items():
            lines.append(
                f"  {bk:8s} compute={m['compute_s']['median_s'] * 1e3:7.2f}ms"
                f"  comm={m['comm_s']['median_s'] * 1e3:7.2f}ms"
                f"  blocking={m['blocking_s']['median_s'] * 1e3:7.2f}ms"
                f"  overlapped={m['overlapped_s']['median_s'] * 1e3:7.2f}ms"
                f"  hidden={m['overlap_fraction'] * 100:5.1f}%"
            )
        pred = ov.get("predicted")
        if pred:
            lines.append(
                f"  predicted ({pred['replay_tiered_preset']} tiered):"
                f" blocking={pred['blocking_makespan_s'] * 1e3:7.2f}ms"
                f"  pipelined={pred['pipelined_makespan_s'] * 1e3:7.2f}ms"
            )
    if doc.get("headline"):
        lines.append("headline speedups (shmem vs process):")
        for k, v in doc["headline"].items():
            lines.append(f"  {k:48s} {v:.2f}x")
    return "\n".join(lines)
