"""Per-layer metrics of the traced run, measured from benchmark-side code.

Two kinds. *Attribution* metrics split the measured workload's own step
into layers, from the span recorder and the trace counts of one traced
round. *Reference* metrics time one layer's public functions in
isolation at the shapes the workloads use; they read the same whichever
workload is being traced, which is what lets a change in one be matched
against the attribution of the workload it should move. Together they take
about 8 s, so every traced run measures them afresh: a cache shared between
runs would go stale with the first change to the code.

:data:`TARGETS` names, for every per-layer metric of ``BENCHMARK.json``
(which holds their units and directions), the end-to-end metric and
workload it is expected to move.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro import run_ranks
from repro.collectives.api import dense_allreduce, resolve_collective, sparse_allreduce
from repro.core import ErrorFeedback, GradientFuser
from repro.costmodel import AdaptiveSelector, CostModel, Instance
from repro.mlopt.linear import LogisticRegression
from repro.mlopt.sgd import SGDConfig, distributed_sgd
from repro.runtime import available_backends, i_collective
from repro.runtime.wire import decode_message, encode_message
from repro.streams import SparseStream

from harness import OP_TIMEOUT_S, STALL_FACTOR, Round, run_round
from workloads import (
    BATCH_SIZE,
    BY_NAME,
    DIMENSION,
    HOSTS_2X2,
    N_FEATURES,
    TOPK_PER_512,
    ClockedLogistic,
    P,
    layer_sizes,
)

_TRANSPORTS = ("process", "shmem", "socket")
_SAME = "same"  # the workload being traced
_NONE = "none"  # a reference that no change should move

#: per-layer metric -> (end-to-end metric it should move, on which workload)
TARGETS: dict[str, tuple[str, str]] = {
    # attribution: the traced workload's own step, split into layers
    "untraced_step_ms_p50": ("step_ms_p50", _SAME),
    "tracing_overhead": ("step_ms_p50", _SAME),
    "runtime.comm_ms_per_step": ("step_ms_p50", _SAME),
    "runtime.comm_hidden_ms_per_step": ("cpu_ms_per_step", "async_train"),
    "runtime.nonblocking.wait_ms_per_step": ("step_ms_p50", "async_train"),
    "runtime.wire_ms_per_step": ("cpu_ms_per_step", "latency_bound"),
    "collectives.local_ms_per_step": ("step_ms_p50", _SAME),
    "unaccounted_frac": ("step_ms_p50", _SAME),
    "streams.merge_ms_per_step": ("step_ms_p50", "merge_bound"),
    "streams.split_ms_per_step": ("step_ms_p50", "dense_quant"),
    "streams.densify_ms_per_step": ("step_ms_p50", "dense_quant"),
    "quant.quantize_ms_per_step": ("step_ms_p50", "dense_quant"),
    "quant.dequantize_ms_per_step": ("step_ms_p50", "dense_quant"),
    "core.select_ms_per_step": ("step_ms_p50", "async_train"),
    "core.fuse_launch_ms_per_step": ("step_ms_p50", "async_train"),
    "costmodel.resolve_ms_per_step": ("step_ms_p50", "async_train"),
    "mlopt.grad_ms_per_step": ("step_ms_p50", "async_train"),
    "collectives.messages_per_step": ("step_ms_p50", "latency_bound"),
    "collectives.inter_node_bytes_per_step": ("wire_bytes_per_step", "async_train"),
    "collectives.reduce_bytes_per_step": ("cpu_ms_per_step", "merge_bound"),
    "collectives.dense_baseline_ms": ("step_ms_p50", _NONE),
    "costmodel.predicted_ms": ("step_ms_p50", _NONE),
    "costmodel.residual_ratio": ("step_ms_p50", _SAME),
    # reference blocks: one layer alone, at the workloads' shapes
    "runtime.wire.encode_us_1k": ("step_ms_p50", "latency_bound"),
    "runtime.wire.decode_us_1k": ("step_ms_p50", "latency_bound"),
    "runtime.wire.encode_us_512k": ("step_ms_p50", "dense_quant"),
    "runtime.wire.decode_us_512k": ("step_ms_p50", "dense_quant"),
    **{
        f"runtime.{backend}.{name}": target
        for backend in _TRANSPORTS
        for name, target in (
            ("rtt_us_1k", ("step_ms_p50", "latency_bound")),
            ("rtt_us_84k", ("step_ms_p50", "async_train")),
            ("rtt_us_1m", ("step_ms_p50", "dense_quant")),
            ("stall_count_1k", ("step_ms_p90", "latency_bound")),
            ("launch_s", ("setup_s", _SAME)),
        )
    },
    "runtime.nonblocking.launch_us": ("step_ms_p50", "async_train"),
    "runtime.nonblocking.chunk_ratio": ("step_ms_p50", "async_train"),
    "costmodel.resolve_us": ("step_ms_p50", "async_train"),
    "costmodel.rank_us": ("step_ms_p50", "async_train"),
    "costmodel.adaptive_step_us": ("step_ms_p50", "async_train"),
    "quant.quantize_ms": ("step_ms_p50", "dense_quant"),
    "quant.dequantize_ms": ("step_ms_p50", "dense_quant"),
    "core.select_ms": ("step_ms_p50", "async_train"),
    "core.fuse_launch_ms": ("step_ms_p50", "async_train"),
    "mlopt.grad_ms": ("step_ms_p50", "async_train"),
    "mlopt.sync_step_ms": ("step_ms_p50", _NONE),
    "mlopt.single_worker_step_ms": ("step_ms_p50", _NONE),
    "mlopt.final_loss": ("step_ms_p50", _NONE),
}


# ----------------------------------------------------------------------
# attribution: one traced round of the workload itself
# ----------------------------------------------------------------------
def attribution(workload, inputs, untraced: Round, traced: Round) -> dict[str, float]:
    """Split the traced round's step into layers, on the critical rank.

    The critical rank is the one that spent least time inside comm calls:
    every other rank's surplus is time spent waiting for it. Durations are
    at nominal host speed, like the end-to-end metrics they add up to.
    """
    def ms(ns: float) -> float:
        return ns / 1e6 / traced.executed / traced.slowdown

    def on_path(report) -> int:  # blocked in comm or joining a background collective
        spans = report["spans_main_ns"]
        return spans.get("comm", 0) + spans.get("wire", 0) + spans.get("wait", 0)

    critical = min(traced.reports, key=on_path)
    main, other = critical["spans_main_ns"], critical["spans_other_ns"]

    def everywhere(name: str) -> float:
        return ms(main.get(name, 0) + other.get(name, 0))

    step_ms = float(critical["durations"].sum()) * 1e3 / traced.steps / traced.slowdown
    comm_ms = ms(on_path(critical))
    untraced_p50, traced_p50 = (float(np.median(r.step_samples_ms)) for r in (untraced, traced))
    totals = {
        key: sum(r[key] for r in traced.reports) / traced.executed
        for key in ("messages", "inter_node_bytes", "reduce_bytes")
    }
    predicted_ms = workload.predicted_ms(inputs, traced.reports)
    return {
        "untraced_step_ms_p50": untraced_p50,
        "tracing_overhead": traced_p50 / untraced_p50,
        "runtime.comm_ms_per_step": comm_ms,
        "runtime.comm_hidden_ms_per_step": ms(other.get("comm", 0)),
        "runtime.nonblocking.wait_ms_per_step": ms(main.get("wait", 0)),
        "runtime.wire_ms_per_step": everywhere("wire"),
        "collectives.local_ms_per_step": step_ms - comm_ms,
        "unaccounted_frac": (step_ms - ms(sum(main.values()))) / step_ms,
        "streams.merge_ms_per_step": everywhere("merge"),
        "streams.split_ms_per_step": everywhere("split"),
        "streams.densify_ms_per_step": everywhere("densify"),
        "quant.quantize_ms_per_step": everywhere("quantize"),
        "quant.dequantize_ms_per_step": everywhere("dequantize"),
        "core.select_ms_per_step": everywhere("select"),
        "core.fuse_launch_ms_per_step": everywhere("fuse_launch"),
        "costmodel.resolve_ms_per_step": everywhere("resolve"),
        "mlopt.grad_ms_per_step": everywhere("grad"),
        "collectives.messages_per_step": totals["messages"],
        "collectives.inter_node_bytes_per_step": totals["inter_node_bytes"],
        "collectives.reduce_bytes_per_step": totals["reduce_bytes"],
        "costmodel.predicted_ms": predicted_ms,
        "costmodel.residual_ratio": untraced_p50 / predicted_ms,
    }


# ----------------------------------------------------------------------
# reference blocks: one layer at a time
# ----------------------------------------------------------------------
def _samples(fn, iters: int, warmup: int = 2) -> list[float]:
    """Seconds of each of ``iters`` calls of ``fn()`` after a warm-up."""
    samples = []
    for i in range(warmup + iters):
        t0 = time.perf_counter()
        fn()
        if i >= warmup:
            samples.append(time.perf_counter() - t0)
    return samples


def _median(fn, iters: int, warmup: int = 2) -> float:
    return statistics.median(_samples(fn, iters, warmup))


def _dense_rank(comm, dimension: int) -> list[float]:
    vec = np.random.default_rng(comm.rank).standard_normal(dimension).astype(np.float32)
    return _samples(lambda: dense_allreduce(comm, vec), 8)


def dense_baseline(workload, inputs) -> dict[str, float]:
    """The paper's comparison: a dense allreduce at the workload's N, P, backend."""
    res = run_ranks(
        _dense_rank, P, workload.dense_shape(inputs),
        backend=workload.backend, topology=workload.topology,
        timeout=120.0, op_timeout=OP_TIMEOUT_S,
    )
    slowest = np.max(list(res.results), axis=0)
    return {"collectives.dense_baseline_ms": statistics.median(slowest) * 1e3}


def _stream(nnz: int, seed: int = 0) -> SparseStream:
    return SparseStream.random_uniform(DIMENSION, nnz, np.random.default_rng(seed))


def wire_block() -> dict[str, float]:
    out = {}
    for label, nnz in (("1k", 128), ("512k", 65_536)):
        stream = _stream(nnz)
        blob = encode_message(7, 0, stream.comm_nbytes(), stream)
        out[f"runtime.wire.encode_us_{label}"] = 1e6 * _median(
            lambda: encode_message(7, 0, stream.comm_nbytes(), stream), 200
        )
        out[f"runtime.wire.decode_us_{label}"] = 1e6 * _median(lambda: decode_message(blob), 200)
    return out


#: ping-pong sizes (label, nnz, round trips): 8 bytes per pair on the wire
_PINGPONG = (("1k", 128, 5000), ("84k", 10_486, 300), ("1m", 131_072, 60))


def _pingpong_rank(comm) -> dict[str, list[float]]:
    peer = 1 - comm.rank
    out = {}
    for label, nnz, trips in _PINGPONG:
        stream = _stream(nnz)

        def round_trip() -> None:
            if comm.rank == 0:
                comm.send(stream, peer, tag=2)
                comm.recv(peer, tag=2)
            else:
                comm.recv(peer, tag=2)
                comm.send(stream, peer, tag=2)

        out[label] = _samples(round_trip, trips, warmup=3)
    return out


def _noop_rank(comm) -> None:
    return None


def transport_block(notes: list[str]) -> dict[str, float]:
    """Ping-pong through ``comm.send/recv`` and a no-op world, per backend."""
    out = {}
    for backend in _TRANSPORTS:
        if backend not in available_backends():
            notes.append(f"backend {backend} is not available; its metrics read 0")
            continue
        res = run_ranks(_pingpong_rank, 2, backend=backend, timeout=120.0, op_timeout=OP_TIMEOUT_S)
        for label, _nnz, _trips in _PINGPONG:
            out[f"runtime.{backend}.rtt_us_{label}"] = 1e6 * statistics.median(res[0][label])
        small = np.asarray(res[0]["1k"])
        out[f"runtime.{backend}.stall_count_1k"] = float(
            (small > STALL_FACTOR * np.median(small)).sum()
        )
        out[f"runtime.{backend}.launch_s"] = _median(
            lambda: run_ranks(_noop_rank, P, backend=backend, timeout=60.0), 3, warmup=0
        )
    return out


def _socket_world_rank(comm) -> dict[str, float]:
    """Launch, chunking, selection and fusion costs on the socket 2x2 world."""
    latency = BY_NAME["latency_bound"]
    small = _stream(latency.nnz, seed=comm.rank)
    blocking = _median(lambda: sparse_allreduce(comm, small, algorithm=latency.algorithm), 300)
    launched = _median(
        lambda: i_collective(comm, small, algorithm=latency.algorithm).wait(), 300
    )
    one_percent = _stream(DIMENSION // 100, seed=comm.rank)
    chunked = {
        k: _median(lambda: sparse_allreduce(comm, one_percent, "ssar_hier", chunks=k), 20)
        for k in (1, 4)
    }
    resolve = _median(lambda: resolve_collective(comm, small, "auto"), 200)
    selector = AdaptiveSelector(dimension=DIMENSION)
    adaptive = _median(lambda: selector.step(comm, small.nnz), 200)

    fuser = GradientFuser(layer_sizes(), min_bucket_bytes=0)
    feedback = fuser.make_error_feedback(TOPK_PER_512)
    grad = np.random.default_rng(comm.rank).standard_normal(N_FEATURES).astype(np.float32)
    launches = []
    for _ in range(6):
        t0 = time.perf_counter()
        pending = fuser.i_fused_allreduce(comm, grad, feedback, algorithm="ssar_hier")
        launches.append(time.perf_counter() - t0)
        pending.wait()
    return {
        "runtime.nonblocking.launch_us": 1e6 * (launched - blocking),
        "runtime.nonblocking.chunk_ratio": chunked[4] / chunked[1],
        "costmodel.resolve_us": 1e6 * resolve,
        "costmodel.adaptive_step_us": 1e6 * adaptive,
        "core.fuse_launch_ms": 1e3 * statistics.median(launches[1:]),
    }


def socket_world_block() -> dict[str, float]:
    res = run_ranks(
        _socket_world_rank, P, backend="socket", topology="2x2",
        timeout=120.0, op_timeout=OP_TIMEOUT_S,
    )
    return res[0]


def local_block(dataset) -> dict[str, float]:
    """Kernels that need no world: quantizer, selection, cost model, gradient."""
    part = np.random.default_rng(0).standard_normal(DIMENSION // P).astype(np.float32)
    quantizer = BY_NAME["dense_quant"].quantizer()
    block = quantizer.quantize(part)
    bucket = layer_sizes()[0][1]
    feedback = ErrorFeedback(bucket, TOPK_PER_512, 512)
    segment = np.random.default_rng(1).standard_normal(bucket).astype(np.float32)
    model = CostModel.default()
    instance = Instance(DIMENSION, P, DIMENSION // 100, 4)
    logistic = LogisticRegression(dataset.n_features)
    w = np.zeros(dataset.n_features)
    X, y = dataset.X[: BATCH_SIZE], dataset.y[: BATCH_SIZE]
    return {
        "quant.quantize_ms": 1e3 * _median(lambda: quantizer.quantize(part), 10),
        "quant.dequantize_ms": 1e3 * _median(lambda: quantizer.dequantize(block), 10),
        "core.select_ms": 1e3 * _median(lambda: feedback.select(segment), 30),
        "costmodel.rank_us": 1e6 * _median(lambda: model.rank(instance, HOSTS_2X2), 100),
        "mlopt.grad_ms": 1e3 * _median(lambda: logistic.grad_stream(w, X, y), 50),
    }


def _sync_rank(comm, dataset, seed: int) -> tuple[list[float], float]:
    model = ClockedLogistic(dataset.n_features)
    config = SGDConfig(epochs=1, batch_size=BATCH_SIZE, lr=0.5, algorithm="auto", seed=seed)
    history = distributed_sgd(comm, dataset, model, config)
    return np.diff(model.grad_times).tolist(), history.final_loss


def mlopt_block(inputs) -> dict[str, float]:
    """Blocking and single-worker runs of the async_train task, and the
    async run's final loss (which must repeat exactly for a fixed seed)."""
    dataset, _warm, seed = inputs
    sync = run_ranks(
        _sync_rank, P, dataset, seed, backend="socket", topology="2x2",
        timeout=120.0, op_timeout=OP_TIMEOUT_S,
    )
    single = run_ranks(_sync_rank, 1, dataset, seed, backend="thread", timeout=120.0)
    once = run_round(BY_NAME["async_train"], inputs, budget_s=0.0)
    if once.error is not None:
        raise RuntimeError(f"async_train segment: {once.error}")
    return {
        "mlopt.sync_step_ms": 1e3 * statistics.median(np.max([r[0] for r in sync.results], axis=0)),
        "mlopt.single_worker_step_ms": 1e3 * statistics.median(single[0][0]),
        "mlopt.final_loss": once.reports[0]["losses"][-1],
    }
