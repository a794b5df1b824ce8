"""The four benchmark workloads: inputs from a seed, rank programs, oracles.

Every workload runs P = 4 ranks on this 2-core host (see README.md for
why) and names its algorithm explicitly, except ``async_train`` whose
point is the ``"auto"`` path — so a selector change cannot silently
change what the first three measure.

Rank-side code lives here (it runs inside the world); the driver side
that launches worlds and aggregates their reports is ``harness.py``.
"""

from __future__ import annotations

import hashlib
import os
import resource
import time
from dataclasses import dataclass

import numpy as np

from repro.collectives.api import sparse_allreduce
from repro.core import GradientFuser
from repro.costmodel import CostModel, Instance
from repro.mlopt.async_sgd import distributed_sgd_async
from repro.mlopt.datasets import SparseDataset, make_sparse_classification
from repro.mlopt.linear import LogisticRegression
from repro.mlopt.sgd import SGDConfig
from repro.quant import QSGDQuantizer
from repro.runtime.topology import Topology
from repro.runtime.trace import COMPUTE, MARK, SEND
from repro.streams import SparseStream

P = 4
DIMENSION = 1 << 20
WARMUP_STEPS = 3
#: rank 0 re-plans the loop this often, or every MIN_BATCH_STEPS timed
#: steps if those take longer
BATCH_S = 0.25
MIN_BATCH_STEPS = 12
#: trace marks bracketing the measured steps, so that byte and message
#: counts leave out the warm-up and the loop's own agreement traffic
MARK_STEPS = "bench:steps"
MARK_PAUSE = "bench:pause"
#: the two-host map inter-node bytes are counted under, on every workload
HOSTS_2X2 = Topology.from_spec("2x2")


# ----------------------------------------------------------------------
# rank side: the host-speed reference and the timed loop
# ----------------------------------------------------------------------
class HostSpeed:
    """A fixed piece of numpy work, timed between the batches of the loop.

    This host runs every instruction 1.3-2x slower for seconds to tens of
    minutes at a time (README.md, "Noise"). The kernel touches nothing of
    the library, so a change to the library cannot move it; what moves it
    is the host, and every duration the benchmark reports is scaled by
    ``harness.REF_NOMINAL_S / (the round's median pass)``.

    One pass is a sort of 32 Ki keys and a gather from a 4 MB table, about
    0.3 ms: far shorter than a scheduler time slice, so the median pass is
    one that ran undisturbed and reads the CPU's speed, not its queue.
    """

    PASSES = 20  # per batch of the loop, on every rank at once

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.keys = rng.integers(0, 1 << 20, 1 << 15)
        self.table = rng.standard_normal(1 << 20).astype(np.float32)
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(self.PASSES):
            t0 = time.perf_counter()
            np.sort(self.keys)
            self.table[self.keys]
            self.samples.append(time.perf_counter() - t0)


def timed_loop(comm, unit, steps_per_unit: int, budget_s: float, recorder=None) -> dict:
    """Run ``unit()`` back to back for about ``budget_s`` seconds.

    ``unit`` executes ``steps_per_unit`` steps and returns the durations
    of those it could time. Rank 0 sizes every batch (about
    :data:`BATCH_S` of work, or :data:`MIN_BATCH_STEPS` timed steps where
    those take longer) from its own clock and broadcasts the size, so all
    ranks stop after the same step and nobody reads a clock between
    steps. Between batches every rank times the :class:`HostSpeed`
    kernel; that and the planning round sit outside the step marks, the
    step durations and the CPU count. Every batch is reported with the
    CPU time the hypervisor withheld from the host meanwhile, so that the
    driver can tell the batches that ran undisturbed.
    """
    durations: list[float] = []
    batches: list[tuple[int, int, int, float]] = []
    host = HostSpeed()
    spans = _SpanSums(recorder)
    batch = 1
    t_start = time.perf_counter()
    while batch > 0:
        host.sample()
        comm.mark(MARK_STEPS)
        spans.resume()
        timed0, steal0, cpu0 = len(durations), steal_ticks(), time.process_time()
        for _ in range(batch):
            durations.extend(unit())
        cpu_s = time.process_time() - cpu0
        stolen = steal_ticks() - steal0
        spans.pause()
        comm.mark(MARK_PAUSE)
        batches.append((len(durations) - timed0, batch * steps_per_unit, stolen, cpu_s))
        plan = None
        if comm.rank == 0:
            elapsed = time.perf_counter() - t_start
            per_unit = elapsed / sum(b[1] // steps_per_unit for b in batches)
            per_sample = elapsed / max(1, len(durations))
            batch_s = max(BATCH_S, MIN_BATCH_STEPS * per_sample, per_unit)
            plan = 0 if budget_s - elapsed < batch_s / 2 else round(batch_s / per_unit)
        batch = comm.bcast(plan, root=0)
    host.sample()
    report = {
        "durations": np.asarray(durations),
        # per batch: steps timed, steps run (async_train runs more than it
        # can time), steal ticks of the host, CPU seconds of this process
        "batches": np.asarray(batches, dtype=float),
        "host_ref_s": np.asarray(host.samples),
        "loop_wall_s": time.perf_counter() - t_start,
        "pid": os.getpid(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans_main_ns": spans.main,
        "spans_other_ns": spans.other,
    }
    report.update(_count_marked(comm))
    return report


def steal_ticks() -> int:
    """CPU time, summed over the CPUs and in clock ticks, that the
    hypervisor has withheld from this host so far."""
    with open("/proc/stat") as fh:
        # cpu user nice system idle iowait irq softirq steal
        return int(fh.readline().split()[8])


class _SpanSums:
    """Span self time summed over the step batches only, so the loop's own
    agreement traffic is not charged to the workload. Inert untraced."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.main: dict[str, int] = {}
        self.other: dict[str, int] = {}
        if recorder is not None:
            recorder.mark_rank_thread()

    def resume(self) -> None:
        if self.recorder is not None:
            self._before = self.recorder.snapshot()

    def pause(self) -> None:
        if self.recorder is None:
            return
        for sums, before, after in zip(
            (self.main, self.other), self._before, self.recorder.snapshot()
        ):
            for name, ns in after.items():
                sums[name] = sums.get(name, 0) + ns - before.get(name, 0)


def _count_marked(comm) -> dict:
    """Exact counts over this rank's trace events between the step marks."""
    rank = comm.world_rank
    host = HOSTS_2X2.hosts
    counting = False
    sent = messages = inter = reduce_bytes = 0
    for ev in comm.trace.events(rank):
        if ev.op == MARK:
            if ev.label == MARK_STEPS:
                counting = True
            elif ev.label == MARK_PAUSE:
                counting = False
        elif not counting:
            continue
        elif ev.op == SEND:
            sent += ev.nbytes
            messages += 1
            if host[rank] != host[ev.peer]:
                inter += ev.nbytes
        elif ev.op == COMPUTE and ev.label == "reduce":
            reduce_bytes += ev.nbytes
    return {
        "sent_bytes": sent,
        "messages": messages,
        "inter_node_bytes": inter,
        "reduce_bytes": reduce_bytes,
    }


def _digest(arr: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# merge_bound / latency_bound / dense_quant: one sparse allreduce per step
# ----------------------------------------------------------------------
def _allreduce_rank(comm, workload: "AllreduceWorkload", streams, budget_s, recorder):
    stream = streams[comm.rank]
    quantizer = workload.quantizer()
    result = None

    def step() -> list[float]:
        nonlocal result
        t0 = time.perf_counter()
        result = sparse_allreduce(
            comm, stream, algorithm=workload.algorithm, quantizer=quantizer
        )
        return [time.perf_counter() - t0]

    for _ in range(WARMUP_STEPS):
        step()
    comm.barrier()
    report = timed_loop(comm, step, 1, budget_s, recorder)
    dense = result.to_dense()
    report["digest"] = _digest(dense)
    if comm.rank == 0:
        report["result"] = dense  # one copy is enough: the digests pin the rest
    return report


@dataclass(frozen=True)
class AllreduceWorkload:
    name: str
    backend: str
    algorithm: str
    nnz: int
    qsgd_bits: int = 0  # 0 = no quantizer
    qsgd_bucket: int = 512
    topology = None
    program = staticmethod(_allreduce_rank)

    def quantizer(self) -> "QSGDQuantizer | None":
        if not self.qsgd_bits:
            return None
        return QSGDQuantizer(bits=self.qsgd_bits, bucket_size=self.qsgd_bucket, seed=0)

    def inputs(self, seed: int) -> list[SparseStream]:
        return [
            SparseStream.random_uniform(
                DIMENSION, self.nnz, np.random.default_rng([seed, rank])
            )
            for rank in range(P)
        ]

    def check(self, streams, reports) -> "str | None":
        """Dense ``np.add.reduce`` oracle plus cross-rank bit identity."""
        if len({r["digest"] for r in reports}) != 1:
            return "ranks disagree on the reduced vector"
        got = reports[0]["result"].astype(np.float64)
        want = np.add.reduce([s.to_dense().astype(np.float64) for s in streams])
        if not self.qsgd_bits:
            # float32 sums in another association: a few ulp of the operands
            bad = ~np.isclose(got, want, rtol=1e-5, atol=1e-5)
            return f"{int(bad.sum())} entries differ from the dense sum" if bad.any() else None
        # QSGD rounds each entry to one of `levels` steps of its bucket's
        # norm, so no entry may be off by more than one step
        levels = (1 << (self.qsgd_bits - 1)) - 1
        norms = np.sqrt((want.reshape(-1, self.qsgd_bucket) ** 2).sum(axis=1))
        err = np.abs(got - want).reshape(-1, self.qsgd_bucket).max(axis=1)
        bad = err > norms / levels * 1.001 + 1e-6
        return f"{int(bad.sum())} buckets exceed the QSGD error bound" if bad.any() else None

    def dense_shape(self, streams) -> int:
        return DIMENSION

    def predicted_ms(self, streams, reports) -> float:
        cost = CostModel.default().predict(
            Instance(DIMENSION, P, self.nnz, 4), self.algorithm
        )
        return cost.time_s * 1e3


# ----------------------------------------------------------------------
# async_train: the user's path, one short training segment per unit
# ----------------------------------------------------------------------
N_FEATURES = 323_196  # URL at 1/10 scale (Table 1)
NNZ_PER_SAMPLE = 115
BATCH_SIZE = 16
STEPS_PER_EPOCH = 8
EPOCHS = 2  # per segment; the second must end on a lower loss than the first
N_LAYERS = 8
TOPK_PER_512 = 32


def layer_sizes() -> list[tuple[str, int]]:
    """Eight layer-shaped tensors covering the feature space."""
    size = N_FEATURES // N_LAYERS
    sizes = [(f"layer{i}", size) for i in range(N_LAYERS - 1)]
    return sizes + [(f"layer{N_LAYERS - 1}", N_FEATURES - size * (N_LAYERS - 1))]


class ClockedLogistic(LogisticRegression):
    """Records when each gradient is requested: a step is grad to grad."""

    def __init__(self, n_features: int) -> None:
        super().__init__(n_features)
        self.grad_times: list[float] = []

    def grad_stream(self, w, X, y):
        self.grad_times.append(time.perf_counter())
        return super().grad_stream(w, X, y)


def train_segment(comm, dataset: SparseDataset, seed: int, epochs: int = EPOCHS):
    """One fresh training run; returns ``(step durations, history)``."""
    model = ClockedLogistic(dataset.n_features)
    history = distributed_sgd_async(
        comm,
        dataset,
        model,
        SGDConfig(epochs=epochs, batch_size=BATCH_SIZE, lr=0.5, algorithm="auto", seed=seed),
        fuser=GradientFuser(layer_sizes(), min_bucket_bytes=0),
        fuser_k=TOPK_PER_512,
        chunks="auto",
        adaptive=True,
    )
    gaps = np.diff(model.grad_times)
    per_epoch = len(model.grad_times) // epochs
    # the gap across an epoch boundary also holds the full-dataset loss
    # evaluation, which is not a step
    keep = np.ones(gaps.size, dtype=bool)
    keep[per_epoch - 1:: per_epoch] = False
    return gaps[keep].tolist(), history


def _train_rank(comm, workload: "TrainWorkload", inputs, budget_s, recorder):
    dataset, warm, seed = inputs
    train_segment(comm, warm, seed, epochs=1)
    comm.barrier()
    histories = []

    def segment() -> list[float]:
        durations, history = train_segment(comm, dataset, seed)
        histories.append(history)
        return durations

    # a segment's last step of each epoch has no next gradient to time
    # against, but it ran: counts and CPU are per executed step
    report = timed_loop(comm, segment, EPOCHS * STEPS_PER_EPOCH, budget_s, recorder)
    report["digests"] = [_digest(h.params) for h in histories]
    report["losses"] = histories[-1].losses
    report["degraded"] = [h.degraded_rank for h in histories if h.degraded_rank is not None]
    report["switches"] = histories[-1].algorithm_switches
    return report


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    backend: str = "socket"
    topology = "2x2"
    program = staticmethod(_train_rank)

    def inputs(self, seed: int):
        n_samples = P * BATCH_SIZE * STEPS_PER_EPOCH
        dataset = make_sparse_classification(
            n_samples, N_FEATURES, NNZ_PER_SAMPLE, seed=seed,
            powerlaw_exponent=1.15, name="url-like",
        )
        # warm-up trains on the first three batches of every shard
        rows = np.concatenate([
            np.arange(r * n_samples // P, r * n_samples // P + WARMUP_STEPS * BATCH_SIZE)
            for r in range(P)
        ])
        warm = SparseDataset(X=dataset.X[rows], y=dataset.y[rows])
        return dataset, warm, seed

    def check(self, inputs, reports) -> "str | None":
        """Bit-identical params across ranks and segments, loss going down."""
        digests = {d for r in reports for d in r["digests"]}
        if len(digests) != 1:
            return f"params differ across ranks or segments ({len(digests)} variants)"
        if any(r["degraded"] for r in reports):
            return "a rank degraded to local updates"
        losses = reports[0]["losses"]
        if not all(b < a for a, b in zip([np.log(2.0)] + losses, losses)):
            return f"loss did not decrease: {losses}"
        return None

    def dense_shape(self, inputs) -> int:
        return N_FEATURES

    def predicted_ms(self, inputs, reports) -> float:
        """The model's price for one step's eight bucket allreduces."""
        algorithm = reports[0]["switches"][-1]["algorithm"]
        model = CostModel.default()
        total = 0.0
        for _name, size in layer_sizes():
            k = min(size, -(-size // 512) * TOPK_PER_512)
            total += model.predict(Instance(size, P, k, 4), algorithm, HOSTS_2X2).time_s
        return total * 1e3


# why each exists is in BENCHMARK.json, next to its name
WORKLOADS = (
    AllreduceWorkload("merge_bound", backend="thread", algorithm="ssar_rec_dbl", nnz=52_429),
    AllreduceWorkload("latency_bound", backend="socket", algorithm="ssar_rec_dbl", nnz=128),
    AllreduceWorkload(
        "dense_quant", backend="socket", algorithm="dsar_split_ag", nnz=262_144, qsgd_bits=8
    ),
    TrainWorkload("async_train"),
)
BY_NAME = {w.name: w for w in WORKLOADS}
