"""The first-class cost model behind every algorithm decision.

:class:`CostModel` wraps a network model (flat or tiered) and prices a
schedule by running it. :meth:`CostModel.predict` records one
thread-backend run of the schedule
:data:`~repro.collectives.api.ALGORITHMS` names — the real schedule,
unmodified — on seeded uniform supports, and returns
:func:`~repro.netsim.replay.replay`'s makespan of that trace under the
model's network and topology. There is no pricing code per schedule: a
schedule registered in :data:`SCHEDULES` and ``ALGORITHMS`` is priced as
soon as it exists, and the model agrees with the replay by construction —
a world without a topology is one host in both.

* **Recording.** The supports are seeded by the instance alone, so every
  rank that prices an instance records the same trace and reads the same
  price (an ``"auto"`` choice must not differ between ranks). At most
  :data:`RECORD_PAIRS` pairs per rank are recorded: a denser instance runs
  at the reduced dimension ``N' = N * RECORD_PAIRS / k``, which keeps its
  density and its partition count, and each message's payload past its
  stream header and each compute charge are scaled back by ``N / N'``.
* **Memo.** Recordings are keyed by (schedule, ``N'``, ``k'`` on a grid of
  :data:`_GRID_BITS` significant bits, ``P``, topology, value itemsize)
  and replays also by dimension and network; both caches are bounded, so
  a plan that re-prices an instance it priced before records nothing.
* **Legs.** A hierarchical schedule's intra leg is what host leader rank
  0 spends in ``hier_local_reduce`` and ``hier_bcast``; the rest of the
  makespan is the inter leg. Their latency shares are the same replay
  with beta and gamma set to 0. :meth:`CostModel.auto_chunks` and
  ``predict(chunks=K)`` compose the legs into the pipelined makespan.

Entry points:

* :meth:`CostModel.predict` — one candidate's :class:`PredictedCost`;
* :meth:`CostModel.rank` — the full §5.3 selection as an inspectable,
  serializable :class:`SelectionReport` pricing every candidate
  (:meth:`CostModel.choose` is just its choice, and prices only what the
  procedure consults: the DSAR pair on hierarchical dynamic instances);
* :meth:`CostModel.auto_chunks` — the pipeline depth minimizing the
  chunked hierarchical makespan plus ``K-1`` background launches, for
  ``chunks="auto"``;
* :meth:`CostModel.resolve` — construction from any network spec,
  including ``"calibrated:<path>"`` models fitted by
  :mod:`repro.costmodel.calibrate`.

The *choice* :meth:`rank` reports follows the paper's §5.3 switching
procedure (delta threshold, small-message switch point, ring scale gate,
two-tier DSAR comparison) — deliberately, so selection stays stable and
explainable — while the per-candidate times give the quantitative
picture those thresholds summarize.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..analysis.density import expected_union_size
from ..config import INDEX_BYTES, STREAM_HEADER_BYTES, delta_threshold
from ..netsim.model import (
    TIERED_IB_FDR,
    NetworkModel,
    TieredNetworkModel,
    resolve_network,
)
from ..netsim.replay import replay
from ..runtime.launcher import run_ranks
from ..runtime.topology import Topology, check_topology_size
from ..runtime.trace import COMPUTE, RECV, SEND, Trace
from ..streams import SparseStream

__all__ = [
    "Instance",
    "PredictedCost",
    "SelectionReport",
    "CostModel",
    "SMALL_MESSAGE_BYTES",
    "RING_MIN_RANKS",
    "Schedule",
    "SCHEDULES",
    "MAX_AUTO_CHUNKS",
    "RECORD_PAIRS",
]

#: below this many reduced payload bytes, latency dominates bandwidth and
#: recursive doubling wins (the classic small-message switch point).
SMALL_MESSAGE_BYTES = 64 * 1024

#: the ring's 2 (P-1) alpha latency only amortizes at scale; below this
#: world size the split phase's (P-1) alpha is never worth trading for it.
RING_MIN_RANKS = 8


class Schedule(NamedTuple):
    """What every layer reads about one sparse allreduce schedule: the
    plans and :func:`~repro.collectives.api.resolve_collective` which knobs
    it takes, the model whether it pipelines and needs a hierarchy."""

    #: its reduced stage is dense (DSAR): it takes the quantizer
    dense: bool
    #: it reduces inside host subgroups first: it takes ``chunks=``
    hierarchical: bool


#: every schedule the model can predict and :meth:`CostModel.rank` can choose.
SCHEDULES = {
    "ssar_rec_dbl": Schedule(dense=False, hierarchical=False),
    "ssar_split_ag": Schedule(dense=False, hierarchical=False),
    "ssar_ring": Schedule(dense=False, hierarchical=False),
    "ssar_hier": Schedule(dense=False, hierarchical=True),
    "dsar_split_ag": Schedule(dense=True, hierarchical=False),
    "dsar_hier": Schedule(dense=True, hierarchical=True),
}

#: upper bound of the ``chunks="auto"`` search; past this depth the
#: per-chunk alpha terms always dominate any further overlap gain.
MAX_AUTO_CHUNKS = 16

#: most pairs per rank one recording holds; a denser instance is recorded
#: at a reduced dimension of the same density (see the module docstring).
RECORD_PAIRS = 2048

#: significant bits of the per-rank nnz a recording is keyed by (a step
#: of at most 1/64 of the value)
_GRID_BITS = 6

#: recordings and replays each cache keeps, least recently used out first
_RECORDINGS = 64
_REPLAYS = 512


def _schedule(algorithm: str) -> Schedule:
    if algorithm not in SCHEDULES:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(SCHEDULES)}"
        )
    return SCHEDULES[algorithm]


@dataclass(frozen=True)
class Instance:
    """One allreduce problem shape: ``N``, ``P``, ``k`` (+ itemsize).

    ``expected_k`` is the user's estimate of the reduced size ``K``
    ("we require the user to have some rough idea about K", §5.3);
    ``None`` defers to the uniform Appendix-B fill-in expectation. It
    steers the §5.3 thresholds; a prediction replays the real union.
    """

    dimension: int
    nranks: int
    nnz_per_rank: float
    value_itemsize: int = 4
    expected_k: float | None = None

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {self.nranks}")
        if not 0 <= self.nnz_per_rank <= self.dimension:
            raise ValueError(
                f"nnz_per_rank must be in [0, {self.dimension}], got {self.nnz_per_rank}"
            )

    @property
    def pair_bytes(self) -> int:
        """Wire bytes per sparse (index, value) pair."""
        return INDEX_BYTES + self.value_itemsize

    @property
    def delta(self) -> float:
        """The sparse-efficiency threshold on ``K`` (paper §4)."""
        return delta_threshold(self.dimension, self.value_itemsize, INDEX_BYTES)

    def fill_in(self) -> float:
        """Appendix-B ``E[K]`` over all ``P`` supports."""
        return expected_union_size(self.nnz_per_rank, self.dimension, self.nranks)

    def resolved_k(self) -> float:
        """The reduced-size estimate selection runs on."""
        return self.expected_k if self.expected_k is not None else self.fill_in()

    def recorded_shape(self) -> tuple[int, int]:
        """``(N', k')``: the dimension and per-rank nnz one recording runs."""
        k = round(self.nnz_per_rank)
        step = 1 << max(0, k.bit_length() - _GRID_BITS)
        k = min(round(k / step) * step, self.dimension)
        if k <= RECORD_PAIRS:
            return self.dimension, k
        return round(self.dimension * RECORD_PAIRS / k), RECORD_PAIRS

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Instance":
        return cls(**d)


@dataclass(frozen=True)
class PredictedCost:
    """One candidate algorithm's predicted wall-clock time and its legs.

    ``time_s`` is the replayed makespan for ``chunks == 1``; for a chunked
    hierarchical run it is the pipelined makespan over the ``intra_s`` /
    ``inter_s`` legs plus the launch price of the extra chunks instead
    (``intra_s + inter_s`` is the unchunked makespan). ``latency_s`` is
    the makespan with beta and gamma at 0, ``intra_latency_s`` its intra
    leg: with the legs, all the pipelined makespan at any depth needs.
    """

    algorithm: str
    time_s: float
    latency_s: float
    intra_s: float
    inter_s: float
    chunks: int = 1
    eligible: bool = True
    note: str = ""
    intra_latency_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PredictedCost":
        return cls(**d)


@dataclass(frozen=True)
class SelectionReport:
    """The full record of one selection: every candidate, the choice, why.

    ``candidates`` are sorted eligible-first then by predicted time. The
    ``choice`` follows the §5.3 switching procedure (see
    :meth:`CostModel.rank`), which coincides with the fastest *eligible*
    candidate on well-separated shapes but is threshold-driven by design.
    Round-trips through ``to_dict``/``from_dict`` (JSON-safe).
    """

    instance: Instance
    network: str
    topology: str
    choice: str
    reason: str
    delta: float
    expected_k: float
    candidates: tuple = field(default_factory=tuple)

    def predicted(self, algorithm: str) -> PredictedCost:
        """The candidate row for ``algorithm`` (KeyError if unknown)."""
        for c in self.candidates:
            if c.algorithm == algorithm:
                return c
        raise KeyError(algorithm)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SelectionReport":
        return cls(**d | {
            "instance": Instance.from_dict(d["instance"]),
            "candidates": tuple(PredictedCost.from_dict(c) for c in d["candidates"]),
        })

    def describe(self) -> str:
        lines = [
            f"instance N={self.instance.dimension} P={self.instance.nranks} "
            f"k={self.instance.nnz_per_rank:g} (E[K]={self.expected_k:.0f}, "
            f"delta={self.delta:.0f}) on {self.network} [{self.topology}]",
            f"choice: {self.choice} — {self.reason}",
        ]
        for c in self.candidates:
            flag = " " if c.eligible else "x"
            note = f"  ({c.note})" if c.note else ""
            lines.append(
                f"  [{flag}] {c.algorithm:<14} {c.time_s * 1e6:12.1f} us "
                f"(lat {c.latency_s * 1e6:.1f} intra {c.intra_s * 1e6:.1f} "
                f"inter {c.inter_s * 1e6:.1f}){note}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _pipelined(intra_s: float, inter_s: float, lat_intra: float,
               lat_inter: float, chunks: int, launch_s: float) -> float:
    """Makespan of ``chunks`` pipelined (intra leg, inter leg) stages.

    A chunk's leg is the leg's full latency (alpha is paid per message,
    so chunking multiplies it) plus its other time split ``chunks`` ways;
    the makespan of a depth-1 software pipeline over them is
    ``c + (K-1) max(c, m) + m``. On top, every chunk past the first is one
    more background collective to launch and join on the calling thread —
    ``launch_s`` each.
    """
    c = lat_intra + (intra_s - lat_intra) / chunks
    m = lat_inter + (inter_s - lat_inter) / chunks
    return c + (chunks - 1) * max(c, m) + m + (chunks - 1) * launch_s


def _run_schedule(comm, schedule, streams):
    return schedule(comm, streams[comm.rank])


@lru_cache(maxsize=_RECORDINGS)
def _record(schedule, dimension: int, nnz: int, nranks: int,
            topology: "Topology | None", itemsize: int) -> Trace:
    """The trace of one thread-backend run of ``schedule`` on ``nranks``
    uniform supports of ``nnz`` pairs each, seeded by the shape alone."""
    dtype = np.dtype(f"f{itemsize}")
    streams = [
        SparseStream.random_uniform(
            dimension, nnz, np.random.default_rng([dimension, nnz, nranks, rank]),
            value_dtype=dtype,
        )
        for rank in range(nranks)
    ]
    return run_ranks(_run_schedule, nranks, schedule, streams, topology=topology).trace


def _scaled(trace: Trace, scale: float) -> Trace:
    """``trace`` recorded at ``N'``, priced at ``N = scale * N'``: each
    message's bytes past the stream header and each compute charge grow
    by ``scale``."""
    if scale == 1.0:
        return trace
    out = Trace(trace.nranks)
    for rank, events in enumerate(trace):
        for ev in events:
            if ev.op in (SEND, RECV):
                nbytes = ev.nbytes
                if nbytes > STREAM_HEADER_BYTES:
                    nbytes = round(STREAM_HEADER_BYTES + (nbytes - STREAM_HEADER_BYTES) * scale)
                record = out.record_send if ev.op == SEND else out.record_recv
                record(rank, ev.peer, ev.tag, ev.seq, nbytes, ev.context)
            elif ev.op == COMPUTE:
                out.record_compute(rank, round(ev.nbytes * scale), ev.label)
            else:
                out.record_mark(rank, ev.label)
    return out


def _latency_only(network):
    """``network`` with every beta and gamma at 0."""
    if isinstance(network, TieredNetworkModel):
        return network.with_(intra=_latency_only(network.intra), inter=_latency_only(network.inter))
    return network.with_(beta=0.0, gamma=0.0)


def _intra_leg(result) -> float:
    """Host leader rank 0's time in the intra-host stages."""
    phases = result.per_rank_phase_times[0]
    return phases.get("hier_local_reduce", 0.0) + phases.get("hier_bcast", 0.0)


@lru_cache(maxsize=_REPLAYS)
def _replayed(schedule, dimension: int, recorded: int, nnz: int, nranks: int,
              topology, itemsize: int, network) -> tuple[float, float, float, float]:
    """``(makespan, intra leg, latency makespan, its intra leg)`` of
    ``schedule``'s run recorded at dimension ``recorded``, priced at ``dimension``."""
    trace = _record(schedule, recorded, nnz, nranks, topology, itemsize)
    timed = replay(_scaled(trace, dimension / recorded), network, topology)
    latency = replay(trace, _latency_only(network), topology)
    return timed.makespan, _intra_leg(timed), latency.makespan, _intra_leg(latency)


@dataclass(frozen=True)
class CostModel:
    """Alpha-beta-gamma cost model over a (possibly tiered) network.

    The single object every cost consumer shares: the ``"auto"`` plans
    (:class:`~repro.collectives.api.AllreducePlan` calls :meth:`choose`
    and :meth:`auto_chunks`), the async driver, the repo
    benchmark (``bench/``'s predicted-vs-measured ``costmodel.*``
    metrics), the netsim replay (which reads :attr:`network`), and
    :class:`repro.costmodel.AdaptiveSelector`.
    """

    network: "NetworkModel | TieredNetworkModel" = TIERED_IB_FDR

    # -- tier accessors -------------------------------------------------
    @property
    def name(self) -> str:
        return self.network.name

    @property
    def tiered(self) -> bool:
        return isinstance(self.network, TieredNetworkModel)

    @property
    def intra(self) -> NetworkModel:
        """The fast (intra-host) tier; the whole model when flat."""
        return self.network.intra if self.tiered else self.network

    @property
    def inter(self) -> NetworkModel:
        """The slow (inter-host) tier; the whole model when flat."""
        return self.network.inter if self.tiered else self.network

    @property
    def gamma(self) -> float:
        return self.network.gamma

    @property
    def launch(self) -> float:
        """Seconds to launch and join one background collective."""
        return self.network.launch

    # -- construction ---------------------------------------------------
    @classmethod
    def resolve(cls, spec) -> "CostModel":
        """A model from any network spec :func:`resolve_network` accepts
        (instance, preset name, ``tiered:...``, ``calibrated:<path>``) —
        or an existing :class:`CostModel`, returned as-is."""
        if isinstance(spec, CostModel):
            return spec
        return cls(resolve_network(spec))

    @classmethod
    def default(cls) -> "CostModel":
        """The canonical tiered cluster (shared memory + InfiniBand)."""
        return cls(TIERED_IB_FDR)

    # -- prediction -----------------------------------------------------
    def predict(
        self,
        instance: Instance,
        algorithm: str,
        topology: "Topology | None" = None,
        chunks: int = 1,
    ) -> PredictedCost:
        """Predicted wall-clock for one algorithm on one instance: the
        replayed makespan of its recorded run (see the module docstring).

        ``chunks`` > 1 applies the pipelined makespan to the hierarchical
        algorithms and charges each extra chunk :attr:`launch`; the flat
        algorithms ignore it (as they do at runtime). Unknown algorithms
        and depths the schedules refuse raise ``ValueError``.
        """
        # collectives.api imports this module
        from ..collectives.api import ALGORITHMS
        from ..collectives.hier import _check_chunks

        schedule = _schedule(algorithm)
        chunks = _check_chunks(chunks)
        if not schedule.hierarchical:
            chunks = 1
        if topology is not None:
            check_topology_size(topology, instance.nranks)
        time_s, intra_s, latency_s, intra_latency_s = _replayed(
            ALGORITHMS[algorithm], instance.dimension, *instance.recorded_shape(),
            instance.nranks, topology, instance.value_itemsize, self.network,
        )
        inter_s = time_s - intra_s
        if chunks > 1:
            time_s = _pipelined(
                intra_s, inter_s, intra_latency_s, latency_s - intra_latency_s,
                chunks, self.launch,
            )
        eligible = not schedule.hierarchical or (
            topology is not None and topology.is_hierarchical
        )
        return PredictedCost(
            algorithm=algorithm,
            time_s=time_s,
            latency_s=latency_s,
            intra_s=intra_s,
            inter_s=inter_s,
            chunks=chunks,
            eligible=eligible,
            note="" if eligible else "needs a hierarchical topology",
            intra_latency_s=intra_latency_s,
        )

    # -- selection ------------------------------------------------------
    def _select(self, instance: Instance, topology: "Topology | None") -> tuple[str, str]:
        """The §5.3 switching procedure's ``(choice, reason)``; it prices
        only the DSAR pair, and only on hierarchical dynamic instances."""
        if topology is not None:
            # the launcher-uniform size check: a topology for a different
            # world would feed garbage host groups into the DSAR comparison
            check_topology_size(topology, instance.nranks)
        expected_k = instance.resolved_k()
        delta = instance.delta
        hierarchical = topology is not None and topology.is_hierarchical
        if expected_k > delta:
            dynamic = f"dynamic instance (E[K]={expected_k:.0f} > delta={delta:.0f})"
            if hierarchical and (
                self.predict(instance, "dsar_hier", topology).time_s
                < self.predict(instance, "dsar_split_ag", topology).time_s
            ):
                return "dsar_hier", f"{dynamic}; two-tier model favors the leader-only dense stage"
            return "dsar_split_ag", dynamic
        if hierarchical:
            return "ssar_hier", "static-sparse on a hierarchical topology: reduce intra-host first"
        reduced_bytes = expected_k * instance.pair_bytes
        if reduced_bytes <= SMALL_MESSAGE_BYTES:
            return "ssar_rec_dbl", (
                f"latency-bound: reduced payload {reduced_bytes:.0f} B <= "
                f"{SMALL_MESSAGE_BYTES} B switch point"
            )
        if (
            instance.nranks >= RING_MIN_RANKS
            and reduced_bytes > SMALL_MESSAGE_BYTES * instance.nranks
        ):
            return "ssar_ring", "bandwidth-bound at scale: per-rank slice above the switch point"
        return "ssar_split_ag", "large static-sparse payload: split + sparse allgather"

    def rank(self, instance: Instance, topology: "Topology | None" = None) -> SelectionReport:
        """Run the §5.3 selection and report every candidate's cost.

        The decision procedure is the paper's switching heuristic:

        1. ``E[K] > delta`` → dynamic instance → DSAR; on a hierarchical
           topology the flat vs leader-only dense stage is decided by the
           two predicted times (the two-tier comparison);
        2. otherwise hierarchical topology → ``ssar_hier``;
        3. otherwise reduced payload under the small-message switch point
           → ``ssar_rec_dbl``;
        4. otherwise bandwidth-bound at scale (``P >= RING_MIN_RANKS``
           and per-rank slice above the switch point) → ``ssar_ring``;
        5. otherwise → ``ssar_split_ag``.
        """
        choice, reason = self._select(instance, topology)
        candidates = [self.predict(instance, algo, topology) for algo in SCHEDULES]
        return SelectionReport(
            instance=instance,
            network=self.name,
            topology=topology.describe() if topology is not None else "flat",
            choice=choice,
            reason=reason,
            delta=instance.delta,
            expected_k=instance.resolved_k(),
            candidates=tuple(sorted(candidates, key=lambda c: (not c.eligible, c.time_s))),
        )

    def choose(self, instance: Instance, topology: "Topology | None" = None) -> str:
        """Just the chosen algorithm name (see :meth:`rank`)."""
        return self._select(instance, topology)[0]

    # -- auto-chunking --------------------------------------------------
    def auto_chunks(
        self,
        instance: Instance,
        algorithm: str,
        topology: "Topology | None" = None,
    ) -> int:
        """The pipeline depth minimizing the chunked makespan curve.

        The argmin of :meth:`predict`'s ``time_s`` over ``K in [1,
        MAX_AUTO_CHUNKS]`` for the hierarchical algorithms (smallest K on
        ties — fewer messages for the same makespan). The curve includes
        the launch price of every extra chunk, so a depth is only bought
        when the overlap it predicts exceeds what launching it costs. The
        legs do not depend on K, so they are predicted once and only the
        makespan composition is re-evaluated per depth. Flat algorithms
        ignore chunking at runtime, so they always get 1; an unknown
        algorithm raises ``ValueError``.
        """
        if not _schedule(algorithm).hierarchical:
            return 1
        one = self.predict(instance, algorithm, topology)
        lat_inter = one.latency_s - one.intra_latency_s
        times = [one.time_s] + [
            _pipelined(one.intra_s, one.inter_s, one.intra_latency_s, lat_inter, k, self.launch)
            for k in range(2, MAX_AUTO_CHUNKS + 1)
        ]
        return 1 + times.index(min(times))
