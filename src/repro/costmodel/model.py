"""The first-class cost model behind every algorithm decision.

Historically the alpha/beta/gamma reasoning lived in four places that
could silently disagree: the selector's switch-point heuristics, the
analytic bounds (`costmodel/bounds.py`),
the replay presets (`netsim/model.py`) and the Appendix-B fill-in
(`analysis/density.py`). :class:`CostModel` is the one object that owns
all of them: it wraps a network model (flat or tiered), charges compute
at that model's ``gamma``, estimates fill-in with the Appendix-B
expectation, and exposes

* :meth:`CostModel.predict` — a per-algorithm
  :class:`PredictedCost` with the latency / bandwidth / compute split and
  the intra/inter leg decomposition the pipelined makespan needs;
* :meth:`CostModel.rank` — the full §5.3 selection as an inspectable,
  serializable :class:`SelectionReport` listing every candidate's
  predicted time (:meth:`CostModel.choose` is just its choice);
* :meth:`CostModel.auto_chunks` — the pipeline depth minimizing the
  chunked hierarchical makespan ``c + (K-1) max(c, m) + m`` (the
  ``overlap_step_time`` curve) plus ``K-1`` background launches, for
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

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from ..analysis.density import expected_union_size
from ..config import INDEX_BYTES, delta_threshold
from ..netsim.model import (
    TIERED_IB_FDR,
    NetworkModel,
    TieredNetworkModel,
    resolve_network,
)
from ..runtime.topology import Topology, check_topology_size

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
]

#: below this many reduced payload bytes, latency dominates bandwidth and
#: recursive doubling wins (the classic small-message switch point).
SMALL_MESSAGE_BYTES = 64 * 1024

#: the ring's 2 (P-1) alpha latency only amortizes at scale; below this
#: world size the split phase's (P-1) alpha is never worth trading for it.
RING_MIN_RANKS = 8


class Schedule(NamedTuple):
    """What every layer reads about one sparse allreduce schedule: the
    model which closed form and pipeline to price, the plans and
    :func:`~repro.collectives.api.resolve_collective` which knobs it takes."""

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


@dataclass(frozen=True)
class Instance:
    """One allreduce problem shape: ``N``, ``P``, ``k`` (+ itemsize).

    ``expected_k`` is the user's estimate of the reduced size ``K``
    ("we require the user to have some rough idea about K", §5.3);
    ``None`` defers to the uniform Appendix-B fill-in expectation.
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
    def dense_bytes(self) -> float:
        """Bytes of the dense representation of the result."""
        return self.dimension * self.value_itemsize

    @property
    def delta(self) -> float:
        """The sparse-efficiency threshold on ``K`` (paper §4)."""
        return delta_threshold(self.dimension, self.value_itemsize, INDEX_BYTES)

    def fill_in(self, nranks: int | None = None) -> float:
        """Appendix-B ``E[K]`` over ``nranks`` supports (default: all)."""
        p = self.nranks if nranks is None else nranks
        return expected_union_size(self.nnz_per_rank, self.dimension, p)

    def resolved_k(self) -> float:
        """The reduced-size estimate selection runs on."""
        return self.expected_k if self.expected_k is not None else self.fill_in()

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "nranks": self.nranks,
            "nnz_per_rank": self.nnz_per_rank,
            "value_itemsize": self.value_itemsize,
            "expected_k": self.expected_k,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Instance":
        return cls(**d)


@dataclass(frozen=True)
class PredictedCost:
    """One candidate algorithm's predicted wall-clock decomposition.

    ``time_s = latency_s + bandwidth_s + compute_s`` for ``chunks == 1``;
    for a chunked hierarchical run it is the pipelined makespan over the
    ``intra_s`` / ``inter_s`` legs plus the launch price of the extra
    chunks instead (the legs never double-count: ``intra_s + inter_s``
    equals the unchunked total).
    """

    algorithm: str
    time_s: float
    latency_s: float
    bandwidth_s: float
    compute_s: float
    intra_s: float
    inter_s: float
    expected_k: float
    chunks: int = 1
    eligible: bool = True
    note: str = ""
    #: the intra leg's share of ``latency_s`` (the rest is the inter leg's):
    #: with the legs, all the pipelined makespan at any depth needs
    intra_latency_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "time_s": self.time_s,
            "latency_s": self.latency_s,
            "bandwidth_s": self.bandwidth_s,
            "compute_s": self.compute_s,
            "intra_s": self.intra_s,
            "inter_s": self.inter_s,
            "expected_k": self.expected_k,
            "chunks": self.chunks,
            "eligible": self.eligible,
            "note": self.note,
            "intra_latency_s": self.intra_latency_s,
        }

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
        return {
            "instance": self.instance.to_dict(),
            "network": self.network,
            "topology": self.topology,
            "choice": self.choice,
            "reason": self.reason,
            "delta": self.delta,
            "expected_k": self.expected_k,
            "candidates": [c.to_dict() for c in self.candidates],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SelectionReport":
        return cls(
            instance=Instance.from_dict(d["instance"]),
            network=d["network"],
            topology=d["topology"],
            choice=d["choice"],
            reason=d["reason"],
            delta=d["delta"],
            expected_k=d["expected_k"],
            candidates=tuple(PredictedCost.from_dict(c) for c in d["candidates"]),
        )

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
                f"(lat {c.latency_s * 1e6:.1f} bw {c.bandwidth_s * 1e6:.1f} "
                f"cmp {c.compute_s * 1e6:.1f}){note}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _pipelined(intra_s: float, inter_s: float, lat_intra: float,
               lat_inter: float, chunks: int, launch_s: float) -> float:
    """Makespan of ``chunks`` pipelined (intra leg, inter leg) stages.

    Mirrors :func:`repro.netsim.replay.overlap_step_time`: per-chunk leg
    times are the bandwidth/compute shares split ``chunks`` ways plus the
    *full* per-leg latency (alpha is paid per message, so chunking
    multiplies it), and the makespan is ``c + (K-1) max(c, m) + m``. On
    top, every chunk past the first is one more background collective to
    launch and join on the calling thread — ``launch_s`` each, which the
    wire-only curve would hand out for free.
    """
    k = max(1, int(chunks))
    c = lat_intra + (intra_s - lat_intra) / k
    m = lat_inter + (inter_s - lat_inter) / k
    return c + (k - 1) * max(c, m) + m + (k - 1) * launch_s


@dataclass(frozen=True)
class CostModel:
    """Alpha-beta-gamma cost model over a (possibly tiered) network.

    The single object every cost consumer shares: the ``"auto"`` plans
    (:class:`~repro.collectives.api.AllreducePlan` calls :meth:`choose`
    and :meth:`auto_chunks`), the async driver, the sweeps, the repo
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
    def shared_uplink(self) -> bool:
        """Whether co-hosted ranks serialize on one NIC (congestion)."""
        return self.network.shared_uplink if self.tiered else True

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

    # -- shape helpers --------------------------------------------------
    @staticmethod
    def _shape(inst: Instance, topology: "Topology | None") -> tuple[int, int, int]:
        """``(P, H, m)`` — ranks, hosts, max ranks per host."""
        P = inst.nranks
        if topology is not None and topology.is_hierarchical:
            return P, topology.nnodes, min(topology.max_ranks_per_node, P)
        return P, P, 1

    def _congestion(self, m: int) -> int:
        """Transmit-serialization factor on a shared per-host uplink."""
        return m if self.shared_uplink else 1

    # -- per-algorithm predictions --------------------------------------
    def predict(
        self,
        instance: Instance,
        algorithm: str,
        topology: "Topology | None" = None,
        chunks: int = 1,
    ) -> PredictedCost:
        """Predicted wall-clock for one algorithm on one instance.

        ``chunks`` > 1 applies the pipelined makespan to the hierarchical
        algorithms and charges each extra chunk :attr:`launch`; the flat
        algorithms ignore it (as they do at runtime).
        """
        if algorithm not in SCHEDULES:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose from {sorted(SCHEDULES)}"
            )
        if topology is not None:
            check_topology_size(topology, instance.nranks)
        fn = getattr(self, f"_predict_{algorithm}")
        return fn(instance, topology, chunks)

    def _finish(
        self,
        instance: Instance,
        algorithm: str,
        lat_i: float,
        bw_i: float,
        lat_e: float,
        bw_e: float,
        comp: float,
        chunks: int,
        eligible: bool,
        note: str,
    ) -> PredictedCost:
        intra_s = lat_i + bw_i + comp  # compute overlaps with the local leg
        inter_s = lat_e + bw_e
        k = max(1, int(chunks)) if SCHEDULES[algorithm].hierarchical else 1
        if k > 1:
            time_s = _pipelined(intra_s, inter_s, lat_i, lat_e, k, self.launch)
        else:
            time_s = intra_s + inter_s
        return PredictedCost(
            algorithm=algorithm,
            time_s=time_s,
            latency_s=lat_i + lat_e,
            bandwidth_s=bw_i + bw_e,
            compute_s=comp,
            intra_s=intra_s,
            inter_s=inter_s,
            expected_k=instance.resolved_k(),
            chunks=k,
            eligible=eligible,
            note=note,
            intra_latency_s=lat_i,
        )

    def _predict_ssar_rec_dbl(self, inst, topology, chunks) -> PredictedCost:
        P, H, m = self._shape(inst, topology)
        pair = inst.pair_bytes
        rounds = math.ceil(math.log2(P)) if P > 1 else 0
        intra_rounds = min(rounds, math.ceil(math.log2(m))) if m > 1 else 0
        lat_i = bw_i = lat_e = bw_e = comp = 0.0
        cong = self._congestion(m)
        for r in range(rounds):
            nbytes = inst.fill_in(2**r) * pair
            if r < intra_rounds:
                lat_i += self.intra.alpha
                bw_i += self.intra.beta * nbytes
            else:
                # past the host boundary every co-hosted rank exchanges
                # with a remote peer at once -> m transmits per uplink
                lat_e += self.inter.alpha
                bw_e += self.inter.beta * nbytes * cong
            comp += self.gamma * 2 * nbytes  # merge reads both operands
        return self._finish(
            inst, "ssar_rec_dbl", lat_i, bw_i, lat_e, bw_e, comp, chunks,
            eligible=True, note="chunks ignored" if chunks not in (1, "auto") else "",
        )

    def _predict_ssar_split_ag(self, inst, topology, chunks) -> PredictedCost:
        P, H, m = self._shape(inst, topology)
        pair = inst.pair_bytes
        k_bytes = inst.nnz_per_rank * pair
        ek_bytes = inst.resolved_k() * pair
        cong = self._congestion(m)
        lat_i = bw_i = lat_e = bw_e = comp = 0.0
        if P > 1:
            # split phase: (P-1) direct sends of the local stream's slices
            lat_i += (m - 1) * self.intra.alpha
            lat_e += (P - m) * self.inter.alpha
            bw_i += self.intra.beta * k_bytes * (m - 1) / P
            bw_e += self.inter.beta * k_bytes * (P - m) / P * cong
            # sparse allgather of the reduced slices (recursive doubling)
            rounds = math.ceil(math.log2(P))
            intra_rounds = min(rounds, math.ceil(math.log2(m))) if m > 1 else 0
            for r in range(rounds):
                nbytes = min(ek_bytes / P * (2**r), ek_bytes)
                if r < intra_rounds:
                    lat_i += self.intra.alpha
                    bw_i += self.intra.beta * nbytes
                else:
                    lat_e += self.inter.alpha
                    bw_e += self.inter.beta * nbytes * cong
        comp = self.gamma * 2 * (k_bytes + ek_bytes)
        return self._finish(
            inst, "ssar_split_ag", lat_i, bw_i, lat_e, bw_e, comp, chunks,
            eligible=True, note="",
        )

    def _predict_ssar_ring(self, inst, topology, chunks) -> PredictedCost:
        P, H, m = self._shape(inst, topology)
        ek_bytes = inst.resolved_k() * inst.pair_bytes
        lat_e = bw_e = comp = 0.0
        if P > 1:
            # critical path: a host-boundary rank pays every one of its
            # 2(P-1) slice sends at inter rates (one message per uplink
            # per step, so no congestion factor)
            steps = 2 * (P - 1)
            lat_e = steps * self.inter.alpha
            bw_e = self.inter.beta * ek_bytes * steps / P
            comp = self.gamma * 2 * ek_bytes * (P - 1) / P
        return self._finish(
            inst, "ssar_ring", 0.0, 0.0, lat_e, bw_e, comp, chunks,
            eligible=P >= 2,
            note="" if P >= 2 else "needs >= 2 ranks",
        )

    def _predict_ssar_hier(self, inst, topology, chunks) -> PredictedCost:
        P, H, m = self._shape(inst, topology)
        hierarchical = topology is not None and topology.is_hierarchical
        pair = inst.pair_bytes
        ek_bytes = inst.resolved_k() * pair
        lat_i = bw_i = lat_e = bw_e = comp = 0.0
        # intra-host tree reduce: round r sends unions of 2^r supports
        intra_rounds = math.ceil(math.log2(m)) if m > 1 else 0
        for r in range(intra_rounds):
            nbytes = inst.fill_in(2**r) * pair
            lat_i += self.intra.alpha
            bw_i += self.intra.beta * nbytes
            comp += self.gamma * 2 * nbytes
        # leader recursive doubling: round r sends unions of m * 2^r
        leader_rounds = math.ceil(math.log2(H)) if H > 1 else 0
        for r in range(leader_rounds):
            nbytes = inst.fill_in(m * 2**r) * pair
            lat_e += self.inter.alpha
            bw_e += self.inter.beta * nbytes
            comp += self.gamma * 2 * nbytes
        # intra-host binomial broadcast of the reduced result
        lat_i += intra_rounds * self.intra.alpha
        bw_i += intra_rounds * self.intra.beta * ek_bytes
        return self._finish(
            inst, "ssar_hier", lat_i, bw_i, lat_e, bw_e, comp, chunks,
            eligible=hierarchical,
            note="" if hierarchical else "needs a hierarchical topology",
        )

    def _predict_dsar_split_ag(self, inst, topology, chunks) -> PredictedCost:
        P, H, m = self._shape(inst, topology)
        k_bytes = inst.nnz_per_rank * inst.pair_bytes
        dense = inst.dense_bytes
        lat_e = bw_e = 0.0
        if P > 1:
            # flat DSAR: every rank's split slices and (forwarded) dense
            # partitions cross the inter tier; the busiest uplink carries
            # m ranks' share
            lat_e = (P - 1) * self.inter.alpha
            bw_e = self.inter.beta * m * (P - m) / P * (k_bytes + dense)
        comp = self.gamma * (2 * k_bytes + 2 * dense)
        return self._finish(
            inst, "dsar_split_ag", 0.0, 0.0, lat_e, bw_e, comp, chunks,
            eligible=True, note="",
        )

    def _predict_dsar_hier(self, inst, topology, chunks) -> PredictedCost:
        P, H, m = self._shape(inst, topology)
        hierarchical = topology is not None and topology.is_hierarchical
        pair = inst.pair_bytes
        dense = inst.dense_bytes
        k_local_bytes = inst.fill_in(m) * pair
        intra_rounds = math.ceil(math.log2(m)) if m > 1 else 0
        lat_e = bw_e = lat_i = bw_i = 0.0
        if H > 1:
            # hierarchical DSAR: one leader per uplink, merged unions only
            lat_e = (H - 1) * self.inter.alpha
            bw_e = self.inter.beta * (H - 1) / H * (k_local_bytes + dense)
        # plus the intra-host tree reduce and dense broadcast rounds
        lat_i = intra_rounds * 2 * self.intra.alpha
        bw_i = intra_rounds * self.intra.beta * (k_local_bytes + dense)
        comp = self.gamma * (2 * k_local_bytes + 2 * dense)
        return self._finish(
            inst, "dsar_hier", lat_i, bw_i, lat_e, bw_e, comp, chunks,
            eligible=hierarchical,
            note="" if hierarchical else "needs a hierarchical topology",
        )

    # -- selection ------------------------------------------------------
    def rank(self, instance: Instance, topology: "Topology | None" = None) -> SelectionReport:
        """Run the §5.3 selection and report every candidate's cost.

        The decision procedure is the paper's switching heuristic:

        1. ``E[K] > delta`` → dynamic instance → DSAR; on a hierarchical
           topology the flat vs leader-only dense stage is decided by the
           two predicted times (the old two-tier comparison);
        2. otherwise hierarchical topology → ``ssar_hier``;
        3. otherwise reduced payload under the small-message switch point
           → ``ssar_rec_dbl``;
        4. otherwise bandwidth-bound at scale (``P >= RING_MIN_RANKS``
           and per-rank slice above the switch point) → ``ssar_ring``;
        5. otherwise → ``ssar_split_ag``.
        """
        if topology is not None:
            # the launcher-uniform size check: a topology for a different
            # world would feed garbage H/m into the two-tier comparison
            check_topology_size(topology, instance.nranks)
        expected_k = instance.resolved_k()
        delta = instance.delta
        hierarchical = topology is not None and topology.is_hierarchical
        candidates = {
            algo: self.predict(instance, algo, topology)
            for algo in SCHEDULES
        }
        if expected_k > delta:
            if hierarchical and (
                candidates["dsar_hier"].time_s < candidates["dsar_split_ag"].time_s
            ):
                choice = "dsar_hier"
                reason = (
                    f"dynamic instance (E[K]={expected_k:.0f} > delta={delta:.0f}); "
                    "two-tier model favors the leader-only dense stage"
                )
            else:
                choice = "dsar_split_ag"
                reason = (
                    f"dynamic instance (E[K]={expected_k:.0f} > delta={delta:.0f})"
                )
        elif hierarchical:
            choice = "ssar_hier"
            reason = "static-sparse on a hierarchical topology: reduce intra-host first"
        else:
            reduced_bytes = expected_k * instance.pair_bytes
            if reduced_bytes <= SMALL_MESSAGE_BYTES:
                choice = "ssar_rec_dbl"
                reason = (
                    f"latency-bound: reduced payload {reduced_bytes:.0f} B <= "
                    f"{SMALL_MESSAGE_BYTES} B switch point"
                )
            elif (
                instance.nranks >= RING_MIN_RANKS
                and reduced_bytes > SMALL_MESSAGE_BYTES * instance.nranks
            ):
                choice = "ssar_ring"
                reason = "bandwidth-bound at scale: per-rank slice above the switch point"
            else:
                choice = "ssar_split_ag"
                reason = "large static-sparse payload: split + sparse allgather"
        ordered = tuple(
            sorted(candidates.values(), key=lambda c: (not c.eligible, c.time_s))
        )
        return SelectionReport(
            instance=instance,
            network=self.name,
            topology=topology.describe() if topology is not None else "flat",
            choice=choice,
            reason=reason,
            delta=delta,
            expected_k=expected_k,
            candidates=ordered,
        )

    def choose(self, instance: Instance, topology: "Topology | None" = None) -> str:
        """Just the chosen algorithm name (see :meth:`rank`)."""
        return self.rank(instance, topology).choice

    # -- auto-chunking --------------------------------------------------
    def auto_chunks(
        self,
        instance: Instance,
        algorithm: str,
        topology: "Topology | None" = None,
        max_chunks: int = MAX_AUTO_CHUNKS,
    ) -> int:
        """The pipeline depth minimizing the chunked makespan curve.

        The argmin of :meth:`predict`'s ``time_s`` over ``K in [1,
        max_chunks]`` for the hierarchical algorithms (smallest K on ties
        — fewer messages for the same makespan). The curve includes the
        launch price of every extra chunk, so a depth is only bought when
        the overlap it predicts exceeds what launching it costs. The legs
        do not depend on K, so they are predicted once and only the
        makespan composition is re-evaluated per depth. Flat algorithms
        ignore chunking at runtime, so they always get 1.
        """
        if algorithm not in SCHEDULES or not SCHEDULES[algorithm].hierarchical:
            return 1
        one = self.predict(instance, algorithm, topology)
        lat_i = one.intra_latency_s
        lat_e = one.latency_s - lat_i
        times = [one.time_s] + [
            _pipelined(one.intra_s, one.inter_s, lat_i, lat_e, k, self.launch)
            for k in range(2, max(1, max_chunks) + 1)
        ]
        return 1 + times.index(min(times))
