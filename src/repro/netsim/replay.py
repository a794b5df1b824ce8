"""Dependency-respecting trace replay: executed messages -> predicted time.

Given the per-rank operation logs recorded by the runtime and a
:class:`~repro.netsim.model.NetworkModel`, the replayer computes virtual
per-rank clocks:

* ``send``   — the sender's clock advances by ``alpha`` (injection); the
  message becomes available to its receiver at ``sender_clock + beta * L``;
* ``recv``   — the receiver's clock advances to ``max(clock, arrival)``;
* ``compute``— the rank's clock advances by ``gamma * bytes``;
* ``mark``   — zero-cost phase boundary used for per-phase breakdowns.

This is exactly the accounting the paper uses in §5.3 (e.g. a recursive
doubling stage costs ``alpha + beta*L``; the split fan-out costs
``(P-1)*alpha`` in latency), applied to the *actual* message sizes the
algorithms produced — including representation switches and quantization.

Two-tier replay
---------------
With a :class:`~repro.netsim.model.TieredNetworkModel` and a
:class:`~repro.runtime.topology.Topology`, every message is classified
by the hosts of its (src, dst) ranks: same host -> the intra tier's
alpha/beta, different hosts -> the inter tier's. When the model has
``shared_uplink=True``, inter-host transmissions also serialize on the
source host's egress and destination host's ingress links (one
full-duplex uplink per host): each transmission occupies both uplinks
for ``beta_inter * L`` seconds, starting in the *earliest idle window*
at or after the moment the sender is ready — busy intervals are tracked
explicitly, so a transmission is never delayed by one that could only
start after it finished, regardless of the order the replayer happens to
process ranks in. That is the §6 congestion effect hierarchical
collectives exist to avoid — ``m`` ranks funnelling unions through one
NIC pay ``m`` transmit times where a single leader pays one. An
uncontended message costs ``alpha + beta*L`` exactly, so replay under a
plain :class:`NetworkModel` (or equal tiers with
``shared_uplink=False``) is unchanged by the tiered machinery.

The replay is deterministic: matching uses the (src, dst, context, tag,
seq) FIFO keys recorded at execution time, so thread scheduling during the real run
cannot change the replayed time. Scheduling is readiness-driven — a rank
leaves the run queue only when it stalls on a not-yet-posted arrival and
re-enters when the matching send is replayed — so a trace replays in
``O(events + stalls)`` work rather than rescanning every rank per pass
(:attr:`ReplayResult.rank_activations` exposes the scheduling count as a
regression canary).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
from heapq import merge
from operator import itemgetter

from ..runtime.topology import Topology, normalize_topology
from ..runtime.trace import COMPUTE, MARK, RECV, SEND, Trace
from .model import NetworkModel, TieredNetworkModel

__all__ = ["ReplayResult", "replay", "ReplayDeadlockError", "overlap_step_time"]


class ReplayDeadlockError(RuntimeError):
    """The trace contains a receive with no matching send."""


_end = itemgetter(1)


def _reserve_uplinks(
    egress: list[tuple[float, float]],
    ingress: list[tuple[float, float]],
    ready: float,
    duration: float,
) -> float:
    """Book the earliest window of ``duration`` free on *both* uplinks at
    or after ``ready``; returns its start time.

    Busy intervals are kept sorted, so the search is independent of the
    order the replayer processed the reserving sends in: a transmission
    slots into any idle window it would physically have fit into, and is
    never pushed behind one that starts after it could have completed.
    """
    if duration <= 0.0:
        return ready  # zero-byte messages occupy no uplink time
    start = ready
    # both lists are insort-maintained, so a lazy linear merge visits the
    # combined intervals in start order; a list's intervals are disjoint,
    # so its ends are sorted too and every one that ended by ``ready`` is
    # skipped by bisection
    for a, b in merge(
        egress[bisect_right(egress, ready, key=_end):],
        ingress[bisect_right(ingress, ready, key=_end):],
    ):
        if a >= start + duration:
            break  # intervals are start-sorted: nothing later can overlap
        if b > start:
            start = b
    insort(egress, (start, start + duration))
    insort(ingress, (start, start + duration))
    return start


@dataclass
class ReplayResult:
    """Predicted timing of one replayed trace."""

    finish_times: list[float]
    phase_times: dict[str, float]
    per_rank_phase_times: list[dict[str, float]]
    total_bytes: int
    total_messages: int
    #: number of rank scheduling activations the replay needed; bounded by
    #: ``nranks + number of recv stalls`` (a quadratic-rescan canary).
    rank_activations: int = 0

    @property
    def makespan(self) -> float:
        """Completion time of the slowest rank — the collective's runtime."""
        return max(self.finish_times) if self.finish_times else 0.0

    def phase(self, label: str) -> float:
        """Max-over-ranks time spent in a labelled phase."""
        return self.phase_times.get(label, 0.0)


def replay(
    trace: Trace,
    model: "NetworkModel | TieredNetworkModel",
    topology: "Topology | str | int | None" = None,
) -> ReplayResult:
    """Replay ``trace`` under ``model`` and return predicted times.

    Parameters
    ----------
    trace:
        The per-rank operation logs of one executed run.
    model:
        A flat :class:`NetworkModel` (uniform link cost — numerically
        identical to the historical replayer) or a
        :class:`TieredNetworkModel` charging each message by the tier its
        (src, dst) pair crosses.
    topology:
        Rank -> host map classifying links for tiered models (anything
        :func:`~repro.runtime.topology.normalize_topology` accepts, e.g.
        ``"2x4"``). Defaults to a flat single-host world, under which a
        tiered model charges everything at intra rates. Validated against
        ``trace.nranks`` for flat models too.

    Raises
    ------
    ReplayDeadlockError
        If the log is causally incomplete (a recv whose matching send never
        appears), which indicates a bug in the traced algorithm.
    """
    # a CostModel (repro.costmodel) replays under the network it wraps —
    # duck-typed so netsim stays import-independent of the costmodel layer
    model = getattr(model, "network", model)
    nranks = trace.nranks
    # built once per rank: a stalled rank re-reads its current event
    events = [list(trace.events(r)) for r in range(nranks)]
    pointers = [0] * nranks
    clocks = [0.0] * nranks
    arrivals: dict[tuple, float] = {}
    labels = [""] * nranks
    per_rank_phase: list[dict[str, float]] = [dict() for _ in range(nranks)]

    tiered = isinstance(model, TieredNetworkModel)
    topo = normalize_topology(topology, nranks)
    hosts: tuple[str, ...] | None = None
    if tiered:
        hosts = (topo if topo is not None else Topology.flat(nranks)).hosts
        intra, inter = model.intra, model.inter
        shared = model.shared_uplink
        # per-host uplink busy intervals, one list per direction
        egress: dict[str, list[tuple[float, float]]] = {}
        ingress: dict[str, list[tuple[float, float]]] = {}
    gamma = model.gamma

    def charge(rank: int, dt: float) -> None:
        clocks[rank] += dt
        label = labels[rank]
        if label:
            bucket = per_rank_phase[rank]
            bucket[label] = bucket.get(label, 0.0) + dt

    remaining = sum(len(e) for e in events)
    # readiness-driven scheduling: every rank runs until it stalls on a
    # pending arrival; the matching send re-activates exactly that rank.
    ready: deque[int] = deque(range(nranks))
    waiting: dict[tuple, int] = {}
    activations = 0
    while ready:
        rank = ready.popleft()
        activations += 1
        ptr = pointers[rank]
        lst = events[rank]
        while ptr < len(lst):
            ev = lst[ptr]
            if ev.op == SEND:
                key = (rank, ev.peer, ev.context, ev.tag, ev.seq)
                if hosts is None:
                    charge(rank, model.alpha)
                    arrival = clocks[rank] + model.beta * ev.nbytes
                else:
                    same = hosts[rank] == hosts[ev.peer]
                    tier = intra if same else inter
                    charge(rank, tier.alpha)
                    if same or not shared:
                        arrival = clocks[rank] + tier.beta * ev.nbytes
                    else:
                        # both uplinks reserved over one transmit window so
                        # the uncontended cost stays exactly alpha + beta*L
                        start = _reserve_uplinks(
                            egress.setdefault(hosts[rank], []),
                            ingress.setdefault(hosts[ev.peer], []),
                            clocks[rank],
                            tier.beta * ev.nbytes,
                        )
                        arrival = start + tier.beta * ev.nbytes
                arrivals[key] = arrival
                waiter = waiting.pop(key, None)
                if waiter is not None:
                    ready.append(waiter)
            elif ev.op == RECV:
                key = (ev.peer, rank, ev.context, ev.tag, ev.seq)
                if key not in arrivals:
                    waiting[key] = rank  # stalled: re-activated by the send
                    break
                arrival = arrivals.pop(key)
                if arrival > clocks[rank]:
                    charge(rank, arrival - clocks[rank])
            elif ev.op == COMPUTE:
                charge(rank, gamma * ev.nbytes)
            elif ev.op == MARK:
                labels[rank] = ev.label
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown trace op {ev.op!r}")
            ptr += 1
            remaining -= 1
        pointers[rank] = ptr

    if remaining:
        stuck = [
            (r, events[r][pointers[r]])
            for r in range(nranks)
            if pointers[r] < len(events[r])
        ]
        raise ReplayDeadlockError(
            f"replay stalled with unmatched receives: {stuck[:4]}"
        )

    phase_times: dict[str, float] = {}
    for bucket in per_rank_phase:
        for label, t in bucket.items():
            phase_times[label] = max(phase_times.get(label, 0.0), t)

    return ReplayResult(
        finish_times=clocks,
        phase_times=phase_times,
        per_rank_phase_times=per_rank_phase,
        total_bytes=trace.total_bytes_sent,
        total_messages=trace.total_messages,
        rank_activations=activations,
    )


def overlap_step_time(
    compute_s: float, comm_s: float, nonblocking: bool, chunks: int = 1
) -> float:
    """Per-step time with or without computation/communication overlap.

    With non-blocking collectives (paper §7) communication hides behind
    computation, so a training step costs ``max``; blocking steps cost the
    sum.

    ``chunks > 1`` models the *chunked* hierarchical schedule
    (``ssar_hier``/``dsar_hier`` with ``chunks=K``): the step is split into
    K equal pieces whose communication overlaps the *next* piece's
    computation (a depth-1 software pipeline). The first piece's compute
    and the last piece's communication cannot be hidden, so the makespan is
    ``c + (K-1) * max(c, m) + m`` with ``c = compute_s / K`` and
    ``m = comm_s / K`` — approaching ``max(compute_s, comm_s)`` from above
    as K grows, which is the ``chunks=1`` non-blocking idealisation. With
    ``nonblocking=False`` chunking buys nothing (every piece is joined
    immediately) and the cost stays the sum.
    """
    if compute_s < 0 or comm_s < 0:
        raise ValueError("times must be non-negative")
    if isinstance(chunks, bool) or not isinstance(chunks, int):
        raise TypeError(f"chunks must be an int, got {chunks!r}")
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    if not nonblocking:
        return compute_s + comm_s
    if chunks == 1:
        return max(compute_s, comm_s)
    c, m = compute_s / chunks, comm_s / chunks
    return c + (chunks - 1) * max(c, m) + m
