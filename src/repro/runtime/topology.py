"""Network topology descriptors: which host every rank lives on.

SparCML's large-scale results (§6) come from clusters where the
intra-node and inter-node links differ by an order of magnitude, and the
algorithm-selection logic of §5.3 presumes the runtime can exploit that.
A :class:`Topology` is the minimal description the collectives need: one
host label per rank. From it derive the host *groups* (ranks sharing a
machine), the per-host *leaders* (lowest rank on each host) and the
hierarchy tests the selector and
:func:`~repro.collectives.hier.ssar_hierarchical` use.

Where a topology comes from
---------------------------
* the **socket backend** derives one automatically from the rendezvous
  address map — every rank registers ``(rank, host, port)``, so the host
  column *is* the topology (``comm.topology`` on every socket
  communicator);
* the other backends share one kernel, so a run that wants to *simulate*
  a multi-host world passes an explicit spec to
  :func:`~repro.runtime.run_ranks`::

      run_ranks(fn, 8, topology="2x4")       # 2 hosts x 4 ranks
      run_ranks(fn, 8, topology=2)           # ... ranks per node
      run_ranks(fn, 8, topology=Topology(("a","a","a","a","b","b","b","b")))

* sub-communicators restrict the parent topology to their members, so
  hierarchical algorithms compose under :meth:`Communicator.split`.

Byte accounting by tier (:func:`inter_node_bytes`) classifies trace
traffic into intra-host and cross-host volume — the number hierarchical
collectives exist to shrink.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .trace import SEND, Trace

__all__ = [
    "Topology",
    "normalize_topology",
    "check_topology_size",
    "inter_node_bytes",
    "bytes_by_tier",
]


@dataclass(frozen=True)
class Topology:
    """One host label per rank (``hosts[rank]`` is where that rank runs).

    Immutable and hashable; all derived views are cached. Host labels are
    opaque strings — equality is what groups ranks, nothing else.
    """

    hosts: tuple[str, ...]

    def __post_init__(self) -> None:
        # canonicalize first (a one-shot iterable must not be consumed by
        # validation), and reject a bare string — almost certainly a
        # mistaken spec, not a per-character host list
        if isinstance(self.hosts, str):
            raise ValueError(
                f"hosts must be a sequence of host labels, got the string "
                f"{self.hosts!r} (did you mean Topology.from_spec?)"
            )
        if not isinstance(self.hosts, tuple):
            object.__setattr__(self, "hosts", tuple(self.hosts))
        if not self.hosts:
            raise ValueError("a topology needs at least one rank")
        if not all(isinstance(h, str) and h for h in self.hosts):
            raise ValueError("host labels must be non-empty strings")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def flat(cls, nranks: int, host: str = "node0") -> "Topology":
        """Every rank on one host (the degenerate single-machine world)."""
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        return cls(hosts=(host,) * nranks)

    @classmethod
    def uniform(cls, nranks: int, ranks_per_node: int) -> "Topology":
        """``nranks`` ranks packed onto hosts of ``ranks_per_node`` each.

        Ranks fill hosts in contiguous blocks (``node0`` gets ranks
        ``0..ranks_per_node-1``, and so on); the last host may be short.
        """
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        if ranks_per_node < 1:
            raise ValueError(f"ranks_per_node must be >= 1, got {ranks_per_node}")
        return cls(hosts=tuple(f"node{r // ranks_per_node}" for r in range(nranks)))

    @classmethod
    def from_spec(cls, spec: str) -> "Topology":
        """Parse an ``HxR`` spec: ``"2x4"`` = 2 hosts x 4 ranks per host."""
        head, sep, tail = spec.lower().partition("x")
        if not sep or not head.isdigit() or not tail.isdigit():
            raise ValueError(
                f"topology spec must look like 'HOSTSxRANKS_PER_NODE' (e.g. '2x4'), got {spec!r}"
            )
        nhosts, per_node = int(head), int(tail)
        if nhosts < 1 or per_node < 1:
            raise ValueError(f"topology spec needs positive factors, got {spec!r}")
        return cls.uniform(nhosts * per_node, per_node)

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    @property
    def nranks(self) -> int:
        return len(self.hosts)

    @cached_property
    def unique_hosts(self) -> tuple[str, ...]:
        """Hosts in first-seen (rank) order."""
        return tuple(dict.fromkeys(self.hosts))

    @property
    def nnodes(self) -> int:
        return len(self.unique_hosts)

    @cached_property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Per-host rank groups (host order = first-seen, ranks ascending)."""
        by_host: dict[str, list[int]] = {h: [] for h in self.unique_hosts}
        for rank, host in enumerate(self.hosts):
            by_host[host].append(rank)
        return tuple(tuple(ranks) for ranks in by_host.values())

    @cached_property
    def leaders(self) -> tuple[int, ...]:
        """The lowest rank on each host (one leader per node)."""
        return tuple(group[0] for group in self.groups)

    def host_of(self, rank: int) -> str:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range [0, {self.nranks})")
        return self.hosts[rank]

    def ranks_on(self, host: str) -> tuple[int, ...]:
        """All ranks living on ``host`` (ascending)."""
        ranks = tuple(r for r, h in enumerate(self.hosts) if h == host)
        if not ranks:
            raise ValueError(f"no rank lives on host {host!r}")
        return ranks

    def group_of(self, rank: int) -> tuple[int, ...]:
        """The rank's host group (itself included)."""
        return self.ranks_on(self.host_of(rank))

    @property
    def max_ranks_per_node(self) -> int:
        return max(len(g) for g in self.groups)

    @property
    def is_hierarchical(self) -> bool:
        """More than one host *and* at least one host with several ranks.

        A single-host world has no slow tier to save on; a one-rank-per-
        host world has no intra-node tier to merge on. Both degenerate to
        flat algorithms.
        """
        return self.nnodes > 1 and self.max_ranks_per_node > 1

    # ------------------------------------------------------------------
    def restrict(self, ranks: Sequence[int]) -> "Topology":
        """The sub-topology of a rank subset (for sub-communicators)."""
        return Topology(hosts=tuple(self.hosts[self._check(r)] for r in ranks))

    def _check(self, rank: int) -> int:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range [0, {self.nranks})")
        return rank

    def describe(self) -> str:
        """Human-readable host grouping, e.g. ``2 hosts: a=[0,1] b=[2,3]``."""
        parts = " ".join(
            f"{host}={list(group)}" for host, group in zip(self.unique_hosts, self.groups)
        )
        noun = "host" if self.nnodes == 1 else "hosts"
        return f"{self.nnodes} {noun}: {parts}"


def check_topology_size(topology: Topology, nranks: int) -> Topology:
    """Validate that ``topology`` describes exactly ``nranks`` ranks.

    The one size check every launcher path shares (``run_ranks``,
    ``run_sparse_allreduce``, ``serve_rank``, sub-communicator
    restriction, replay), so a mismatch raises the same clear
    :class:`ValueError` everywhere.
    """
    if topology.nranks != nranks:
        raise ValueError(
            f"topology describes {topology.nranks} ranks but the world has {nranks}"
        )
    return topology


def normalize_topology(
    spec: "Topology | str | int | Iterable[str] | None", nranks: int
) -> Topology | None:
    """Resolve every accepted topology spelling to a validated instance.

    ``None`` passes through (meaning: backend-derived or flat),
    a :class:`Topology` is validated against ``nranks``, ``"2x4"`` parses
    as hosts x ranks-per-node, an ``int`` means ranks per node, and any
    iterable of strings is taken as the per-rank host list.
    """
    if spec is None:
        return None
    if isinstance(spec, Topology):
        topo = spec
    elif isinstance(spec, str):
        topo = Topology.from_spec(spec)
    elif isinstance(spec, int):
        topo = Topology.uniform(nranks, spec)
    else:
        topo = Topology(hosts=tuple(spec))
    return check_topology_size(topo, nranks)


def bytes_by_tier(trace: Trace, topology: Topology) -> tuple[int, int]:
    """Split the trace's sent bytes into (intra-host, inter-host) volume."""
    if topology.nranks != trace.nranks:
        raise ValueError(
            f"topology describes {topology.nranks} ranks, trace has {trace.nranks}"
        )
    intra = inter = 0
    hosts = topology.hosts
    for rank_events in trace:
        for ev in rank_events:
            if ev.op != SEND:
                continue
            if hosts[ev.rank] == hosts[ev.peer]:
                intra += ev.nbytes
            else:
                inter += ev.nbytes
    return intra, inter


def inter_node_bytes(trace: Trace, topology: Topology) -> int:
    """Bytes that crossed the slow tier (sends between different hosts)."""
    return bytes_by_tier(trace, topology)[1]
