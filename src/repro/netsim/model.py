"""Alpha-beta network cost models and machine presets.

The paper analyses every algorithm in the classic latency-bandwidth model:
sending a message of ``L`` bytes costs ``T(L) = alpha + beta * L`` (§5.2).
We adopt the same model for *timing replay* of executed message traces, with
two standard refinements (LogGP-flavoured):

* the sender pays the ``alpha`` term as an injection overhead per message —
  this reproduces the paper's ``(P-1) * alpha`` accounting for the direct
  send fan-out of the split phase;
* local reduction work is charged at ``gamma`` seconds per byte touched
  (dense sums are memory-bound; sparse merges touch index+value pairs).

A model also carries ``launch``, the software cost of launching and
joining one background collective. Replay does not charge it (a trace
has no launches); :class:`repro.costmodel.CostModel` prices every extra
chunk of a pipelined hierarchical allreduce with it.

Presets model the three network classes of the evaluation: a Cray
Aries-class supercomputer interconnect (Piz Daint), InfiniBand FDR, and
Gigabit Ethernet (the "cloud" setting). Values are class-representative,
not measurements of the authors' testbed; the benches compare *shapes*.

Two-tier models
---------------
SparCML's large-scale results (§6) come from clusters whose *intra-node*
links (shared memory) are an order of magnitude faster than the network
between nodes. :class:`TieredNetworkModel` composes two flat models —
an intra-node and an inter-node alpha/beta pair — so trace replay can
charge each message by the tier its (src, dst) pair actually crossed
(see :func:`repro.netsim.replay.replay`, which takes a
:class:`~repro.runtime.topology.Topology` to classify links). With
``shared_uplink=True`` (the default) all inter-node transmissions
from/to one host additionally serialize on that host's uplink — the
congestion effect that makes hierarchical schedules win in §6: ``m``
ranks funnelling unions through one NIC pay ``m`` transmit times where
a leader pays one.

Tiered presets compose the shared-memory intra model with each network
class (``tiered_aries``, ``tiered_ib_fdr``, ``tiered_gige``); ad hoc
combinations parse from ``"tiered:INTRA/INTER"`` specs via
:func:`resolve_network` (e.g. ``"tiered:shm/gige"``, or just
``"tiered:gige"`` for the shared-memory default intra tier).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

__all__ = [
    "NetworkModel",
    "TieredNetworkModel",
    "ARIES",
    "IB_FDR",
    "GIGE",
    "SHM",
    "TIERED_ARIES",
    "TIERED_IB_FDR",
    "TIERED_GIGE",
    "PRESETS",
    "resolve_network",
    "save_network",
    "load_network",
]

#: schema version of the calibrated-model JSON written by
#: ``python -m repro calibrate`` (see :func:`save_network`). 2 added the
#: per-tier ``launch`` constant; older files load with the default.
NETWORK_JSON_SCHEMA = 2

#: default launch + join cost of one background collective, in seconds.
#: Provenance: ``runtime.nonblocking.launch_us`` = 656 us in the repo
#: benchmark's traced run (bench/, socket 2x2, 4 ranks on the 2-core
#: reference host). A property of the runtime, not of the wire — so every
#: preset carries it; ``python -m repro calibrate`` refits it per host.
DEFAULT_LAUNCH_S = 6.6e-4


@dataclass(frozen=True)
class NetworkModel:
    """Cost parameters for trace replay.

    Attributes
    ----------
    name:
        Preset label used in reports.
    alpha:
        Per-message latency in seconds (also charged as sender injection).
    beta:
        Seconds per byte of message payload (inverse bandwidth).
    gamma:
        Seconds per byte of local reduction/compute work.
    launch:
        Seconds of software overhead to launch and join one background
        collective (see :data:`DEFAULT_LAUNCH_S`).
    """

    name: str
    alpha: float
    beta: float
    gamma: float = 2.0e-10
    launch: float = DEFAULT_LAUNCH_S

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0 or self.launch < 0:
            raise ValueError("network model parameters must be non-negative")

    # ------------------------------------------------------------------
    def message_time(self, nbytes: int) -> float:
        """``T(L) = alpha + beta * L`` — one point-to-point message."""
        return self.alpha + self.beta * nbytes

    def compute_time(self, nbytes: int) -> float:
        """Local work time for ``nbytes`` of memory traffic."""
        return self.gamma * nbytes

    @property
    def bandwidth_gbps(self) -> float:
        """Link bandwidth implied by beta, in gigabytes per second."""
        if self.beta == 0:
            return float("inf")
        return 1.0 / self.beta / 1e9

    def with_(self, **kwargs: float) -> "NetworkModel":
        """A copy with some parameters replaced."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        return (
            f"{self.name}: alpha={self.alpha * 1e6:.2f}us, "
            f"bw={self.bandwidth_gbps:.2f} GB/s, gamma={self.gamma * 1e9:.2f} ns/B"
        )


#: Cray Aries class (Piz Daint-like): ~1.5 us latency, ~10 GB/s per node.
ARIES = NetworkModel(name="aries", alpha=1.5e-6, beta=1.0e-10, gamma=2.0e-10)

#: InfiniBand FDR class (Greina IB): ~2 us latency, ~6.8 GB/s.
IB_FDR = NetworkModel(name="ib_fdr", alpha=2.0e-6, beta=1.47e-10, gamma=2.0e-10)

#: Gigabit Ethernet class (cloud): ~50 us latency, ~118 MB/s.
GIGE = NetworkModel(name="gige", alpha=5.0e-5, beta=8.5e-9, gamma=2.0e-10)

#: Shared-memory intra-node class: ~0.4 us latency, ~40 GB/s.
SHM = NetworkModel(name="shm", alpha=4.0e-7, beta=2.5e-11, gamma=2.0e-10)


@dataclass(frozen=True)
class TieredNetworkModel:
    """A two-tier cost model: intra-node and inter-node alpha/beta pairs.

    Replay classifies each message by the
    :class:`~repro.runtime.topology.Topology` it is given: a send whose
    source and destination rank share a host is charged at ``intra``
    rates, everything else at ``inter`` rates. Compute work is charged
    at the intra tier's ``gamma`` (reductions are local by definition),
    and so is the ``launch`` software constant.

    With ``shared_uplink=True``, inter-node transmissions additionally
    serialize on the source host's egress and the destination host's
    ingress link (full duplex, one reservation per direction): a message
    begins transmitting only once the sender is ready *and* both uplinks
    are free, and occupies them for ``beta_inter * L`` seconds. An
    uncontended message costs exactly ``alpha + beta * L`` — identical
    to the flat formula — so with ``shared_uplink=False`` (or traffic
    that never overlaps on a link) a tiered model with equal tiers
    reproduces the plain :class:`NetworkModel` replay bit for bit.
    """

    name: str
    intra: NetworkModel
    inter: NetworkModel
    shared_uplink: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.intra, NetworkModel) or not isinstance(
            self.inter, NetworkModel
        ):
            raise TypeError("TieredNetworkModel tiers must be NetworkModel instances")

    # ------------------------------------------------------------------
    @property
    def gamma(self) -> float:
        """Seconds per byte of local work (reductions run on the node)."""
        return self.intra.gamma

    @property
    def launch(self) -> float:
        """Seconds to launch and join one background collective."""
        return self.intra.launch

    def tier(self, same_host: bool) -> NetworkModel:
        """The flat model governing a link (``same_host`` classifies it)."""
        return self.intra if same_host else self.inter

    def message_time(self, nbytes: int, same_host: bool = False) -> float:
        """Uncontended ``T(L) = alpha + beta * L`` on the given tier."""
        return self.tier(same_host).message_time(nbytes)

    def compute_time(self, nbytes: int) -> float:
        return self.gamma * nbytes

    def with_(self, **kwargs) -> "TieredNetworkModel":
        """A copy with some fields replaced (``intra=``, ``inter=``, ...)."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        uplink = "shared uplink" if self.shared_uplink else "unshared uplink"
        return (
            f"{self.name}: intra[{self.intra.describe()}] "
            f"inter[{self.inter.describe()}] ({uplink})"
        )


def _tiered(inter: NetworkModel, intra: NetworkModel = SHM) -> TieredNetworkModel:
    return TieredNetworkModel(name=f"tiered_{inter.name}", intra=intra, inter=inter)


#: the canonical two-tier clusters: shared-memory intra + each network class.
TIERED_ARIES = _tiered(ARIES)
TIERED_IB_FDR = _tiered(IB_FDR)
TIERED_GIGE = _tiered(GIGE)

PRESETS: "dict[str, NetworkModel | TieredNetworkModel]" = {
    m.name: m
    for m in (ARIES, IB_FDR, GIGE, SHM, TIERED_ARIES, TIERED_IB_FDR, TIERED_GIGE)
}


def _tier_to_dict(m: NetworkModel) -> dict:
    return {
        "name": m.name, "alpha": m.alpha, "beta": m.beta, "gamma": m.gamma,
        "launch": m.launch,
    }


def _tier_from_dict(d: dict, fallback_name: str) -> NetworkModel:
    return NetworkModel(
        name=d.get("name", fallback_name),
        alpha=float(d["alpha"]),
        beta=float(d["beta"]),
        gamma=float(d.get("gamma", 2.0e-10)),
        launch=float(d.get("launch", DEFAULT_LAUNCH_S)),
    )


def save_network(
    model: "NetworkModel | TieredNetworkModel",
    path: "str | Path",
    provenance: dict | None = None,
) -> Path:
    """Persist a (possibly tiered) model as the calibrated-model JSON.

    The document round-trips through :func:`load_network` and resolves
    via the ``"calibrated:<path>"`` spec of :func:`resolve_network`;
    ``provenance`` (fit residuals, measurement parameters, host info) is
    carried verbatim for reports and ignored on load.
    """
    path = Path(path)
    doc: dict = {"schema": NETWORK_JSON_SCHEMA, "name": model.name}
    if isinstance(model, TieredNetworkModel):
        doc["kind"] = "tiered"
        doc["shared_uplink"] = model.shared_uplink
        doc["intra"] = _tier_to_dict(model.intra)
        doc["inter"] = _tier_to_dict(model.inter)
    else:
        doc["kind"] = "flat"
        doc.update(_tier_to_dict(model))
    if provenance is not None:
        doc["provenance"] = provenance
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def load_network(path: "str | Path") -> "NetworkModel | TieredNetworkModel":
    """Load a model written by :func:`save_network` (or hand-authored)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValueError(f"calibrated network file {str(path)!r} does not exist")
    except json.JSONDecodeError as exc:
        raise ValueError(f"calibrated network file {str(path)!r} is not valid JSON: {exc}")
    kind = doc.get("kind", "flat")
    name = doc.get("name", path.stem)
    if kind == "tiered":
        return TieredNetworkModel(
            name=name,
            intra=_tier_from_dict(doc["intra"], f"{name}_intra"),
            inter=_tier_from_dict(doc["inter"], f"{name}_inter"),
            shared_uplink=bool(doc.get("shared_uplink", True)),
        )
    if kind == "flat":
        return _tier_from_dict(doc, name)
    raise ValueError(
        f"calibrated network file {str(path)!r} has unknown kind {kind!r} "
        "(expected 'flat' or 'tiered')"
    )


def resolve_network(
    spec: "str | NetworkModel | TieredNetworkModel",
) -> "NetworkModel | TieredNetworkModel":
    """Resolve a network spec to a model instance.

    Accepts a model instance (returned as-is), a preset name from
    :data:`PRESETS`, a ``"tiered:INTRA/INTER"`` spec composing two
    *flat* presets into a :class:`TieredNetworkModel` on the fly
    (``"tiered:INTER"`` defaults the intra tier to shared memory, e.g.
    ``"tiered:shm/ib_fdr"`` or ``"tiered:gige"``), or a
    ``"calibrated:<path>"`` spec loading a fitted model JSON written by
    ``python -m repro calibrate`` (:func:`save_network`).
    """
    if isinstance(spec, (NetworkModel, TieredNetworkModel)):
        return spec
    if spec in PRESETS:
        return PRESETS[spec]
    if isinstance(spec, str) and spec.startswith("calibrated:"):
        return load_network(spec[len("calibrated:") :])
    if isinstance(spec, str) and spec.startswith("tiered:"):
        body = spec[len("tiered:") :]
        intra_name, sep, inter_name = body.partition("/")
        if not sep:
            intra_name, inter_name = SHM.name, body
        intra = PRESETS.get(intra_name)
        inter = PRESETS.get(inter_name)
        if not isinstance(intra, NetworkModel) or not isinstance(inter, NetworkModel):
            flat = sorted(k for k, v in PRESETS.items() if isinstance(v, NetworkModel))
            raise ValueError(
                f"tiered spec {spec!r} must compose two flat presets "
                f"(tiered:INTRA/INTER or tiered:INTER); choose from {flat}"
            )
        return TieredNetworkModel(name=spec, intra=intra, inter=inter)
    raise ValueError(
        f"unknown network preset {spec!r}; choose from {sorted(PRESETS)}, "
        f"a 'tiered:INTRA/INTER' spec composing two flat presets "
        f"(e.g. 'tiered:shm/gige', or 'tiered:gige' for the shared-memory "
        f"default intra tier), or 'calibrated:<path.json>' loading a model "
        f"fitted by `python -m repro calibrate`"
    )
