"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``sweep-nodes``     reduction time vs node count (Fig. 3 left shape)
``calibrate``       fit a tiered network model (per-tier alpha/beta, the
                    summation gamma, the background-launch constant) from
                    a few seconds of measurement on this host; the written
                    JSON is loadable anywhere a ``--network`` flag accepts
                    ``calibrated:<path>``
``serve-rank``      run one rank of a multi-host ``socket``-backend world
                    against a shared rendezvous address

All output is plain ASCII tables; every experiment is deterministic given
``--seed`` (``calibrate`` measures real wall clocks and is therefore
machine-dependent by design; the repo's perf yardstick is ``bench/``).
Fig. 3 (right, reduction time vs density) and Fig. 7 (the App. B fill-in
table) are ``benchmarks/test_fig3_density.py`` and
``benchmarks/test_fig7_expected_k.py``.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

from ..netsim import PRESETS, resolve_network
from ..runtime import available_backends
from .sweeps import ALGORITHM_SET, SweepPoint, sweep_node_counts

__all__ = ["main", "build_parser"]


def _fmt_time(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def _render_points(points: list[SweepPoint]) -> str:
    """Pivot sweep points into an algorithm x node-count table."""
    by_algo: dict[str, dict] = defaultdict(dict)
    keys: list = []
    for p in points:
        if p.nranks not in keys:
            keys.append(p.nranks)
        by_algo[p.algorithm][p.nranks] = p
    header = ["algorithm"] + [f"nranks={k}" for k in keys]
    rows = []
    for algo, cells in by_algo.items():
        rows.append([algo] + [_fmt_time(cells[k].time_s) if k in cells else "-" for k in keys])
    widths = [max(len(str(r[c])) for r in [header] + rows) for c in range(len(header))]
    lines = ["  ".join(str(v).ljust(w) for v, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SparCML reproduction: sparse-collective micro-experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    nodes = sub.add_parser("sweep-nodes", help="reduction time vs node count")
    nodes.add_argument("--dimension", type=int, default=1 << 20)
    nodes.add_argument("--density", type=float, default=0.00781)
    nodes.add_argument("--nodes", type=int, nargs="+", default=[2, 4, 8, 16])
    nodes.add_argument(
        "--network", default="aries", metavar="PRESET",
        help=f"network preset ({', '.join(sorted(PRESETS))}), a "
             "'tiered:INTRA/INTER' spec (e.g. tiered:shm/ib_fdr or "
             "tiered:gige), or 'calibrated:<path.json>' fitted by "
             "`python -m repro calibrate`",
    )
    nodes.add_argument("--algorithms", nargs="+", choices=sorted(ALGORITHM_SET), default=None)
    nodes.add_argument("--seed", type=int, default=9000)
    nodes.add_argument(
        "--backend",
        choices=available_backends(),
        default="thread",
        help="runtime backend executing the measured collectives",
    )
    nodes.add_argument(
        "--ranks-per-node", type=int, default=None, metavar="R",
        help="simulate hosts of R ranks each (enables the ssar_hier rows)",
    )

    cal = sub.add_parser(
        "calibrate",
        help="fit alpha/beta/gamma/launch from measurement -> calibrated JSON",
        description=(
            "Measure a two-rank ping-pong at ~1 KB / ~84 KB / ~1 MB frames on "
            "the shmem (intra tier) and socket (inter tier) backends, one "
            "sparse merge and the launch+join cost of a background "
            "collective; fit per-tier alpha/beta by least relative error, "
            "gamma from the merge, and write the tiered model as JSON. Load "
            "it anywhere a --network flag is accepted with 'calibrated:<path>'."
        ),
    )
    cal.add_argument(
        "--out", default=None,
        help="output JSON path (default: results/calibrated_network.json)",
    )
    cal.add_argument(
        "--name", default="calibrated",
        help="model name embedded in the JSON (default: calibrated)",
    )

    serve = sub.add_parser(
        "serve-rank",
        help="run one rank of a multi-host socket-backend world",
        description=(
            "Join a socket-backend world from this machine. Rank 0 listens: it "
            "binds the rendezvous address and serves the (rank, host, port) "
            "exchange; every other rank points at the same --rendezvous. "
            "Example (two hosts):  host A:  python -m repro serve-rank "
            "--rendezvous hostA:29400 --rank 0 --nranks 2 --host hostA   "
            "host B:  python -m repro serve-rank --rendezvous hostA:29400 "
            "--rank 1 --nranks 2 --host hostB"
        ),
    )
    serve.add_argument(
        "--rendezvous", required=True, metavar="HOST:PORT",
        help="rendezvous address (rank 0 binds it; everyone else connects)",
    )
    serve.add_argument("--rank", type=int, required=True, help="this rank's id")
    serve.add_argument("--nranks", type=int, required=True, help="world size P")
    serve.add_argument(
        "--program", default=None, metavar="MODULE:FUNCTION",
        help="rank program fn(comm) to run (default: built-in sparse-allreduce demo)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="address peers use to reach this rank (the machine's routable IP "
             "on a real cluster; the loopback default only spans one host)",
    )
    serve.add_argument(
        "--timeout", type=float, default=60.0,
        help="seconds to wait for the whole world to assemble",
    )
    serve.add_argument(
        "--topology", default=None, metavar="HxR",
        help="override the rendezvous-derived rank->host map with a "
             "simulated one (e.g. 2x2; must describe --nranks ranks)",
    )
    serve.add_argument(
        "--op-timeout", type=float, default=None, metavar="SECONDS",
        help="per-operation send/recv deadline: a stalled peer raises "
             "CommTimeoutError instead of hanging for the whole run",
    )
    serve.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="inject deterministic faults into this rank's transport, e.g. "
             "'seed=7,drop=0.02,delay=0.1/0.005,kill=1@5' "
             "(see repro.runtime.faults.FaultPlan.from_spec)",
    )
    serve.add_argument(
        "--elastic", action="store_true",
        help="(rank 0 only) keep the rendezvous alive after assembly so "
             "dead ranks can come back: the world can shrink() past a "
             "failure and later readmit a --rejoin rank",
    )
    serve.add_argument(
        "--rejoin", action="store_true",
        help="re-enter a running world that shrank past this rank's death "
             "(requires the world to have been assembled with --elastic); "
             "the program receives the regrown ElasticWorld once the "
             "survivors commit the join at their next grow()",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "serve-rank":
        from ..runtime.rendezvous import serve_rank

        host, sep, port = args.rendezvous.rpartition(":")
        if not sep or not host or not port.isdigit():
            print(
                f"--rendezvous must look like HOST:PORT, got {args.rendezvous!r}",
                file=sys.stderr,
            )
            return 2
        if args.rejoin and args.rank == 0:
            print(
                "--rejoin cannot be used by rank 0: it owns the rendezvous "
                "the surviving world is reachable through",
                file=sys.stderr,
            )
            return 2
        result = serve_rank(
            (host, int(port)),
            args.rank,
            args.nranks,
            program=args.program,
            host=args.host,
            rendezvous_timeout=args.timeout,
            verbose=True,  # log the assembled (rank, host) grouping
            topology=args.topology,
            op_timeout=args.op_timeout,
            fault_plan=args.fault_plan,
            elastic=args.elastic,
            rejoin=args.rejoin,
        )
        print(f"rank {args.rank}/{args.nranks} finished: {result!r}")
        return 0

    if args.command == "calibrate":
        from ..costmodel.calibrate import run_calibration

        model, path, provenance = run_calibration(out=args.out, name=args.name)
        print(model.describe())
        fits = provenance["fits"]
        for tier in ("intra", "inter"):
            print(
                f"  {tier}: backend={fits[tier]['backend']}  one-way "
                + "  ".join(
                    f"{p['wire_bytes']:.0f}B={p['one_way_s'] * 1e6:.0f}us"
                    for p in fits[tier]["points"]
                )
            )
        print(
            f"  launch: backend={fits['launch']['backend']}  "
            f"{model.launch * 1e6:.0f}us per background collective"
        )
        print(f"wrote {path}  (load with --network calibrated:{path})")
        return 0

    if args.command == "sweep-nodes":
        # validate the network spec up front for an argparse-style error
        try:
            resolve_network(args.network)
        except ValueError as exc:
            print(f"--network: {exc}", file=sys.stderr)
            return 2
        points = sweep_node_counts(
            args.nodes,
            dimension=args.dimension,
            density=args.density,
            network=args.network,
            algorithms=args.algorithms,
            seed=args.seed,
            backend=args.backend,
            ranks_per_node=args.ranks_per_node,
        )
        print(
            f"reduction time vs node count (N={args.dimension}, "
            f"d={args.density:.3%}, {args.network})"
        )
        print(_render_points(points))
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover
