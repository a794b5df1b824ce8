"""Command-line interface: ``python -m repro <command>``.

The CLI runs the library's two operations; the paper's experiments
live in ``benchmarks/`` only, one driver per figure.

Commands
--------
``calibrate``       fit a tiered network model (per-tier alpha/beta, the
                    summation gamma, the background-launch constant) from
                    a few seconds of measurement on this host; the written
                    JSON loads back through
                    ``CostModel.resolve("calibrated:<path>")``
``serve-rank``      run one rank of a multi-host ``socket``-backend world
                    against a shared rendezvous address
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SparCML reproduction: calibrate the cost model, serve one rank",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser(
        "calibrate",
        help="fit alpha/beta/gamma/launch from measurement -> calibrated JSON",
        description=(
            "Measure a two-rank ping-pong at ~1 KB / ~84 KB / ~1 MB frames on "
            "the shmem (intra tier) and socket (inter tier) backends, one "
            "sparse merge and the launch+join cost of a background "
            "collective; fit per-tier alpha/beta by least relative error, "
            "gamma from the merge, and write the tiered model as JSON. Load "
            "it with CostModel.resolve('calibrated:<path>') or "
            "examples/quickstart.py --network calibrated:<path>."
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
        print(
            f"wrote {path}  (load with CostModel.resolve(\"calibrated:{path}\") "
            f"or examples/quickstart.py --network calibrated:{path})"
        )
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover
