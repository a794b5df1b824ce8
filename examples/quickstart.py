#!/usr/bin/env python
"""Quickstart: sparse allreduce vs the dense MPI baseline.

Eight simulated ranks each contribute a sparse gradient-like vector
(dimension 1M, 0.1% density); we run every SparCML algorithm plus the
dense baselines, verify they all compute the identical sum, and compare
communication volume and replayed time on a supercomputer-class and a
Gigabit-Ethernet-class network.

Run:  python examples/quickstart.py [--backend thread|process|shmem|socket]
                                    [--topology 2x4]
                                    [--overlap]
                                    [--fault-plan seed=7,delay=0.2/0.001]
                                    [--op-timeout 5]
                                    [--elastic [--rejoin]]

``--backend process`` executes every rank in its own OS process with real
serialized transport over pipes; ``shmem`` adds a shared-memory slab per
rank pair that carries the large frames; ``socket`` frames them over a TCP mesh
(the transport that also spans machines via ``python -m repro
serve-rank``) — same algorithms, same results on every backend.

``--fault-plan`` injects deterministic faults (message drops, delays, a
rank kill) into the chosen backend's transport — e.g. a pure-delay plan
like ``seed=7,delay=0.2/0.001`` demonstrates that results stay
bit-identical under network jitter, while ``kill=3@4`` shows the typed
:class:`RankFailedError` failure surface. ``--op-timeout`` bounds every
blocked send/recv so a dropped message fails fast instead of hanging.

``--elastic`` (with a ``kill=R@N`` fault plan) demonstrates the elastic
world instead of exiting on the failure: survivors catch the typed error,
``shrink()`` past the dead rank and re-run the allreduce on the smaller
world, printing the post-shrink checksum every survivor agrees on. Add
``--rejoin`` (thread backend; a process rank rejoins through ``python -m
repro serve-rank --rejoin``) and the demo also brings the killed rank
back through ``thread_rejoin`` + ``grow()`` and re-verifies the checksum
on the regrown full-size world:

    python examples/quickstart.py --elastic --fault-plan kill=3@4 --rejoin

``--overlap`` demonstrates the *chunked* non-blocking hierarchy instead:
``ssar_hier`` / ``dsar_hier`` run with ``chunks=K`` so the leaders'
inter-node exchange of chunk k overlaps the intra-host reduce of chunk
k+1. The table verifies every chunk count is bit-identical to the
unchunked algorithm and shows the replayed two-tier time next to the
*predicted* pipelined makespan
(:func:`repro.netsim.replay.overlap_step_time` with ``chunks=K``) for a
step whose compute matches its communication.

``--topology 2x4`` simulates a cluster of 2 hosts x 4 ranks: the table
gains an "MB inter" column (bytes crossing the simulated slow tier), a
"gige-2tier" column (replay under the two-tier GigE preset, where
intra-host links run at shared-memory speed and each host's uplink is
shared — the regime in which hierarchy wins on *time*, not just bytes)
and ``ssar_hier`` / ``dsar_hier`` rows — the topology-aware hierarchical
collectives that reduce intra-host first so only each host's merged
union goes inter-node. On a real two-machine cluster the same algorithms
engage automatically: assemble the world with distinct hostnames via
``python -m repro serve-rank`` (see ROADMAP.md) and the rendezvous host
map becomes ``comm.topology``.
"""

import argparse
import pathlib
import sys

# standalone bootstrap: make src/repro importable without PYTHONPATH
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import (
    ARIES,
    GIGE,
    TIERED_GIGE,
    FaultPlan,
    SparseStream,
    Topology,
    available_backends,
    dense_allreduce,
    inter_node_bytes,
    replay,
    resolve_network,
    run_ranks,
    sparse_allreduce,
)
from repro.runtime import RankError
from repro.streams import reduce_streams

DIMENSION = 1 << 20  # 1M coordinates
NNZ = 1000  # ~0.1% density per node
P = 8


def make_contribution(rank: int) -> SparseStream:
    """Each rank's sparse input (seeded: reproducible across runs)."""
    rng = np.random.default_rng(1000 + rank)
    return SparseStream.random_uniform(DIMENSION, nnz=NNZ, rng=rng)


def _checksum(stream: SparseStream) -> float:
    return float(stream.to_dense().sum())


def _elastic_shrink_prog(comm):
    """Rank program for the --elastic demo: shrink past the kill, re-sum."""
    from repro.runtime import RankFailedError

    try:
        # iterate like a training loop so a kill=R@N clause with any
        # trigger threshold eventually fires mid-step
        for _ in range(50):
            sparse_allreduce(
                comm, make_contribution(comm.rank), algorithm="ssar_rec_dbl"
            )
            # the kill may land after this rank already holds its result;
            # the barrier guarantees every survivor observes the dead rank
            comm.barrier()
        return ("clean",)
    except RankFailedError:
        world = comm.shrink()
        out = sparse_allreduce(
            world,
            make_contribution(world.parent_ranks[world.rank]),
            algorithm="ssar_rec_dbl",
        )
        return ("shrunk", world.epoch, world.size, _checksum(out))


def elastic_demo(args, fault_plan) -> None:
    """kill -> typed error -> shrink() -> verified post-shrink checksum.

    With ``--rejoin`` (thread backend) the demo runs on a hand-built thread
    world instead so the killed rank can come back through
    ``thread_rejoin`` while the survivors commit the join with ``grow()``.
    """
    import threading
    import time

    from repro.runtime import (
        RankError,
        RankFailedError,
        RankKilledError,
        ThreadWorld,
        thread_rejoin,
    )

    victim = fault_plan.kill_rank if fault_plan else None
    if victim is None:
        print("--elastic needs a kill=R@N clause in --fault-plan", file=sys.stderr)
        sys.exit(2)
    expected_shrunk = float(
        reduce_streams(
            [make_contribution(r) for r in range(P) if r != victim]
        ).to_dense().sum()
    )
    expected_full = float(
        reduce_streams([make_contribution(r) for r in range(P)]).to_dense().sum()
    )
    print(
        f"elastic demo: P={P}, kill rank {victim} at op "
        f"{fault_plan.kill_after_ops}, shrink to P={P - 1}"
        + (f", then rejoin rank {victim}" if args.rejoin else "")
    )

    if not args.rejoin:
        # any backend: survivors shrink and re-reduce; the run as a whole
        # still reports the victim's death as a typed world-level error
        try:
            run_ranks(
                _elastic_shrink_prog, P, backend=args.backend,
                fault_plan=fault_plan, op_timeout=args.op_timeout,
            )
            print("the kill clause never fired — nothing to demonstrate")
            sys.exit(1)
        except RankError as exc:
            rows = exc.partial_results or [None] * P
            ok = True
            for rank, row in enumerate(rows):
                if rank == victim:
                    print(f"  rank {rank}: killed ({type(exc.__cause__).__name__})")
                    continue
                if not row or row[0] != "shrunk":
                    print(f"  rank {rank}: {row!r}  <- expected a shrunk result")
                    ok = False
                    continue
                _, epoch, size, checksum = row
                match = np.isclose(checksum, expected_shrunk, atol=1e-4)
                ok &= bool(match)
                print(
                    f"  rank {rank}: epoch={epoch} size={size} "
                    f"checksum={checksum:.4f} "
                    f"({'matches' if match else 'MISMATCH vs'} "
                    f"expected {expected_shrunk:.4f})"
                )
            print(
                "\nall survivors agree on the post-shrink sum"
                if ok else "\nchecksum mismatch — elastic demo FAILED"
            )
            sys.exit(0 if ok else 1)

    # rejoin path: thread backend only (main() refuses the others; an OS
    # process rejoins through serve-rank --rejoin)
    world = ThreadWorld(P, op_timeout=args.op_timeout or 60.0)
    results: dict = {}

    def rank_thread(rank: int) -> None:
        comm = world.comm(rank)
        comm.fault_plan = fault_plan
        try:
            try:
                for _ in range(50):
                    sparse_allreduce(
                        comm, make_contribution(rank), algorithm="ssar_rec_dbl"
                    )
                    comm.barrier()
                results[rank] = ("clean",)
                return
            except RankFailedError:
                pass
            shrunk = comm.shrink()
            out1 = sparse_allreduce(
                shrunk, make_contribution(rank), algorithm="ssar_rec_dbl"
            )
            # poll for the rejoin; grow() is collective, so the survivors
            # stay in lockstep until the join commits
            grown = shrunk
            for _ in range(15000):
                grown = grown.grow()
                if grown.size == P:
                    break
                time.sleep(0.002)
            out2 = sparse_allreduce(
                grown,
                make_contribution(grown.parent_ranks[grown.rank]),
                algorithm="ssar_rec_dbl",
            )
            results[rank] = (
                "shrunk+regrown", shrunk.epoch, grown.epoch,
                _checksum(out1), _checksum(out2),
            )
        except RankKilledError:
            world.abort(failed_rank=rank)
            results[rank] = ("killed",)

    def reviver() -> None:
        deadline = time.monotonic() + 60.0
        while victim not in world.dead_ranks:
            if time.monotonic() > deadline:
                results["revived"] = ("victim never declared dead",)
                return
            time.sleep(0.002)
        comm = thread_rejoin(world, victim, timeout=60.0)
        out = sparse_allreduce(
            comm, make_contribution(victim), algorithm="ssar_rec_dbl"
        )
        results["revived"] = ("rejoined", comm.epoch, _checksum(out))

    threads = [
        threading.Thread(target=rank_thread, args=(r,), daemon=True)
        for r in range(P)
    ] + [threading.Thread(target=reviver, daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)

    ok = results.get(victim) == ("killed",)
    for rank in range(P):
        if rank == victim:
            print(f"  rank {rank}: killed, later rejoined")
            continue
        row = results.get(rank)
        if not row or row[0] != "shrunk+regrown":
            print(f"  rank {rank}: {row!r}  <- expected shrunk+regrown")
            ok = False
            continue
        _, e1, e2, c1, c2 = row
        match = np.isclose(c1, expected_shrunk, atol=1e-4) and np.isclose(
            c2, expected_full, atol=1e-4
        )
        ok &= bool(match)
        print(
            f"  rank {rank}: epoch {e1}->{e2} shrunk-checksum={c1:.4f} "
            f"regrown-checksum={c2:.4f} ({'match' if match else 'MISMATCH'})"
        )
    revived = results.get("revived")
    if revived and revived[0] == "rejoined":
        match = np.isclose(revived[2], expected_full, atol=1e-4)
        ok &= bool(match)
        print(
            f"  rank {victim} (rejoined): epoch={revived[1]} "
            f"checksum={revived[2]:.4f} ({'match' if match else 'MISMATCH'})"
        )
    else:
        print(f"  rejoin failed: {revived!r}")
        ok = False
    print(
        "\nkill -> shrink -> rejoin cycle verified: the regrown world "
        "computes the full-world sum"
        if ok else "\nelastic demo FAILED"
    )
    sys.exit(0 if ok else 1)


def _chunked_prog(comm, algo: str, chunks: int):
    """Rank program of the --overlap demo."""
    return sparse_allreduce(
        comm, make_contribution(comm.rank), algorithm=algo, chunks=chunks
    )


def overlap_demo(args) -> None:
    """Chunked hierarchy: bit-identity per chunk count + predicted pipeline."""
    from repro.netsim.replay import overlap_step_time

    topology = (
        Topology.from_spec(args.topology) if args.topology
        else Topology.uniform(P, P // 2)
    )
    reference = reduce_streams([make_contribution(r) for r in range(P)]).to_dense()
    print(
        f"overlap demo: chunked hierarchical allreduce on "
        f"{topology.describe()}, backend={args.backend}, P={P}, N={DIMENSION}\n"
    )
    header = (
        f"{'algorithm':<12}{'chunks':>7}{'identical':>11}{'MB inter':>10}"
        f"{'gige-2tier':>12}{'pipelined':>12}"
    )
    print(header)
    print("-" * len(header))
    ok = True
    for algo in ("ssar_hier", "dsar_hier"):
        base = run_ranks(
            _chunked_prog, P, algo, 1, backend=args.backend, topology=topology,
            op_timeout=args.op_timeout,
        )
        base_dense = base[0].to_dense()
        correct = all(
            np.allclose(base[r].to_dense(), reference, atol=1e-4) for r in range(P)
        )
        ok &= correct
        for chunks in (1, 2, 4, 8):
            out = run_ranks(
                _chunked_prog, P, algo, chunks, backend=args.backend,
                topology=topology, op_timeout=args.op_timeout,
            )
            identical = correct and all(
                np.array_equal(out[r].to_dense(), base_dense) for r in range(P)
            )
            ok &= identical
            t_tiered = replay(out.trace, TIERED_GIGE, topology=topology).makespan
            # predicted step time when compute matches communication: the
            # chunked pipeline approaches max(compute, comm) from above
            predicted = overlap_step_time(t_tiered, t_tiered, True, chunks)
            print(
                f"{algo:<12}{chunks:>7}{str(identical):>11}"
                f"{inter_node_bytes(out.trace, topology) / 1e6:>10.2f}"
                f"{t_tiered * 1e3:>10.2f}ms{predicted * 1e3:>10.2f}ms"
            )
    print(
        "\nEvery chunked run is bit-identical to its unchunked algorithm; the"
        "\npipelined column is the predicted step time once the leaders'"
        "\ninter-node exchange hides behind the next chunk's intra-host reduce."
        if ok else "\nchunked results diverged — overlap demo FAILED"
    )
    sys.exit(0 if ok else 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="thread",
        help="runtime backend: thread (in-process), process (pipes), "
             "shmem (pipes plus a shared-memory slab for large frames) or "
             "socket (TCP mesh)",
    )
    parser.add_argument(
        "--topology", default=None, metavar="HxR",
        help="simulate a cluster of H hosts x R ranks (e.g. 2x4; HxR must "
             "equal the 8-rank world) and show hierarchical allreduce",
    )
    parser.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="inject deterministic transport faults, e.g. "
             "'seed=7,delay=0.2/0.001' (jitter: results stay identical) or "
             "'kill=3@4' (typed RankFailedError failure surface)",
    )
    parser.add_argument(
        "--op-timeout", type=float, default=None, metavar="SECONDS",
        help="per-operation send/recv deadline: a stalled or dropped message "
             "raises CommTimeoutError instead of hanging the run",
    )
    parser.add_argument(
        "--elastic", action="store_true",
        help="with a kill=R@N fault plan: survivors shrink() past the dead "
             "rank and verify the post-shrink checksum",
    )
    parser.add_argument(
        "--rejoin", action="store_true",
        help="with --elastic: the killed rank then rejoins and the regrown "
             "world re-verifies the full-world checksum (thread backend)",
    )
    parser.add_argument(
        "--network", default="tiered:gige", metavar="SPEC",
        help="replay model for the topology column: a preset name, a "
             "'tiered:INTRA/INTER' spec, or 'calibrated:<path.json>' "
             "written by `python -m repro calibrate` — e.g. "
             "--network calibrated:results/calibrated_network.json replays "
             "under the model fitted on this machine (default: tiered:gige)",
    )
    parser.add_argument(
        "--overlap", action="store_true",
        help="demo the chunked non-blocking hierarchy instead: ssar_hier/"
             "dsar_hier at several chunk counts, verified bit-identical to "
             "the unchunked run, with the predicted pipelined makespan",
    )
    args = parser.parse_args()
    if args.rejoin and not args.elastic:
        parser.error("--rejoin requires --elastic")
    if args.rejoin and args.backend != "thread":
        parser.error(
            "--rejoin runs on the thread backend only; a process rank rejoins "
            "through `python -m repro serve-rank --rejoin`"
        )
    if args.overlap:
        overlap_demo(args)
        return
    backend = args.backend
    topology = Topology.from_spec(args.topology) if args.topology else None
    fault_plan = FaultPlan.from_spec(args.fault_plan) if args.fault_plan else None
    if fault_plan:
        print(f"fault injection active: {fault_plan.describe()}\n")
    if args.elastic:
        elastic_demo(args, fault_plan)
        return

    reference = reduce_streams([make_contribution(r) for r in range(P)]).to_dense()

    topo_note = f", topology={topology.describe()}" if topology else ""
    print(f"P={P} ranks, N={DIMENSION}, k={NNZ} nonzeros/rank "
          f"(d={NNZ / DIMENSION:.3%}), backend={backend}{topo_note}\n")
    tiered_model = resolve_network(args.network)
    tier_label = "gige-2tier" if args.network == "tiered:gige" else tiered_model.name[:10]
    inter_col = f"{'MB inter':>10}" if topology else ""
    tier_col = f"{tier_label:>12}" if topology else ""
    header = (
        f"{'algorithm':<20}{'correct':<9}{'MB sent':>9}{inter_col}"
        f"{'aries':>12}{'gige':>12}{tier_col}"
    )
    print(header)
    print("-" * len(header))

    def report(algo, out, correct):
        t_aries = replay(out.trace, ARIES).makespan
        t_gige = replay(out.trace, GIGE).makespan
        inter = (
            f"{inter_node_bytes(out.trace, topology) / 1e6:>10.2f}" if topology else ""
        )
        tiered = (
            f"{replay(out.trace, tiered_model, topology=topology).makespan * 1e3:>10.2f}ms"
            if topology
            else ""
        )
        print(
            f"{algo:<20}{str(correct):<9}"
            f"{out.trace.total_bytes_sent / 1e6:>9.2f}{inter}"
            f"{t_aries * 1e6:>10.1f}us{t_gige * 1e3:>10.2f}ms{tiered}"
        )

    def launch(prog):
        try:
            return run_ranks(
                prog, P, backend=backend, topology=topology,
                op_timeout=args.op_timeout, fault_plan=fault_plan,
            )
        except RankError as exc:
            cause = exc.__cause__
            print(f"\nrank failure under injection: {type(cause).__name__}: {cause}")
            sys.exit(1)

    sparse_algos = ["ssar_rec_dbl", "ssar_split_ag", "ssar_ring", "dsar_split_ag"]
    if topology:
        sparse_algos.extend(["ssar_hier", "dsar_hier"])
    sparse_algos.append("auto")
    for algo in sparse_algos:
        def program(comm, algo=algo):
            return sparse_allreduce(comm, make_contribution(comm.rank), algorithm=algo)

        out = launch(program)
        correct = all(np.allclose(out[r].to_dense(), reference, atol=1e-4) for r in range(P))
        report(algo, out, correct)

    for algo in ["dense_rec_dbl", "dense_ring", "dense_rabenseifner"]:
        def dense_program(comm, algo=algo):
            return dense_allreduce(comm, make_contribution(comm.rank).to_dense(), algorithm=algo)

        out = launch(dense_program)
        correct = all(np.allclose(out[r], reference, atol=1e-4) for r in range(P))
        report(algo, out, correct)

    print("\nAt this density the static-sparse algorithms move ~100x fewer bytes")
    print("than any dense allreduce — the headline effect of the paper.")
    if topology:
        print("With a multi-rank multi-host topology, ssar_hier (what 'auto' now")
        print("picks) also moves the fewest bytes across the slow inter-host tier,")
        print("and the gige-2tier column shows the payoff in replayed *time*: under")
        print("the two-tier model each host's shared uplink serializes concurrent")
        print("inter-node sends, so the hierarchical schedules come out fastest.")


if __name__ == "__main__":
    main()
