"""Sampled CPU profile of a rank in a workload-shaped allreduce loop (``make profile``).

Forks a world on a process-family backend, runs a few untimed warm-up
steps and a barrier, then samples every rank's CPU while it runs
``--steps`` blocking sparse allreduces of one ``--nnz``-pair float32
stream per rank (the shape of ``bench/run.py --workload latency_bound``
by default; ``--qsgd-bits`` passes every step a seeded
``QSGDQuantizer(bits, 512)``, the dense stage of ``dense_quant``). Prints,
per function, its self and inclusive CPU in µs per rank per step, summed
over ranks and divided by them.

How it samples: an ``ITIMER_PROF`` timer raises ``SIGPROF`` per
millisecond of the process's CPU time (user + system), so a rank asleep
in ``poll`` is not sampled and a syscall is charged to the Python frame
that made it. The kernel's tick sets the real rate (~250 samples per
CPU-second on a 250 Hz kernel, whatever the timer asks), so each
sample is priced at the rank's measured CPU over its count, not at the
interval. The handler counts the interrupted frame (self) and every
distinct function on its stack up to the loop's (inclusive). Only a rank's main thread is
sampled: a Python signal handler runs there.

Where it mis-attributes: a ``SIGPROF`` that lands in a C call is handled
at the interpreter's next check — a function entry or a loop back-edge —
so a small accessor entered right after a C call takes that call's
samples. Read a tiny function's self time as its caller's.

    python tools/profile_rank.py                         # latency_bound's shape, 6 000 steps
    python tools/profile_rank.py --steps 300 --top 10    # a quick look
    python tools/profile_rank.py --backend shmem --nnz 4096 --algorithm ssar_split_ag
    python tools/profile_rank.py --nnz 262144 --algorithm dsar_split_ag --qsgd-bits 8  # dense_quant's shape
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro import SparseStream, run_ranks, sparse_allreduce  # noqa: E402
from repro.quant import QSGDQuantizer  # noqa: E402

BACKENDS = ("process", "shmem", "socket")
WARMUP_STEPS = 3
#: ``ITIMER_PROF`` period (s); the kernel's tick caps the rate it gets
INTERVAL_S = 0.001
#: seeds each rank's stream, ``default_rng([SEED, rank])``, and its quantizer
SEED = 7
#: entries per QSGD bucket with ``--qsgd-bits`` (``dense_quant``'s)
QSGD_BUCKET = 512


def _where(code) -> str:
    """``file.py:function`` of a code object."""
    return f"{Path(code.co_filename).name}:{code.co_name}"


def _rank(comm, args: argparse.Namespace) -> dict:
    """One rank: warm up, then sample ``args.steps`` steps."""
    stream = SparseStream.random_uniform(
        args.dimension, args.nnz, np.random.default_rng([SEED, comm.rank])
    )
    quantizer = QSGDQuantizer(args.qsgd_bits, QSGD_BUCKET, seed=SEED) if args.qsgd_bits else None
    for _ in range(WARMUP_STEPS):
        sparse_allreduce(comm, stream, algorithm=args.algorithm, quantizer=quantizer)
    comm.barrier()
    own, inclusive, loop = Counter(), Counter(), _rank.__code__

    def sample(signum, frame) -> None:
        if frame is None:
            return
        own[frame.f_code] += 1
        seen = set()
        while frame is not None:
            seen.add(frame.f_code)
            if frame.f_code is loop:  # nothing above the loop
                break
            frame = frame.f_back
        inclusive.update(seen)

    previous = signal.signal(signal.SIGPROF, sample)
    cpu = time.process_time()
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        for _ in range(args.steps):
            sparse_allreduce(comm, stream, algorithm=args.algorithm, quantizer=quantizer)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        cpu = time.process_time() - cpu
        signal.signal(signal.SIGPROF, previous)
    return {
        "cpu_s": cpu,
        "samples": sum(own.values()),
        "self": {_where(c): n for c, n in own.items()},
        "inclusive": {_where(c): n for c, n in inclusive.items()},
    }


def profile(args: argparse.Namespace) -> dict:
    """Run the sampled loop; per-function µs per rank per step, summed over ranks."""
    wall = time.perf_counter()
    reports = run_ranks(_rank, args.nranks, args, backend=args.backend).results
    wall = time.perf_counter() - wall
    own, inclusive = Counter(), Counter()
    for report in reports:
        if not report["samples"]:
            continue
        # one sample is the rank's CPU over its samples, in µs per step of the loop
        us = report["cpu_s"] / report["samples"] * 1e6 / args.steps / args.nranks
        for name, n in report["self"].items():
            own[name] += n * us
        for name, n in report["inclusive"].items():
            inclusive[name] += n * us
    return {
        "cpu_us_per_rank_step": sum(r["cpu_s"] for r in reports) * 1e6 / args.steps / args.nranks,
        "samples": sum(r["samples"] for r in reports),
        "wall_s": wall,
        "self": own,
        "inclusive": inclusive,
    }


def _table(title: str, rows: Counter, top: int) -> list[str]:
    lines = [f"{title:<56} {'µs':>8}"]
    lines += [f"  {name:<54} {us:8.2f}" for name, us in rows.most_common(top)]
    return lines


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="profile_rank.py", description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--backend", choices=BACKENDS, default="socket")
    parser.add_argument("--nranks", type=int, default=4)
    parser.add_argument("--nnz", type=int, default=128, help="pairs per rank's stream")
    parser.add_argument("--dimension", type=int, default=1 << 20)
    parser.add_argument("--algorithm", default="ssar_rec_dbl")
    parser.add_argument("--steps", type=int, default=6000)
    parser.add_argument("--qsgd-bits", type=int, choices=(0, 2, 4, 8), default=0,
                        help="QSGD bits of every step's quantizer (0: none)")
    parser.add_argument("--top", type=int, default=30, help="rows per table")
    args = parser.parse_args(argv)
    if args.steps < 1 or args.nranks < 2:
        parser.error("--steps must be >= 1 and --nranks >= 2")
    out = profile(args)
    quantized = f", QSGD {args.qsgd_bits} bit / {QSGD_BUCKET}" if args.qsgd_bits else ""
    print(
        f"{args.backend}, P = {args.nranks}, {args.algorithm}{quantized}, {args.nnz} nnz of "
        f"{args.dimension}: {args.steps} steps in {out['wall_s']:.1f} s, "
        f"{out['samples']} samples"
    )
    print(f"CPU per rank per step: {out['cpu_us_per_rank_step']:.1f} µs")
    print("\n".join(_table("self (file:function)", out["self"], args.top)))
    print("\n".join(_table("inclusive (file:function)", out["inclusive"], args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
