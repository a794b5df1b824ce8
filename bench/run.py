#!/usr/bin/env python3
"""The repo benchmark (see README.md and ../BENCHMARK.json).

Gate form, one workload per process, the last stdout line a JSON result::

    python3 bench/run.py --workload merge_bound --seed 1 --seconds 20 --trace 0

Developer forms::

    python3 bench/run.py                # timed run of all four workloads
    python3 bench/run.py --traced       # per-layer run of all four
    python3 bench/run.py --quick        # one short round each (smoke)
    python3 bench/run.py --aa           # two sets of gate runs, spreads vs bounds
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no library to measure under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
#: timed rounds per run: each launches a fresh world, so a run sets up this
#: many times and reports the median
ROUNDS = 6
#: gate runs per side of an A/A, as the gate makes them
AA_RUNS = 10
RESULTS_DIR = HERE / "results"


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def run_timed(workloads, seed: int, seconds: float, rounds: int) -> dict[str, harness.Outcome]:
    """Tracing off. Rounds interleave across workloads (A B C D A B ...) so
    that drift lasting seconds lands on all of them alike."""
    inputs = {w.name: w.inputs(seed) for w in workloads}
    done: dict[str, list] = {w.name: [] for w in workloads}
    for _ in range(rounds):
        for w in workloads:
            done[w.name].append(harness.run_round(w, inputs[w.name], seconds / rounds))
    return {name: harness.end_to_end(rnds) for name, rnds in done.items()}


def guarded(block, *args) -> "tuple[dict[str, float], str | None]":
    """``block(*args)`` and no note, or no metrics and why it died: a block
    that fails (the shmem small-frame hazards) costs its own metrics, not
    the run."""
    try:
        return block(*args), None
    except Exception as exc:  # noqa: BLE001
        harness.reap_world(set())
        return {}, f"{block.__name__}: {type(exc).__name__}: {exc}"


def run_traced(workloads, seed: int, seconds: float) -> dict[str, harness.Outcome]:
    """Per-layer numbers: every layer's reference block once, then an
    untraced and a traced round of each workload."""
    train_inputs = BY_NAME["async_train"].inputs(seed)
    absent: list[str] = []  # notes on backends this host does not have
    reference = [
        guarded(layers.wire_block),
        guarded(layers.transport_block, absent),
        guarded(layers.socket_world_block),
        guarded(layers.local_block, train_inputs[0]),
        guarded(layers.mlopt_block, train_inputs),
    ]
    outcomes = {}
    for w in workloads:
        inputs = train_inputs if w.name == "async_train" else w.inputs(seed)
        untraced = harness.run_round(w, inputs, seconds / ROUNDS)
        recorder = SpanRecorder()
        with recorder.installed():
            traced = harness.run_round(w, inputs, seconds / ROUNDS, recorder)
        outcome = harness.end_to_end([untraced, traced])
        blocks = list(reference)
        if not outcome.failed:
            blocks.append((layers.attribution(w, inputs, untraced, traced), None))
            blocks.append(guarded(layers.dense_baseline, w, inputs))
        metrics = dict.fromkeys(units(True), 0.0)
        for measured, _note in blocks:
            metrics.update(measured)
        failures = [note for _measured, note in blocks if note is not None]
        outcomes[w.name] = harness.Outcome(
            metrics,
            outcome.attempted + len(blocks),
            outcome.failed + len(failures),
            outcome.notes + failures + absent
            + [f"span target missing: {t}" for t in recorder.missing],
            outcome.samples,
        )
    return outcomes


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def units(trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in MANIFEST["per_layer" if trace else "end_to_end"]}


def result_object(outcome: harness.Outcome, trace: bool) -> dict:
    """The gate's result line for one workload."""
    unit = units(trace)
    return {
        "correct": outcome.failed == 0 and set(outcome.metrics) == set(unit),
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit[name]}
            for name in unit if name in outcome.metrics
        },
    }


def print_table(outcomes: dict[str, harness.Outcome], trace: bool) -> None:
    unit = units(trace)
    for name, outcome in outcomes.items():
        s = outcome.samples
        slowdown = statistics.median(s.get("host_slowdown", [0.0]))
        print(f"\n== {name}: {s.get('steps', 0)} timed steps in {s.get('rounds', 0)} rounds, "
              f"host-speed pass at {slowdown:.2f}x its nominal time (durations are divided by that), "
              f"failed_steps_frac = {outcome.failed}/{max(1, outcome.attempted)}")
        for metric in unit:
            if metric in outcome.metrics:
                print(f"  {metric:44s} {outcome.metrics[metric]:16.6g} {unit[metric]}")
        for note in outcome.notes:
            print(f"  ! {note}")


def write_result(args, host: harness.HostFacts, outcomes, trace: bool) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    doc = {
        "host": host.to_dict(),
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": 2 if trace else args.rounds,
        "trace": trace,
        "workloads": {
            name: {**result_object(o, trace), "samples": o.samples, "notes": o.notes}
            for name, o in outcomes.items()
        },
    }
    path = RESULTS_DIR / f"{'traced' if trace else 'timed'}-{'-'.join(outcomes)}-seed{args.seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


# ----------------------------------------------------------------------
# A/A: the gate's own acceptance procedure, run on one tree
# ----------------------------------------------------------------------
def gate_run(workload: str, seed: int, seconds: float) -> "dict[str, float] | None":
    """One gate-form run in a process of its own; ``None`` unless it ended
    with a correct result line holding every end-to-end metric."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {name: result["metrics"][name]["value"] for name in units(False)}
    except (IndexError, ValueError, KeyError, TypeError):
        result, values = None, None
    if values is None or not result.get("correct"):
        print(f"{workload} seed {seed}: no correct result (exit {proc.returncode})\n"
              f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return values


def run_aa(seed: int, seconds: float) -> int:
    """Two sides of :data:`AA_RUNS` gate runs per workload, a new seed each
    run, the second side after the whole of the first as the gate does it.

    Fails when a run is incorrect, when a metric's interquartile spread (as
    a share of its median) exceeds its bound on either side, or when the
    second side's median is worse than the first's by more than the bound.
    What was measured goes to ``noise.json`` beside this file.
    """
    host = harness.HostFacts()
    sides: list[dict[str, list]] = []
    for side in range(2):
        sides.append({})
        for w in WORKLOADS:
            first = seed + side * AA_RUNS
            sides[side][w.name] = [gate_run(w.name, first + i, seconds) for i in range(AA_RUNS)]
    ok = True
    noise: dict[str, dict] = {}
    for w in WORKLOADS:
        good = [[run for run in side[w.name] if run is not None] for side in sides]
        noise[w.name] = {"failed_runs": [AA_RUNS - len(runs) for runs in good]}
        if min(len(runs) for runs in good) < 2:  # no quartiles to take
            ok = False
            continue
        ok &= all(len(runs) == AA_RUNS for runs in good)
        for spec in MANIFEST["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            q = [statistics.quantiles([run[metric] for run in runs], n=4) for runs in good]
            spreads = [(q3 - q1) / median for q1, median, q3 in q]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            drift = sign * (q[1][1] - q[0][1]) / q[0][1]
            within = drift <= bound and (metric == "setup_s" or max(spreads) <= bound)
            ok &= within
            noise[w.name][metric] = {"quartiles": q, "spread": spreads, "drift": drift, "bound": bound}
            print(f"{w.name:14s} {metric:20s} median {q[0][1]:12.5g} | {q[1][1]:12.5g}  "
                  f"spread {spreads[0]:6.2%} | {spreads[1]:6.2%}  drift {drift:+7.2%}  "
                  f"bound {bound:.0%}  {'ok' if within else 'FAIL'}")
    doc = {"runs_per_side": AA_RUNS, "seconds": seconds, "seed": seed,
           "host": host.to_dict(), "workloads": noise}
    (HERE / "noise.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), help="gate form: run only this one")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(MANIFEST["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true", help="one 2 s round per workload")
    parser.add_argument("--aa", action="store_true", help="two sets of gate runs on this tree")
    args = parser.parse_args(argv)
    args.rounds = ROUNDS
    if args.quick:
        args.seconds, args.rounds = 2.0, 1
    if args.aa:
        return run_aa(args.seed, args.seconds)

    trace = bool(args.trace or args.traced)
    workloads = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    host = harness.HostFacts()
    t0 = time.perf_counter()
    if trace:
        outcomes = run_traced(workloads, args.seed, args.seconds)
    else:
        outcomes = run_timed(workloads, args.seed, args.seconds, args.rounds)
    print_table(outcomes, trace)
    path = write_result(args, host, outcomes, trace)
    print(f"\n{time.perf_counter() - t0:.1f} s; result written to {path.relative_to(ROOT)}")
    results = {name: result_object(o, trace) for name, o in outcomes.items()}
    if args.workload:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


def _terminated(signum, _frame):
    if os.getpid() != MAIN_PID:  # a forked rank inherits this handler
        os._exit(128 + signum)
    raise SystemExit(128 + signum)  # so that the clean-up below still runs


if __name__ == "__main__":
    MAIN_PID = os.getpid()
    signal.signal(signal.SIGTERM, _terminated)
    try:
        code = main()
    finally:
        # no process of this run may outlive it, whichever way it ends
        harness.stop_children()
    sys.exit(code)
