"""Driver side of the benchmark: launch one world at a time, survive its
failures, and reduce the rank reports to the end-to-end metrics.

The driver process only waits while a world runs and never runs two
worlds at once: with four ranks on two cores a busy driver would be a
fifth competitor for the CPUs being measured.
"""

from __future__ import annotations

import glob
import math
import multiprocessing
import os
import platform
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro import run_ranks

from workloads import P, steal_ticks

#: a blocked send/recv becomes a typed CommTimeoutError after this long
OP_TIMEOUT_S = 20.0
#: run watchdog: the loop budget plus this much for spawn, warm-up and shipping
ROUND_SLACK_S = 60.0


#: what one pass of workloads.HostSpeed takes on this host in a calm phase;
#: durations are reported as if every round had run at this speed
REF_NOMINAL_S = 0.30e-3
#: a step this many times the round's median is reported as a stall
STALL_FACTOR = 20.0
#: the timing metrics come from the batches of the loop during which the
#: hypervisor withheld no CPU time (``steal`` in /proc/stat); where those are
#: fewer than this share of all batches, from this share, the calmest first
CALM_SHARE = 0.25
#: a round during which more than this share of the CPUs was withheld is
#: left out of the set-up time
STEAL_LIMIT = 0.005
TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


@dataclass
class Batch:
    """One batch of a round's loop, all ranks together, at nominal host speed."""

    stolen_s: float  # CPU seconds the hypervisor withheld from the host meanwhile
    step_ms: np.ndarray  # the timed steps; the slowest rank sets each
    loop_s: float  # their summed duration on the slowest rank
    cpu_s: float  # user+sys CPU of every rank process
    executed: int  # steps run; async_train runs more than it can time

    @property
    def stolen_share(self) -> float:
        return self.stolen_s / self.loop_s


@dataclass
class Round:
    """One world's outcome: its rank reports, or why it died."""

    wall_s: float
    stolen: float  # share of the host's CPU time the hypervisor withheld meanwhile
    reports: "list[dict] | None" = None
    error: "str | None" = None  # launch/rank failure, timeout, or oracle verdict

    @property
    def steps(self) -> int:
        """Timed steps."""
        return 0 if self.reports is None else int(self.reports[0]["durations"].size)

    @property
    def executed(self) -> int:
        """Steps run inside the loop."""
        return int(self.reports[0]["batches"][:, 1].sum())

    @cached_property
    def slowdown(self) -> float:
        """How much slower than nominal the host ran during this round: the
        median :class:`workloads.HostSpeed` pass over all ranks. Every
        duration of the round is divided by it."""
        passes = np.concatenate([r["host_ref_s"] for r in self.reports])
        return float(np.median(passes)) / REF_NOMINAL_S

    @cached_property
    def step_samples_ms(self) -> np.ndarray:
        """The slowest rank sets each step."""
        return np.max([r["durations"] for r in self.reports], axis=0) * 1e3 / self.slowdown

    @cached_property
    def batches(self) -> list[Batch]:
        """The loop's batches as ``workloads.timed_loop`` reports them, the
        ranks' rows of each put together."""
        per_rank = [r["batches"] for r in self.reports]
        ends = np.cumsum(per_rank[0][:, 0]).astype(int)
        out = []
        for b, (start, end) in enumerate(zip(np.concatenate([[0], ends[:-1]]), ends)):
            # pump and progress threads are in a process's CPU time, and
            # thread-backend ranks share one pid and one clock
            cpu_by_pid: dict[int, float] = {}
            for r, rows in zip(self.reports, per_rank):
                cpu_by_pid[r["pid"]] = max(cpu_by_pid.get(r["pid"], 0.0), rows[b, 3])
            out.append(Batch(
                stolen_s=max(rows[b, 2] for rows in per_rank) * TICK_S,
                step_ms=self.step_samples_ms[start:end],
                loop_s=max(float(r["durations"][start:end].sum()) for r in self.reports) / self.slowdown,
                cpu_s=sum(cpu_by_pid.values()) / self.slowdown,
                executed=int(per_rank[0][b, 1]),
            ))
        return out

    @property
    def setup_s(self) -> float:
        """Everything ``run_ranks`` did but the timed loop."""
        return (self.wall_s - max(r["loop_wall_s"] for r in self.reports)) / self.slowdown

    @property
    def peak_rss_mb(self) -> float:
        return max(r["maxrss_kb"] for r in self.reports) / 1024.0


def run_round(workload, inputs, budget_s: float, recorder=None) -> Round:
    """Launch a fresh world, time its loop, check its result, tear it down.

    Never raises on a failed world: a rank error, a hang (``op_timeout`` /
    the run watchdog) or an oracle mismatch comes back as ``Round.error``.
    """
    segments_before = set(glob.glob("/dev/shm/psm_*"))
    t0, steal0 = time.perf_counter(), _steal_s()

    def ended(**outcome) -> Round:
        wall_s = time.perf_counter() - t0
        return Round(wall_s, (_steal_s() - steal0) / (wall_s * os.cpu_count()), **outcome)

    try:
        result = run_ranks(
            workload.program, P, workload, inputs, budget_s, recorder,
            backend=workload.backend,
            topology=workload.topology,
            timeout=budget_s + ROUND_SLACK_S,
            op_timeout=OP_TIMEOUT_S,
        )
    except Exception as exc:  # noqa: BLE001 - the harness outlives any world
        traceback.print_exc(file=sys.stderr)
        reap_world(segments_before)
        return ended(error=f"{type(exc).__name__}: {exc}")
    rnd = ended(reports=list(result.results))
    rnd.error = workload.check(inputs, rnd.reports)
    return rnd


def reap_world(segments_before: set[str]) -> None:
    """Stop what a failed world left behind: child processes and the
    shared-memory rings the shmem backend's parent would have unlinked."""
    _end_ranks()
    for path in set(glob.glob("/dev/shm/psm_*")) - segments_before:
        try:
            os.unlink(path)
        except OSError:
            pass


def _end_ranks() -> None:
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join()


def stop_children() -> None:
    """End every process this one started and wait for each, on the way out.

    The one a healthy run still has is ``multiprocessing``'s resource
    tracker, which the shmem backend's ``SharedMemory`` starts: it ends only
    once its pipe closes, which would otherwise be after this process is
    gone. Anything else still alive (ranks of a world that died) is killed.
    """
    from multiprocessing import resource_tracker

    _end_ranks()
    tracker = resource_tracker._resource_tracker  # noqa: SLF001 - no public stop before 3.13
    fd, tracker._fd = getattr(tracker, "_fd", None), None
    if fd is not None:
        os.close(fd)  # the tracker reads EOF and exits
    me = os.getpid()
    for pid in _children_of(me):
        if pid != getattr(tracker, "_pid", None):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    tracker._pid = None


def _children_of(parent: int) -> list[int]:
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    # pid (comm) state ppid ...; comm may hold spaces and brackets
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            if ppid == parent:
                children.append(int(entry))
    return children


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """The rounds of one workload reduced to the end-to-end metrics."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)  # failures and hazards, in words
    samples: dict = field(default_factory=dict)


def calmest(items: list, stolen, share: float, limit: float = 0.0) -> list:
    """The ``items`` the hypervisor left alone (``stolen(item) <= limit``), or,
    where those are fewer than ``share`` of all, that share, the calmest first."""
    calm = [item for item in items if stolen(item) <= limit]
    wanted = math.ceil(len(items) * share)
    return calm if len(calm) >= wanted else sorted(items, key=stolen)[:wanted]


def end_to_end(rounds: list[Round]) -> Outcome:
    """Host-speed-corrected medians and the pooled p90, over the batches the
    hypervisor left alone."""
    good = [r for r in rounds if r.error is None]
    # a dead round's remaining steps are unknown; it is charged what a
    # healthy round completes (at least one, so failures are never free)
    typical = int(statistics.median(r.steps for r in good)) if good else 1
    failed = sum(max(r.steps, typical, 1) for r in rounds if r.error is not None)
    attempted = failed + sum(r.steps for r in good)
    notes = [r.error for r in rounds if r.error is not None]
    if not good:
        return Outcome({}, attempted, failed, notes)
    # durations come from what ran undisturbed; counts and memory keep all
    batches = [b for r in good for b in r.batches]
    timed = calmest(batches, lambda b: b.stolen_share, CALM_SHARE)
    stolen_s = sum(b.stolen_s for b in batches)
    if len(timed) < len(batches):
        notes.append(
            f"hazard: the hypervisor withheld {stolen_s:.2f} CPU-seconds during "
            f"{len(batches) - sum(b.stolen_s == 0 for b in batches)} of {len(batches)} batches; "
            f"timings are from the calmest {len(timed)}"
        )
    pooled = np.concatenate([b.step_ms for b in timed])
    rss_mb = [r.peak_rss_mb for r in good]
    metrics = {
        "setup_s": statistics.median(
            r.setup_s for r in calmest(good, lambda r: r.stolen, 0.5, STEAL_LIMIT)
        ),
        "step_ms_p50": float(np.median(pooled)),
        "step_ms_p90": float(np.percentile(pooled, 90)),
        # medians over batches, so that one rare multi-second stall does not
        # decide them
        "steps_per_s": statistics.median(b.step_ms.size / b.loop_s for b in timed),
        "cpu_ms_per_step": statistics.median(b.cpu_s * 1e3 / b.executed for b in timed),
        "wire_bytes_per_step": sum(rep["sent_bytes"] for r in good for rep in r.reports)
        / sum(r.executed for r in good),
        # a median, so that one round's blow-up is reported below, not gated on
        "peak_rss_mb": statistics.median(rss_mb),
    }
    if max(rss_mb) > 2 * metrics["peak_rss_mb"]:
        notes.append(f"hazard: a rank peaked at {max(rss_mb):.0f} MB RSS in one round")
    stalls = sum(
        int((r.step_samples_ms > STALL_FACTOR * np.median(r.step_samples_ms)).sum()) for r in good
    )
    if stalls:
        notes.append(f"hazard: {stalls} steps took over {STALL_FACTOR:.0f}x their round's median")
    samples = {
        "rounds": len(good),
        "batches": [len(timed), len(batches)],  # behind the medians, and all
        "steps": int(pooled.size),  # behind the p50 and p90; a tenth lie beyond the p90
        "stalls": stalls,
        "stolen_s": stolen_s,
        "host_slowdown": [r.slowdown for r in good],
        "raw_round_step_ms_p50": [float(np.median(r.step_samples_ms)) * r.slowdown for r in good],
    }
    return Outcome(metrics, attempted, failed, notes, samples)


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------
def _steal_s() -> float:
    """CPU seconds, summed over the CPUs, the hypervisor has withheld so far."""
    return steal_ticks() * TICK_S


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class HostFacts:
    """What the numbers were measured on; warns when the host is already busy."""

    def __init__(self) -> None:
        self.nproc = os.cpu_count() or 1
        self.load_start = os.getloadavg()
        self._steal_start = _steal_s()
        if self.load_start[0] > self.nproc:
            print(
                f"warning: load average {self.load_start[0]:.2f} exceeds nproc={self.nproc}; "
                "timings will be inflated",
                file=sys.stderr,
            )

    def to_dict(self) -> dict:
        return {
            "nproc": self.nproc,
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "loadavg_start": list(self.load_start),
            "loadavg_end": list(os.getloadavg()),
            "steal_s": _steal_s() - self._steal_start,
        }
