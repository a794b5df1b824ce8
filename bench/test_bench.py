"""Checks on the benchmark itself (opt-in: outside pyproject's testpaths).

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def test_manifest_shape():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["bench"]
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    # 4 + 22 runs per workload, set-up included, inside the gate's 3420 s
    runs = 4 + 22 * len(MANIFEST["workloads"])
    assert runs * (MANIFEST["run_seconds"] + 12) < 3420


def test_names_units_bounds():
    names = []
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in MANIFEST["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_every_layer_metric_names_its_target():
    assert [w["name"] for w in MANIFEST["workloads"]] == [w.name for w in workloads.WORKLOADS]
    assert [m["name"] for m in MANIFEST["per_layer"]] == list(layers.TARGETS)
    end_to_end = {m["name"] for m in MANIFEST["end_to_end"]}
    targets = {w.name for w in workloads.WORKLOADS} | {"same", "none"}
    for name, (metric, workload) in layers.TARGETS.items():
        assert metric in end_to_end, name
        assert workload in targets, name


def _round(step_ms: float, slowdown: float = 1.0, robbed: int = 0, stall_every: int = 0):
    """A healthy one-rank round of 20 batches of 20 steps, as ``run_round``
    would return it; the hypervisor withheld a tick during ``robbed`` of the
    batches and those ran three times slower."""
    durations = np.full(400, step_ms / 1e3)
    durations[: 20 * robbed] *= 3.0
    if stall_every:
        durations[::stall_every] *= 30.0
    durations *= slowdown
    batches = [
        (20, 20, int(b < robbed), 1.5 * durations[20 * b: 20 * b + 20].sum()) for b in range(20)
    ]
    report = {
        "durations": durations, "batches": np.asarray(batches, dtype=float),
        "host_ref_s": np.full(40, harness.REF_NOMINAL_S * slowdown),
        "loop_wall_s": durations.sum(), "pid": 1, "maxrss_kb": 102_400, "sent_bytes": 400_000,
    }
    stolen = robbed * harness.TICK_S / durations.sum()
    return harness.Round(durations.sum() + 0.5 * slowdown, stolen, reports=[report])


def test_durations_are_host_speed_corrected():
    calm = harness.end_to_end([_round(2.0) for _ in range(6)]).metrics
    slow = harness.end_to_end([_round(2.0, slowdown=1.0 + 0.1 * i) for i in range(6)]).metrics
    assert slow == pytest.approx(calm)
    assert calm["step_ms_p50"] == pytest.approx(2.0) and calm["setup_s"] == pytest.approx(0.5)
    assert calm["steps_per_s"] == pytest.approx(500.0) and calm["cpu_ms_per_step"] == pytest.approx(3.0)


def test_timings_come_from_the_batches_the_hypervisor_left_alone():
    some = harness.end_to_end([_round(2.0, robbed=12) for _ in range(6)])
    assert some.metrics["step_ms_p90"] == pytest.approx(2.0)
    assert some.metrics["steps_per_s"] == pytest.approx(500.0)
    assert some.samples["batches"] == [48, 120] and "calmest 48" in some.notes[0]
    # with fewer than a quarter left alone, the calmest quarter is what there is
    most = harness.end_to_end([_round(2.0, robbed=18) for _ in range(6)])
    assert most.samples["batches"] == [30, 120]
    assert most.metrics["step_ms_p50"] == pytest.approx(6.0)
    assert most.metrics["cpu_ms_per_step"] == pytest.approx(9.0)
    assert some.attempted == most.attempted == 2400


def test_intermittent_stalls_move_the_tail_and_the_throughput():
    clean = harness.end_to_end([_round(2.0) for _ in range(6)])
    stalled = harness.end_to_end([_round(2.0, stall_every=8) for _ in range(6)])
    assert stalled.metrics["step_ms_p50"] == pytest.approx(2.0)
    assert stalled.metrics["step_ms_p90"] == pytest.approx(60.0)
    assert stalled.metrics["steps_per_s"] < 0.25 * clean.metrics["steps_per_s"]
    assert stalled.samples["stalls"] == 300 and not clean.notes


def test_quick_run_is_correct_and_complete():
    proc = _run("--quick", "--workload", "latency_bound", "--seed", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in MANIFEST["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_a_tree_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "latency_bound", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_no_process_outlives_the_run():
    """The resource tracker that ``SharedMemory`` starts used to end only
    after its parent had: the gate refuses a run that leaves a process."""
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from multiprocessing import shared_memory\n"
        "import harness\n"
        "seg = shared_memory.SharedMemory(create=True, size=64); seg.close(); seg.unlink()\n"
        "started = harness._children_of(harness.os.getpid())\n"
        "harness.stop_children()\n"
        "print(len(started), len(harness._children_of(harness.os.getpid())))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, check=False,
    )
    assert proc.stdout.split() == ["1", "0"], proc.stdout + proc.stderr
