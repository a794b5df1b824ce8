"""The rank profiler (``tools/profile_rank.py``, ``make profile``): a short
sampled run on a process-family backend prints both tables."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "profile_rank.py"
_spec = importlib.util.spec_from_file_location("repo_profile_rank", _PATH)
profile_rank = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_rank)


def test_a_short_profile_prints_self_and_inclusive_time(capsys):
    assert profile_rank.main(["--steps", "300", "--top", "5"]) == 0
    out = capsys.readouterr().out
    head, cpu, *rest = out.splitlines()
    assert head.startswith("socket, P = 4, ssar_rec_dbl, 128 nnz of 1048576: 300 steps")
    assert cpu.startswith("CPU per rank per step:") and float(cpu.split()[-2]) > 0
    assert "self (file:function)" in rest[0] and any(line.startswith("inclusive") for line in rest)


def test_a_quantized_dsar_profile_samples_the_quantizer(capsys):
    """``--qsgd-bits`` puts QSGD on every step: ``dense_quant``'s dense stage."""
    argv = ["--nnz", "16384", "--dimension", str(1 << 16), "--algorithm", "dsar_split_ag",
            "--qsgd-bits", "8", "--steps", "300", "--top", "1000"]
    assert profile_rank.main(argv) == 0
    head, _, *rest = capsys.readouterr().out.splitlines()
    assert head.startswith("socket, P = 4, dsar_split_ag, QSGD 8 bit / 512, 16384 nnz of 65536")
    inclusive = rest[[line.startswith("inclusive") for line in rest].index(True):]
    assert any(line.split()[0] == "qsgd.py:quantize" for line in inclusive[1:])


def test_the_tables_add_up():
    """A function's inclusive time is at least its self time, and no
    function takes more than all of a rank's CPU."""
    args = profile_rank.main.__globals__["argparse"].Namespace(
        backend="shmem", nranks=2, nnz=64, dimension=1 << 12, algorithm="ssar_rec_dbl",
        steps=300, top=5, qsgd_bits=0,
    )
    out = profile_rank.profile(args)
    assert out["cpu_us_per_rank_step"] > 0
    for name, us in out["self"].items():
        assert us <= out["inclusive"][name] + 1e-9
    assert max(out["inclusive"].values(), default=0.0) <= out["cpu_us_per_rank_step"] * (1 + 1e-9)


@pytest.mark.parametrize(
    "argv", [["--steps", "0"], ["--nranks", "1"], ["--backend", "thread"], ["--qsgd-bits", "3"]]
)
def test_bad_arguments_are_refused(argv):
    with pytest.raises(SystemExit):
        profile_rank.main(argv)
