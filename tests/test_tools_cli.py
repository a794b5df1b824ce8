"""Tests for the ``python -m repro`` CLI: ``calibrate`` and ``serve-rank``."""

import pytest

from repro.tools import build_parser, main


class TestCLI:
    def test_commands_are_calibrate_serve_rank(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{calibrate,serve-rank}" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestServeRankElasticFlags:
    _BASE = ["serve-rank", "--rendezvous", "h:29400", "--nranks", "2"]

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [*self._BASE, "--rank", "1", "--elastic", "--rejoin"]
        )
        assert args.elastic is True
        assert args.rejoin is True

    def test_flags_default_off(self):
        args = build_parser().parse_args([*self._BASE, "--rank", "1"])
        assert args.elastic is False
        assert args.rejoin is False

    def test_rank0_rejoin_rejected(self, capsys):
        rc = main([*self._BASE, "--rank", "0", "--rejoin"])
        assert rc == 2
        assert "--rejoin" in capsys.readouterr().err

    def test_two_rank_elastic_run_through_main(self, capsys):
        # end-to-end: the CLI path wires --elastic through to serve_rank
        # (rank 0 keeps the rendezvous daemon alive until its program ends)
        import socket as socketlib
        import threading

        with socketlib.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        codes: dict[int, int] = {}

        def rank_main(rank: int) -> None:
            codes[rank] = main([
                "serve-rank", "--rendezvous", f"127.0.0.1:{port}",
                "--rank", str(rank), "--nranks", "2",
                *(["--elastic"] if rank == 0 else []),
            ])

        threads = [
            threading.Thread(target=rank_main, args=(r,), daemon=True)
            for r in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
        assert codes == {0: 0, 1: 0}
        assert "finished" in capsys.readouterr().out
