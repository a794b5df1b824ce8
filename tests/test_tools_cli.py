"""Tests for the sweep tooling and the ``python -m repro`` CLI."""

import pytest

from repro.netsim import ARIES
from repro.collectives import ALGORITHMS, DENSE_ALGORITHMS
from repro.tools import ALGORITHM_SET, build_parser, main, sweep_node_counts


class TestSweeps:
    def test_node_sweep_structure(self):
        points = sweep_node_counts(
            [2, 4], dimension=4096, density=0.01,
            algorithms=["ssar_rec_dbl", "dense_ring"],
        )
        assert len(points) == 4
        assert {p.algorithm for p in points} == {"ssar_rec_dbl", "dense_ring"}
        assert {p.nranks for p in points} == {2, 4}
        assert all(p.time_s > 0 and p.bytes_sent > 0 for p in points)

    def test_sparse_wins_in_sweep(self):
        points = sweep_node_counts(
            [4], dimension=1 << 16, density=0.005,
            algorithms=["ssar_rec_dbl", "dense_rabenseifner"], network="aries",
        )
        by_algo = {p.algorithm: p for p in points}
        assert by_algo["ssar_rec_dbl"].time_s < by_algo["dense_rabenseifner"].time_s

    def test_network_model_object_accepted(self):
        points = sweep_node_counts(
            [2], dimension=1024, density=0.01,
            algorithms=["ssar_rec_dbl"], network=ARIES.with_(alpha=1e-3),
        )
        assert points[0].time_s >= 1e-3  # dominated by the huge alpha

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithms"):
            sweep_node_counts([2], dimension=64, algorithms=["nope"])

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            sweep_node_counts([2], dimension=64, network="token-ring")

    def test_deterministic_given_seed(self):
        kwargs = dict(dimension=2048, density=0.01, algorithms=["ssar_rec_dbl"], seed=7)
        a = sweep_node_counts([2], **kwargs)
        b = sweep_node_counts([2], **kwargs)
        assert a[0].time_s == b[0].time_s
        assert a[0].bytes_sent == b[0].bytes_sent

    def test_algorithm_set_complete(self):
        assert set(ALGORITHM_SET) == {
            "ssar_rec_dbl", "ssar_split_ag", "ssar_ring", "ssar_hier",
            "dsar_split_ag", "dsar_hier",
            "dense_rabenseifner", "dense_ring", "dense_rec_dbl",
        }
        assert {name: fn for name, (_, fn) in ALGORITHM_SET.items()} == {
            **ALGORITHMS, **DENSE_ALGORITHMS
        }

    def test_tiered_network_spec_accepted(self):
        """A tiered spec resolves and the tiered replay rewards hierarchy:
        with simulated hosts the hier row beats flat recursive doubling."""
        points = sweep_node_counts(
            [8], dimension=1 << 14, density=0.02,
            algorithms=["ssar_hier", "ssar_rec_dbl"], network="tiered:gige",
            ranks_per_node=4,
        )
        by_algo = {p.algorithm: p for p in points}
        assert by_algo["ssar_hier"].time_s < by_algo["ssar_rec_dbl"].time_s

    def test_tiered_preset_name_accepted(self):
        points = sweep_node_counts(
            [2], dimension=1024, density=0.01,
            algorithms=["ssar_rec_dbl"], network="tiered_gige",
        )
        assert points[0].time_s > 0

    def test_dsar_hier_sweep_row(self):
        points = sweep_node_counts(
            [4], dimension=2048, density=0.2, algorithms=["dsar_hier"],
            network="tiered:ib_fdr", ranks_per_node=2,
        )
        assert points[0].bytes_sent > 0 and points[0].time_s > 0

    def test_ranks_per_node_enables_hier_sweep(self):
        points = sweep_node_counts(
            [4], dimension=2048, density=0.01,
            algorithms=["ssar_hier", "ssar_rec_dbl"], ranks_per_node=2,
        )
        by_algo = {p.algorithm: p for p in points}
        assert by_algo["ssar_hier"].bytes_sent > 0
        # fewer messages than flat recursive doubling on a 2x2 world
        assert by_algo["ssar_hier"].messages <= by_algo["ssar_rec_dbl"].messages


class TestCLI:
    def test_commands_are_sweep_nodes_calibrate_serve_rank(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{sweep-nodes,calibrate,serve-rank}" in capsys.readouterr().out

    def test_sweep_nodes_command(self, capsys):
        code = main([
            "sweep-nodes", "--dimension", "4096", "--nodes", "2",
            "--algorithms", "ssar_rec_dbl",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ssar_rec_dbl" in out
        assert "nranks=2" in out

    def test_parser_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep-nodes", "--algorithms", "bogus"])

    def test_sweep_rejects_unknown_network(self, capsys):
        rc = main(["sweep-nodes", "--dimension", "64", "--nodes", "2",
                   "--network", "token-ring"])
        assert rc == 2
        assert "network" in capsys.readouterr().err

    def test_sweep_accepts_tiered_network_spec(self, capsys):
        rc = main([
            "sweep-nodes", "--dimension", "1024", "--nodes", "2",
            "--network", "tiered:gige", "--algorithms", "ssar_rec_dbl",
        ])
        assert rc == 0
        assert "ssar_rec_dbl" in capsys.readouterr().out

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
