"""Tests for network calibration (`repro/costmodel/calibrate.py`) and the
persisted-model plumbing (`save_network`/`load_network`,
`resolve_network("calibrated:<path>")`)."""

import json

import pytest

from repro.costmodel import (
    CostModel,
    Instance,
    SelectionReport,
    calibrate_from_doc,
    fit_alpha_beta,
    fit_gamma,
    run_calibration,
)
from repro.costmodel.calibrate import _PAIR_BYTES, _wire_bytes
from repro.netsim import (
    GIGE,
    PRESETS,
    TIERED_GIGE,
    load_network,
    resolve_network,
    save_network,
)
from repro.netsim.model import DEFAULT_LAUNCH_S, NETWORK_JSON_SCHEMA
from repro.runtime.topology import Topology


class TestFits:
    def test_exact_line_recovered(self):
        alpha, beta = 3e-5, 2e-9
        sizes = [1e3, 1e4, 1e5, 1e6]
        times = [alpha + beta * s for s in sizes]
        fa, fb = fit_alpha_beta(sizes, times)
        assert fa == pytest.approx(alpha)
        assert fb == pytest.approx(beta)

    def test_single_point_is_all_latency(self):
        assert fit_alpha_beta([4096.0], [1e-4]) == (1e-4, 0.0)

    def test_negative_fits_clamped(self):
        # decreasing times give a negative slope; the fit must clamp
        alpha, beta = fit_alpha_beta([1e3, 1e6], [1e-3, 1e-6])
        assert alpha >= 0.0 and beta == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_alpha_beta([], [])
        with pytest.raises(ValueError):
            fit_alpha_beta([1.0], [1.0, 2.0])

    def test_fit_gamma(self):
        micro = {
            "params": {"nnz": 1000},
            "merge_sparse_pairs": {"best_s": 4e-6},
        }
        assert fit_gamma(micro) == pytest.approx(4e-6 / (2 * 1000 * _PAIR_BYTES))


def _synthetic_bench(dimension=4096):
    """A bench-kernels-shaped document with known underlying parameters."""
    intra = {"alpha": 5e-6, "beta": 5e-10}
    inter = {"alpha": 4e-5, "beta": 4e-9}
    transport = {}
    for backend, p in (("shmem", intra), ("socket", inter)):
        rows = {}
        for nnz in (40, 400, 1200):
            wire = _wire_bytes(dimension, nnz)
            one_way = p["alpha"] + p["beta"] * wire
            rows[f"nnz_{nnz}"] = {"best_s": 2 * one_way, "median_s": 2 * one_way, "n": 5}
        transport[backend] = rows
    micro = {
        "params": {"dimension": dimension, "nnz": 100, "wire_bytes": 816},
        "merge_sparse_pairs": {"best_s": 1.6e-6, "median_s": 1.6e-6, "n": 5},
    }
    return transport, micro, intra, inter


class TestCalibrateFromDoc:
    def test_recovers_parameters(self):
        transport, micro, intra, inter = _synthetic_bench()
        model, provenance = calibrate_from_doc(transport, micro, 4096, name="fit")
        assert model.name == "fit" and model.shared_uplink
        assert model.intra.alpha == pytest.approx(intra["alpha"], rel=1e-6)
        assert model.intra.beta == pytest.approx(intra["beta"], rel=1e-6)
        assert model.inter.alpha == pytest.approx(inter["alpha"], rel=1e-6)
        assert model.inter.beta == pytest.approx(inter["beta"], rel=1e-6)
        assert model.gamma == pytest.approx(1.6e-6 / (2 * 100 * _PAIR_BYTES))
        assert provenance["fits"]["intra"]["backend"] == "shmem"
        assert provenance["fits"]["inter"]["backend"] == "socket"
        assert len(provenance["fits"]["inter"]["points"]) == 3

    def test_needs_two_sizes(self):
        transport, micro, _, _ = _synthetic_bench()
        transport["shmem"] = {"nnz_40": transport["shmem"]["nnz_40"]}
        transport.pop("process", None)
        with pytest.raises(ValueError, match="2 transport round-trip sizes"):
            calibrate_from_doc(transport, micro, 4096)


class TestSaveLoad:
    def test_tiered_round_trip(self, tmp_path):
        path = save_network(TIERED_GIGE, tmp_path / "net.json", provenance={"x": 1})
        loaded = load_network(path)
        assert loaded.name == TIERED_GIGE.name
        assert loaded.intra.alpha == TIERED_GIGE.intra.alpha
        assert loaded.inter.beta == TIERED_GIGE.inter.beta
        assert loaded.shared_uplink == TIERED_GIGE.shared_uplink
        assert json.loads(path.read_text())["provenance"] == {"x": 1}

    def test_flat_round_trip(self, tmp_path):
        path = save_network(GIGE, tmp_path / "flat.json")
        loaded = load_network(path)
        assert loaded.alpha == GIGE.alpha and loaded.gamma == GIGE.gamma

    def test_launch_round_trips(self, tmp_path):
        fitted = TIERED_GIGE.with_(
            intra=TIERED_GIGE.intra.with_(launch=1.25e-4),
            inter=TIERED_GIGE.inter.with_(launch=1.25e-4),
        )
        path = save_network(fitted, tmp_path / "net.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == NETWORK_JSON_SCHEMA == 2
        assert doc["intra"]["launch"] == doc["inter"]["launch"] == 1.25e-4
        assert load_network(path) == fitted
        assert CostModel.resolve(f"calibrated:{path}").launch == 1.25e-4

    def test_schema_1_file_loads_with_the_default_launch(self, tmp_path):
        path = save_network(TIERED_GIGE, tmp_path / "old.json")
        doc = json.loads(path.read_text())
        doc["schema"] = 1
        for tier in ("intra", "inter"):
            del doc[tier]["launch"]
        path.write_text(json.dumps(doc))
        assert load_network(path).launch == DEFAULT_LAUNCH_S

    def test_load_errors(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            load_network(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_network(bad)
        weird = tmp_path / "weird.json"
        weird.write_text(json.dumps({"kind": "mesh", "name": "x"}))
        with pytest.raises(ValueError, match="kind"):
            load_network(weird)

    def test_resolve_calibrated_spec(self, tmp_path):
        path = save_network(TIERED_GIGE, tmp_path / "net.json")
        model = resolve_network(f"calibrated:{path}")
        assert model.inter.alpha == TIERED_GIGE.inter.alpha

    def test_unknown_spec_error_lists_everything(self):
        """The error must teach all three spec syntaxes."""
        with pytest.raises(ValueError) as err:
            resolve_network("warp-drive")
        message = str(err.value)
        for preset in sorted(PRESETS):
            assert preset in message
        assert "tiered:INTRA/INTER" in message
        assert "calibrated:<path.json>" in message
        assert "repro calibrate" in message


class TestRunCalibration:
    def test_reuses_bench_document(self, tmp_path):
        transport, micro, intra, _ = _synthetic_bench()
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({
            "schema": 5,
            "params": {"dimension": 4096},
            "transport_roundtrip": transport,
            "microkernels": micro,
        }))
        model, path, provenance = run_calibration(
            out=tmp_path / "cal.json", bench=bench, name="reused"
        )
        assert path.exists()
        assert provenance["reused_bench"] == str(bench)
        assert model.intra.alpha == pytest.approx(intra["alpha"], rel=1e-6)

    def test_calibrated_path_drives_selection_end_to_end(self, tmp_path):
        """The acceptance pin: calibrate -> `calibrated:<path>` ->
        SelectionReport, all consistent and JSON-round-trippable."""
        transport, micro, _, _ = _synthetic_bench()
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({
            "params": {"dimension": 4096},
            "transport_roundtrip": transport,
            "microkernels": micro,
        }))
        _, path, _ = run_calibration(out=tmp_path / "cal.json", bench=bench)
        model = CostModel.resolve(f"calibrated:{path}")
        assert model.tiered and model.name == "calibrated"
        report = model.rank(Instance(4096, 4, 300))
        # synthetic parameters are deterministic -> the choice is pinned
        assert report.choice == "ssar_rec_dbl"
        assert report.network == "calibrated"
        round_tripped = SelectionReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert round_tripped == report

    def test_launch_is_fitted_and_carried_by_the_spec(self, tmp_path):
        transport, micro, _, _ = _synthetic_bench()
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({
            "params": {"dimension": 4096},
            "transport_roundtrip": transport,
            "microkernels": micro,
        }))
        fitted, path, provenance = run_calibration(out=tmp_path / "cal.json", bench=bench)
        fit = provenance["fits"]["launch"]
        assert fit["topology"] == "2x2" and len(fit["per_rank_s"]) == 4
        assert fitted.launch >= 0.0 and fitted.intra.launch == fitted.inter.launch
        model = CostModel.resolve(f"calibrated:{path}")
        assert model.launch == fitted.launch
        # a chunk is never bought for less than it costs to launch: with
        # microsecond legs, any measurable launch price keeps this at 1
        if model.launch > 1e-5:
            assert model.auto_chunks(
                Instance(4096, 4, 40), "ssar_hier", Topology.from_spec("2x2")
            ) == 1

    def test_cli_calibrate_subcommand(self, tmp_path, capsys):
        from repro.tools.cli import main

        transport, micro, _, _ = _synthetic_bench()
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({
            "params": {"dimension": 4096},
            "transport_roundtrip": transport,
            "microkernels": micro,
        }))
        out = tmp_path / "cli_cal.json"
        rc = main([
            "calibrate", "--bench", str(bench), "--out", str(out), "--name", "clifit",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "clifit" in stdout and "wrote" in stdout
        assert load_network(out).name == "clifit"
