"""Tests for network calibration (`repro/costmodel/calibrate.py`) and the
persisted-model plumbing (`save_network`/`load_network`,
`resolve_network("calibrated:<path>")`)."""

import json

import pytest

from repro.costmodel import (
    CostModel,
    Instance,
    SelectionReport,
    fit_alpha_beta,
    fit_gamma,
    fit_model,
    run_calibration,
)
from repro.costmodel.calibrate import _PAIR_BYTES
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
from repro.streams import summation
from repro.streams.summation import merge_implementation


#: known lines behind the synthetic ``(bytes, one_way_s)`` points below
INTRA = {"alpha": 5e-6, "beta": 5e-10}
INTER = {"alpha": 4e-5, "beta": 4e-9}


def _points(line: dict, sizes=(1032.0, 83896.0, 1048584.0)) -> list[tuple[float, float]]:
    return [(size, line["alpha"] + line["beta"] * size) for size in sizes]


class TestFits:
    def test_exact_line_recovered(self):
        alpha, beta = 3e-5, 2e-9
        sizes = [1e3, 1e4, 1e5, 1e6]
        times = [alpha + beta * s for s in sizes]
        fa, fb = fit_alpha_beta(sizes, times)
        assert fa == pytest.approx(alpha)
        assert fb == pytest.approx(beta)

    def test_the_largest_frame_does_not_set_the_intercept(self):
        """A 1 MB point that sits 30 % above the line (a socket buffer
        filling) moves the small-frame prediction by a few percent, not
        by the 2x ordinary least squares would."""
        (x0, t0), (x1, t1), (x2, t2) = _points(INTER)
        alpha, beta = fit_alpha_beta([x0, x1, x2], [t0, t1, 1.3 * t2])
        assert alpha + beta * x0 == pytest.approx(t0, rel=0.1)

    def test_single_point_is_all_latency(self):
        assert fit_alpha_beta([4096.0], [1e-4]) == pytest.approx((1e-4, 0.0))

    def test_negative_fits_clamped(self):
        # decreasing times give a negative slope; the fit must clamp
        alpha, beta = fit_alpha_beta([1e3, 1e6], [1e-3, 1e-6])
        assert alpha >= 0.0 and beta == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_alpha_beta([], [])
        with pytest.raises(ValueError):
            fit_alpha_beta([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_alpha_beta([1.0, 2.0], [1e-6, 0.0])

    def test_fit_gamma(self):
        assert fit_gamma(2000, 4e-6) == pytest.approx(4e-6 / (2000 * _PAIR_BYTES))


class TestFitModel:
    def test_recovers_each_tier(self):
        model = fit_model(
            {"intra": _points(INTRA), "inter": _points(INTER)},
            gamma=1e-9, launch_s=2e-4, name="fit",
        )
        assert model.name == "fit" and model.shared_uplink
        assert model.intra.alpha == pytest.approx(INTRA["alpha"], rel=1e-6)
        assert model.intra.beta == pytest.approx(INTRA["beta"], rel=1e-6)
        assert model.inter.alpha == pytest.approx(INTER["alpha"], rel=1e-6)
        assert model.inter.beta == pytest.approx(INTER["beta"], rel=1e-6)
        assert model.intra.gamma == model.inter.gamma == model.gamma == 1e-9
        assert model.intra.launch == model.inter.launch == model.launch == 2e-4

    def test_a_tier_without_points_is_an_error(self):
        with pytest.raises(ValueError):
            fit_model({"intra": _points(INTRA), "inter": []}, gamma=1e-9, launch_s=0.0)


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


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """One really measured calibration (~2 s): ``(model, path, provenance)``."""
    return run_calibration(out=tmp_path_factory.mktemp("calibrate") / "cal.json")


class TestRunCalibration:
    def test_measures_three_sizes_on_both_tiers(self, measured):
        model, path, provenance = measured
        assert path.exists()
        fits = provenance["fits"]
        assert fits["intra"]["backend"] == "shmem" and fits["inter"]["backend"] == "socket"
        for tier in (model.intra, model.inter):
            assert tier.alpha > 0 and tier.beta > 0
        for tier in ("intra", "inter"):
            sizes = [p["wire_bytes"] for p in fits[tier]["points"]]
            assert sizes == pytest.approx([1 << 10, 84_000, 1 << 20], rel=0.05)
            assert all(p["one_way_s"] > 0 for p in fits[tier]["points"])
        assert model.gamma == fit_gamma(fits["gamma"]["pairs"], fits["gamma"]["best_s"]) > 0
        assert fits["gamma"]["kernel"] == f"merge_sparse_pairs/{merge_implementation()}"
        assert "reused_bench" not in provenance and "quick" not in provenance

    @pytest.mark.parametrize("kernel", ["numpy", "c", "c-avx512"])
    def test_gamma_names_the_merge_it_timed(self, tmp_path, monkeypatch, kernel):
        """The three merges time ~2x apart, so a calibrated gamma says
        which one it was fitted on."""
        from repro.costmodel import calibrate

        monkeypatch.setattr(calibrate, "measure_round_trips", lambda backend: _points(INTRA))
        monkeypatch.setattr(calibrate, "measure_launch", lambda: (1e-4, {}))
        if kernel == "numpy":
            monkeypatch.setattr(summation, "_KERNEL", None)
        elif summation._KERNEL is None:
            pytest.skip("the compiled merge did not load (no cc or no cffi)")
        elif kernel == "c":
            monkeypatch.setattr(summation, "_KERNEL", summation._c_kernel(simd=False))
        elif summation.merge_implementation() != "c-avx512":
            pytest.skip("the CPU lacks avx512f, avx512vl or bmi2: no AVX-512 merge")
        _, _, provenance = run_calibration(out=tmp_path / "cal.json")
        assert provenance["fits"]["gamma"]["kernel"] == f"merge_sparse_pairs/{kernel}"

    def test_resolve_calibrated_spec(self, measured):
        fitted, path, _ = measured
        assert resolve_network(f"calibrated:{path}") == fitted

    def test_calibrated_path_drives_selection_end_to_end(self, measured):
        """The acceptance pin: calibrate -> `calibrated:<path>` ->
        SelectionReport, all consistent and JSON-round-trippable."""
        model = CostModel.resolve(f"calibrated:{measured[1]}")
        assert model.tiered and model.name == "calibrated"
        report = model.rank(Instance(4096, 4, 300))
        assert report.predicted(report.choice).eligible
        assert report.network == "calibrated"
        round_tripped = SelectionReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert round_tripped == report

    def test_launch_is_fitted_and_carried_by_the_spec(self, measured):
        fitted, path, provenance = measured
        fit = provenance["fits"]["launch"]
        assert fit["topology"] == "2x2" and len(fit["per_rank_s"]) == 4
        assert fitted.intra.launch == fitted.inter.launch == fitted.launch >= 0.0
        model = CostModel.resolve(f"calibrated:{path}")
        assert model.launch == fitted.launch
        # a chunk is never bought for less than it costs to launch: with
        # microsecond legs, any measurable launch price keeps this at 1
        if model.launch > 1e-5:
            assert model.auto_chunks(
                Instance(4096, 4, 40), "ssar_hier", Topology.from_spec("2x2")
            ) == 1

    def test_cli_calibrate_subcommand(self, measured, tmp_path, capsys, monkeypatch):
        """The command's own path — parse, fit, write, print — over the
        fixture's measurements, replayed instead of taken a second time."""
        from repro.costmodel import calibrate
        from repro.tools.cli import main

        fitted, _, provenance = measured
        fits = provenance["fits"]
        points = {
            fits[tier]["backend"]: [
                (p["wire_bytes"], p["one_way_s"]) for p in fits[tier]["points"]
            ]
            for tier in ("intra", "inter")
        }
        merge = fits["gamma"]["pairs"], fits["gamma"]["best_s"]
        monkeypatch.setattr(calibrate, "measure_round_trips", points.__getitem__)
        monkeypatch.setattr(calibrate, "measure_merge", lambda: merge)
        monkeypatch.setattr(calibrate, "measure_launch", lambda: (fitted.launch, fits["launch"]))
        out = tmp_path / "cli_cal.json"
        assert main(["calibrate", "--out", str(out), "--name", "clifit"]) == 0
        stdout = capsys.readouterr().out
        assert "clifit" in stdout and "shmem" in stdout and "wrote" in stdout
        assert f'CostModel.resolve("calibrated:{out}")' in stdout
        loaded = load_network(out)
        assert loaded.name == "clifit"
        assert (loaded.intra.beta, loaded.inter.alpha) == (fitted.intra.beta, fitted.inter.alpha)
