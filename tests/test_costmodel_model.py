"""Tests for the unified CostModel layer (`repro/costmodel/model.py`):
Instance/PredictedCost/SelectionReport round-trips, `predict` as the
replay of the schedule it prices (any registered schedule, a flat world
as one host, one price on every rank, the memo, the refused knobs),
`choose` as the report's choice, and the `chunks="auto"` depth search.
`tests/test_costmodel_grid.py` holds `predict` to full-dimension replays."""

import json

import pytest

from repro.collectives import api, run_sparse_allreduce
from repro.costmodel import (
    MAX_AUTO_CHUNKS,
    SCHEDULES,
    CostModel,
    Instance,
    PredictedCost,
    SelectionReport,
)
from repro.costmodel import model as costmodel
from repro.netsim import GIGE, PRESETS, TIERED_GIGE, TIERED_IB_FDR
from repro.runtime import Topology
from repro.streams import SparseStream


class TestInstance:
    def test_properties(self):
        inst = Instance(1 << 20, 8, 1000)
        assert inst.pair_bytes == 8
        assert 0 < inst.delta < 1 << 20
        assert inst.fill_in() > inst.nnz_per_rank  # union grows with P
        assert Instance(1 << 20, 1, 1000).fill_in() == pytest.approx(1000)
        assert inst.resolved_k() == inst.fill_in()

    def test_expected_k_override(self):
        inst = Instance(1 << 20, 8, 1000, expected_k=5000.0)
        assert inst.resolved_k() == 5000.0

    def test_validation(self):
        with pytest.raises(ValueError, match="nranks"):
            Instance(100, 0, 10)
        with pytest.raises(ValueError, match="nnz_per_rank"):
            Instance(100, 2, 101)
        with pytest.raises(ValueError, match="nnz_per_rank"):
            Instance(100, 2, -1)

    def test_round_trip(self):
        inst = Instance(4096, 4, 300, value_itemsize=8, expected_k=1200.0)
        assert Instance.from_dict(json.loads(json.dumps(inst.to_dict()))) == inst


class TestPredict:
    MODEL = CostModel(TIERED_IB_FDR)
    TOPO = Topology.uniform(8, 4)  # 2 hosts x 4 ranks
    INST = Instance(1 << 20, 8, 1000)

    @pytest.mark.parametrize("algo", SCHEDULES)
    def test_decomposition(self, algo):
        cost = self.MODEL.predict(self.INST, algo, self.TOPO)
        assert cost.algorithm == algo
        assert cost.time_s > 0
        assert 0 < cost.latency_s < cost.time_s
        assert cost.time_s == pytest.approx(cost.intra_s + cost.inter_s)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            self.MODEL.predict(self.INST, "nope")

    def test_hier_needs_hierarchy(self):
        flat = self.MODEL.predict(self.INST, "ssar_hier", topology=None)
        assert not flat.eligible and "hierarchical" in flat.note
        hier = self.MODEL.predict(self.INST, "ssar_hier", self.TOPO)
        assert hier.eligible

    def test_flat_algorithms_ignore_chunks(self):
        for algo in ("ssar_rec_dbl", "ssar_split_ag", "ssar_ring", "dsar_split_ag"):
            cost = self.MODEL.predict(self.INST, algo, self.TOPO, chunks=4)
            assert cost.chunks == 1
            assert cost.time_s == pytest.approx(
                self.MODEL.predict(self.INST, algo, self.TOPO, chunks=1).time_s
            )

    def test_chunked_hier_is_pipelined(self):
        one = self.MODEL.predict(self.INST, "ssar_hier", self.TOPO, chunks=1)
        four = self.MODEL.predict(self.INST, "ssar_hier", self.TOPO, chunks=4)
        assert four.chunks == 4
        # legs are unchanged; only the makespan composition differs
        assert four.intra_s == pytest.approx(one.intra_s)
        assert four.inter_s == pytest.approx(one.inter_s)
        # pipelining can only help when one leg hides behind the other,
        # up to the replicated per-chunk alpha and the launch price of
        # the three extra chunks
        assert four.time_s <= one.time_s + 4 * (
            self.MODEL.intra.alpha + self.MODEL.inter.alpha
        ) + 3 * self.MODEL.launch
        assert four.time_s >= 3 * self.MODEL.launch

    def test_gamma_charged(self):
        free = CostModel(GIGE.with_(gamma=0.0)).predict(self.INST, "ssar_rec_dbl")
        priced = CostModel(GIGE).predict(self.INST, "ssar_rec_dbl")
        assert priced.time_s > free.time_s

    @pytest.mark.parametrize("chunks", [0, -2, 1.5, True])
    @pytest.mark.parametrize("algo", ["ssar_rec_dbl", "ssar_hier"])
    def test_refuses_the_depths_the_schedules_refuse(self, algo, chunks):
        """`predict` prices no depth `sparse_allreduce` would refuse."""
        with pytest.raises(ValueError, match="chunks must be a positive int") as want:
            run_sparse_allreduce([SparseStream(8)] * 2, algo, chunks=chunks)
        with pytest.raises(ValueError, match=str(want.value)):
            self.MODEL.predict(self.INST, algo, self.TOPO, chunks=chunks)

    @pytest.mark.parametrize("algo", ["ssar_split_ag", "dsar_hier"])
    def test_a_schedule_is_priced_as_soon_as_it_is_registered(self, algo, monkeypatch):
        """One engine: a schedule under a new name needs no cost-model edit."""
        monkeypatch.setitem(costmodel.SCHEDULES, "renamed", SCHEDULES[algo])
        monkeypatch.setitem(api.ALGORITHMS, "renamed", api.ALGORITHMS[algo])
        for chunks in (1, 3):
            original = self.MODEL.predict(self.INST, algo, self.TOPO, chunks=chunks)
            renamed = self.MODEL.predict(self.INST, "renamed", self.TOPO, chunks=chunks)
            assert renamed.time_s == original.time_s > 0
        assert "renamed" in [c.algorithm for c in self.MODEL.rank(self.INST, self.TOPO).candidates]

    def test_a_flat_world_is_one_host(self):
        """No topology: every message at the intra tier, as replay has it."""
        for algo in ("ssar_rec_dbl", "dsar_split_ag"):
            tiered = CostModel(TIERED_GIGE).predict(self.INST, algo).time_s
            assert tiered == pytest.approx(CostModel(TIERED_GIGE.intra).predict(self.INST, algo).time_s)
            assert tiered == pytest.approx(
                CostModel(TIERED_GIGE).predict(self.INST, algo, Topology.flat(8)).time_s
            )

    def test_every_rank_reads_the_same_price(self):
        """The supports are seeded by the instance: a second recording of
        the same instance (another rank, another process) prices the same."""
        first = self.MODEL.predict(self.INST, "ssar_split_ag", self.TOPO)
        costmodel._record.cache_clear()
        costmodel._replayed.cache_clear()
        assert self.MODEL.predict(self.INST, "ssar_split_ag", self.TOPO) == first

    def test_a_dense_instance_is_recorded_at_its_density(self):
        inst = Instance(1 << 20, 4, 52_429)
        dimension, nnz = inst.recorded_shape()
        assert nnz == costmodel.RECORD_PAIRS
        assert nnz / dimension == pytest.approx(inst.nnz_per_rank / inst.dimension, rel=0.02)
        assert Instance(1 << 20, 4, 100).recorded_shape() == (1 << 20, 100)
        # keyed on a grid of 1/64 steps: nearby estimates share one recording
        assert Instance(1 << 20, 4, 2000).recorded_shape()[1] == pytest.approx(2000, rel=1 / 64)

    def test_a_repriced_instance_records_nothing(self):
        """A plan re-pricing what it priced before (every training
        segment) is answered from the memo, under any network."""
        inst = Instance(40_399, 4, 89)
        topo = Topology.from_spec("2x2")
        self.MODEL.auto_chunks(inst, "ssar_hier", topo)
        recorded = costmodel._record.cache_info().misses
        for network in ("tiered_ib_fdr", "tiered_gige"):
            CostModel.resolve(network).auto_chunks(inst, "ssar_hier", topo)
        # the same estimate read off a result, a grid step away
        self.MODEL.auto_chunks(Instance(40_399, 4, 89.4), "ssar_hier", topo)
        assert costmodel._record.cache_info().misses == recorded

    def test_topology_size_checked(self):
        with pytest.raises(ValueError):
            self.MODEL.predict(self.INST, "ssar_hier", Topology.uniform(4, 2))

    def test_round_trip(self):
        cost = self.MODEL.predict(self.INST, "dsar_hier", self.TOPO, chunks=2)
        assert PredictedCost.from_dict(json.loads(json.dumps(cost.to_dict()))) == cost


class TestRank:
    MODEL = CostModel(TIERED_IB_FDR)

    def test_report_fields(self):
        topo = Topology.uniform(8, 4)
        report = self.MODEL.rank(Instance(1 << 20, 8, 1000), topo)
        assert report.choice == "ssar_hier"
        assert report.network == self.MODEL.name
        assert report.topology == topo.describe()
        assert len(report.candidates) == len(SCHEDULES)
        assert report.predicted("ssar_hier").eligible
        with pytest.raises(KeyError):
            report.predicted("nope")
        assert "ssar_hier" in report.describe()

    def test_candidates_sorted_eligible_first(self):
        report = self.MODEL.rank(Instance(1 << 20, 8, 1000))  # flat world
        eligibility = [c.eligible for c in report.candidates]
        assert eligibility == sorted(eligibility, reverse=True)
        eligible_times = [c.time_s for c in report.candidates if c.eligible]
        assert eligible_times == sorted(eligible_times)

    def test_round_trip(self):
        report = self.MODEL.rank(Instance(1 << 20, 8, 50000), Topology.uniform(8, 4))
        blob = json.dumps(report.to_dict())
        assert SelectionReport.from_dict(json.loads(blob)) == report

    @pytest.mark.parametrize(
        "dimension,nranks,nnz,ranks_per_node",
        [
            (1 << 20, 8, 1000, None),      # latency-bound -> rec_dbl
            (1 << 20, 8, 50000, None),     # dynamic -> dsar
            (1 << 20, 16, 20000, None),    # bandwidth-bound at scale
            (1 << 20, 8, 1000, 4),         # hierarchical -> ssar_hier
            (1 << 20, 8, 50000, 4),        # dynamic + hierarchical
            (1 << 16, 4, 650, 2),
            (1 << 16, 4, 30000, None),
            (512, 2, 100, None),
        ],
    )
    def test_choose_is_the_reports_choice(self, dimension, nranks, nnz, ranks_per_node):
        """`choose` answers what `rank` reports, every shape."""
        topo = (
            Topology.uniform(nranks, ranks_per_node)
            if ranks_per_node is not None
            else None
        )
        for network in ("tiered_ib_fdr", "gige", "tiered_gige"):
            report = CostModel.resolve(network).rank(
                Instance(dimension, nranks, nnz), topo
            )
            assert report.choice == CostModel.resolve(network).choose(
                Instance(dimension, nranks, nnz), topo
            ), report.describe()

    def test_selection_takes_no_switch_point_or_chunk_knobs(self):
        """The switch points are the model's constants, and a pipeline
        depth is priced apart, by `auto_chunks`: neither is a knob of
        selection."""
        inst = Instance(1 << 20, 8, 1000)
        with pytest.raises(TypeError):
            self.MODEL.rank(inst, chunks=2)
        for select in (self.MODEL.rank, self.MODEL.choose):
            with pytest.raises(TypeError):
                select(inst, small_message_bytes=1)


class TestResolve:
    def test_passthrough(self):
        model = CostModel(TIERED_GIGE)
        assert CostModel.resolve(model) is model

    def test_from_spec(self):
        assert CostModel.resolve("gige").network is PRESETS["gige"]
        assert CostModel.resolve(GIGE).network is GIGE
        assert CostModel.default().name == "tiered_ib_fdr"

    def test_tier_accessors(self):
        tiered = CostModel(TIERED_GIGE)
        assert tiered.tiered
        assert tiered.intra is TIERED_GIGE.intra
        assert tiered.inter is TIERED_GIGE.inter
        flat = CostModel(GIGE)
        assert not flat.tiered
        assert flat.intra is GIGE and flat.inter is GIGE
        assert flat.gamma == GIGE.gamma


class TestAutoChunks:
    MODEL = CostModel(TIERED_GIGE)
    TOPO = Topology.uniform(8, 4)
    INST = Instance(1 << 20, 8, 10000)

    def test_flat_algorithms_get_one(self):
        for algo in ("ssar_rec_dbl", "ssar_split_ag", "ssar_ring", "dsar_split_ag"):
            assert self.MODEL.auto_chunks(self.INST, algo, self.TOPO) == 1

    def test_unknown_algorithm(self):
        """Refused as `predict` and the plans refuse it."""
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            self.MODEL.auto_chunks(self.INST, "bogus", self.TOPO)
        with pytest.raises(TypeError):
            self.MODEL.auto_chunks(self.INST, "ssar_hier", self.TOPO, max_chunks=4)

    @pytest.mark.parametrize("algo", ["ssar_hier", "dsar_hier"])
    def test_argmin_of_the_curve(self, algo):
        k = self.MODEL.auto_chunks(self.INST, algo, self.TOPO)
        assert 1 <= k <= MAX_AUTO_CHUNKS
        best = self.MODEL.predict(self.INST, algo, self.TOPO, chunks=k).time_s
        for other in range(1, MAX_AUTO_CHUNKS + 1):
            assert best <= self.MODEL.predict(
                self.INST, algo, self.TOPO, chunks=other
            ).time_s + 1e-18

    @pytest.mark.parametrize("inst", [
        Instance(40_399, 4, 2_525),   # one fused bucket of the async_train benchmark
        Instance(1 << 20, 4, 10_486),  # d = 1 %: a predicted 16 us overlap gain
    ])
    def test_launch_price_keeps_small_instances_unchunked(self, inst):
        """The wire-only curve bought K > 1 here for microseconds of
        predicted overlap; each extra chunk costs a ~0.66 ms launch."""
        model, topo = CostModel.default(), Topology.from_spec("2x2")
        assert model.auto_chunks(inst, "ssar_hier", topo) == 1
        free = CostModel(model.network.with_(intra=model.intra.with_(launch=0.0)))
        assert free.auto_chunks(inst, "ssar_hier", topo) > 1

    def test_chunks_bought_when_the_saving_exceeds_the_launch_price(self):
        inst, topo = Instance(1 << 24, 4, 1 << 20), Topology.from_spec("2x2")
        k = self.MODEL.auto_chunks(inst, "dsar_hier", topo)
        assert k > 1
        saved = (
            self.MODEL.predict(inst, "dsar_hier", topo).time_s
            - self.MODEL.predict(inst, "dsar_hier", topo, chunks=k).time_s
        )
        assert saved > 0  # net of the (k - 1) launches predict() charges
