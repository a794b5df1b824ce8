"""Tests for the unified CostModel layer (`repro/costmodel/model.py`):
Instance/PredictedCost/SelectionReport round-trips, predict sanity,
parity with `choose_algorithm`, and the `chunks="auto"` depth search."""

import json

import pytest

from repro.collectives import choose_algorithm, dense_stage_two_tier_times
from repro.costmodel import (
    MAX_AUTO_CHUNKS,
    RING_MIN_RANKS,
    SMALL_MESSAGE_BYTES,
    SCHEDULES,
    CostModel,
    Instance,
    PredictedCost,
    SelectionReport,
)
from repro.netsim import GIGE, PRESETS, TIERED_GIGE, TIERED_IB_FDR
from repro.runtime import Topology


class TestInstance:
    def test_properties(self):
        inst = Instance(1 << 20, 8, 1000)
        assert inst.pair_bytes == 8
        assert inst.dense_bytes == (1 << 20) * 4
        assert 0 < inst.delta < 1 << 20
        assert inst.fill_in() > inst.nnz_per_rank  # union grows with P
        assert inst.fill_in(1) == pytest.approx(1000)
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
        assert cost.time_s == pytest.approx(
            cost.latency_s + cost.bandwidth_s + cost.compute_s
        )
        assert cost.time_s == pytest.approx(cost.intra_s + cost.inter_s)
        assert cost.expected_k == pytest.approx(self.INST.resolved_k())

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
        free = CostModel(GIGE.replace(gamma=0.0) if hasattr(GIGE, "replace") else GIGE)
        priced = CostModel(GIGE)
        cost = priced.predict(self.INST, "ssar_rec_dbl")
        assert cost.compute_s > 0
        assert cost.compute_s == pytest.approx(
            cost.time_s - cost.latency_s - cost.bandwidth_s
        )
        del free

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
    def test_parity_with_choose_algorithm(self, dimension, nranks, nnz, ranks_per_node):
        """`choose_algorithm` is a thin wrapper: same answer, every shape."""
        topo = (
            Topology.uniform(nranks, ranks_per_node)
            if ranks_per_node is not None
            else None
        )
        for network in ("tiered_ib_fdr", "gige", "tiered_gige"):
            report = CostModel.resolve(network).rank(
                Instance(dimension, nranks, nnz), topo
            )
            assert report.choice == choose_algorithm(
                dimension, nranks, nnz, topology=topo, network=network
            ), report.describe()

    def test_dense_stage_wrapper_matches_predict(self):
        topo = Topology.uniform(8, 4)
        flat_t, hier_t = dense_stage_two_tier_times(
            1 << 20, 8, 50000, 4, topo, network=TIERED_GIGE
        )
        model = CostModel(TIERED_GIGE)
        inst = Instance(1 << 20, 8, 50000)
        assert flat_t == pytest.approx(model.predict(inst, "dsar_split_ag", topo).time_s)
        assert hier_t == pytest.approx(model.predict(inst, "dsar_hier", topo).time_s)


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
        assert tiered.tiered and tiered.shared_uplink
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

    def test_constants_re_exported(self):
        # the one source of truth for the switch points
        from repro.collectives.selector import (
            RING_MIN_RANKS as sel_ring,
            SMALL_MESSAGE_BYTES as sel_small,
        )

        assert sel_ring == RING_MIN_RANKS
        assert sel_small == SMALL_MESSAGE_BYTES
