"""Tests for the automatic algorithm selector (§5.3 switching heuristics)."""

import pytest

from repro.collectives import (
    ALGORITHMS,
    RING_MIN_RANKS,
    SMALL_MESSAGE_BYTES,
    SCHEDULES,
)
from repro.config import delta_threshold
from repro.costmodel import CostModel, Instance
from repro.netsim import GIGE, TIERED_GIGE
from repro.runtime import Topology

#: the §5.3 procedure under the default (tiered cluster) model
choose = CostModel.default().choose


class TestChooseAlgorithm:
    def test_small_sparse_uses_recursive_doubling(self):
        # tiny reduced payload -> latency bound
        assert choose(Instance(1 << 20, 8, 100)) == "ssar_rec_dbl"

    def test_large_sparse_uses_split_allgather(self):
        # large but still below delta after fill-in
        n = 1 << 24
        assert choose(Instance(n, 4, 50_000)) == "ssar_split_ag"

    def test_dense_fill_in_uses_dsar(self):
        # k*P far above delta -> dynamic instance
        n = 10_000
        assert choose(Instance(n, 64, 2_000)) == "dsar_split_ag"

    def test_user_expected_k_overrides_model(self):
        n = 10_000
        # uniform model would say dense, but the user knows supports overlap
        algo = choose(Instance(n, 64, 2_000, expected_k=2_000))
        assert algo != "dsar_split_ag"

    def test_threshold_boundary(self):
        n = 1 << 16
        delta = delta_threshold(n, 4)
        assert choose(Instance(n, 2, 10, expected_k=delta + 1)) == "dsar_split_ag"
        small = choose(Instance(n, 2, 10, expected_k=delta - 1))
        assert small in ("ssar_rec_dbl", "ssar_split_ag")

    def test_small_message_boundary(self):
        n = 1 << 24
        pair_bytes = 8
        k_small = SMALL_MESSAGE_BYTES // pair_bytes - 1
        assert choose(Instance(n, 2, 10, expected_k=k_small)) == "ssar_rec_dbl"
        assert choose(Instance(n, 2, 10, expected_k=k_small * 4)) == "ssar_split_ag"

    def test_every_selectable_algorithm_is_runnable(self):
        """Selector audit: everything in SCHEDULES has a kernel, and
        every name the selector can emit is selectable."""
        assert set(SCHEDULES) == set(ALGORITHMS)

    def test_single_rank(self):
        assert choose(Instance(1000, 1, 10)) in (
            "ssar_rec_dbl",
            "ssar_split_ag",
            "dsar_split_ag",
        )

    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            choose(Instance(1000, 0, 10))

    def test_invalid_nnz(self):
        with pytest.raises(ValueError):
            choose(Instance(1000, 4, 2000))

    def test_topology_size_mismatch_rejected(self):
        """The launcher-uniform size check also guards the selector: H/m
        from a topology of a different world would poison the two-tier
        cost comparison."""
        with pytest.raises(ValueError, match="describes 8 ranks but the world has 64"):
            choose(Instance(10_000, 64, 2_000), Topology.uniform(8, 4))

    def test_ring_requires_bandwidth_bound_instances(self):
        """ssar_ring is reachable, but only through the bandwidth-bound
        branch — moderate instances still pick the paper's algorithms."""
        for n, p, k in [(1 << 16, 2, 10), (1 << 20, 32, 5000), (4096, 64, 1000)]:
            assert choose(Instance(n, p, k)) != "ssar_ring"

    def test_ring_selected_when_bandwidth_bound_at_scale(self):
        """K large enough that even the per-rank slice is past the latency
        switch point, with enough ranks to amortize the ring's 2(P-1)a."""
        n = 1 << 26  # delta = n/2 = 2^25
        k = 1 << 23  # static-sparse (below delta), reduced 64 MB
        assert choose(Instance(n, RING_MIN_RANKS, 10, expected_k=k)) == "ssar_ring"
        # not at small scale: the split phase's (P-1)a is cheaper
        assert choose(Instance(n, RING_MIN_RANKS - 1, 10, expected_k=k)) == "ssar_split_ag"
        # not when the slice falls under the switch point
        modest = RING_MIN_RANKS * (SMALL_MESSAGE_BYTES // 8) - 1
        assert choose(Instance(n, RING_MIN_RANKS, 10, expected_k=modest)) == "ssar_split_ag"

    def test_hier_requires_hierarchical_topology(self):
        n, p, k = 1 << 20, 8, 100
        flat_choice = choose(Instance(n, p, k))
        assert flat_choice != "ssar_hier"
        assert choose(Instance(n, p, k), Topology.flat(p)) == flat_choice
        assert (
            choose(Instance(n, p, k), Topology.uniform(p, 1)) == flat_choice
        )
        assert (
            choose(Instance(n, p, k), Topology.uniform(p, 4)) == "ssar_hier"
        )

    def test_dense_fill_in_beats_topology(self):
        """A dynamic instance goes to a DSAR dense-stage algorithm even on
        a hierarchical topology — hierarchy changes *which* DSAR, never
        whether the representation switch happens."""
        n, p, k = 10_000, 64, 2_000
        choice = choose(Instance(n, p, k), Topology.uniform(p, 8))
        assert choice in ("dsar_split_ag", "dsar_hier")
        # under the default tiered cluster model the leader-only dense
        # stage wins: only H uplinks carry dense partitions instead of P
        assert choice == "dsar_hier"

    def test_dsar_hier_needs_hierarchical_topology(self):
        """dsar_hier is reachable only with several multi-rank hosts."""
        n, p, k = 10_000, 64, 2_000
        assert choose(Instance(n, p, k)) == "dsar_split_ag"
        assert choose(Instance(n, p, k), Topology.flat(p)) == "dsar_split_ag"
        assert (
            choose(Instance(n, p, k), Topology.uniform(p, 1))
            == "dsar_split_ag"
        )

    def test_dsar_hier_not_selected_on_flat_bandwidth_bound_network(self):
        """With a genuinely flat network (equal tiers) a bandwidth-bound
        dynamic instance stays on flat DSAR — the hierarchy's extra intra
        rounds re-move the full dense vector and cannot pay for
        themselves without a fast local tier. The same shape under a
        tiered network flips to dsar_hier."""
        n, p, k = 1 << 20, 8, 120_000  # dense payload dominates latency
        topo = Topology.from_spec("2x4")
        assert CostModel(GIGE).choose(Instance(n, p, k), topo) == "dsar_split_ag"
        assert (
            CostModel(TIERED_GIGE).choose(Instance(n, p, k), topo)
            == "dsar_hier"
        )

    def test_two_tier_cost_comparison_shapes(self):
        """The model orders flat vs hier DSAR the way the tiers demand."""
        inst, topo = Instance(1 << 20, 8, 120_000), Topology.from_spec("2x4")

        def times(network):
            model = CostModel(network)
            return [model.predict(inst, a, topo).time_s for a in ("dsar_split_ag", "dsar_hier")]

        flat_t, hier_t = times(TIERED_GIGE)
        assert hier_t < flat_t  # fast intra tier: leaders-only dense stage wins
        flat_eq, hier_eq = times(GIGE)
        assert hier_eq > flat_eq  # equal tiers: the extra intra rounds lose
        assert flat_t > 0 and hier_t > 0

    def test_more_ranks_pushes_toward_dsar(self):
        """Fill-in grows with P (Fig. 1): eventually the instance is dynamic."""
        n, k = 50_000, 2_500  # 5% per-node density
        algos = [choose(Instance(n, p, k)) for p in (2, 4, 8, 16, 32, 64)]
        assert algos[-1] == "dsar_split_ag"
        # once dynamic, stays dynamic
        first_dsar = algos.index("dsar_split_ag")
        assert all(a == "dsar_split_ag" for a in algos[first_dsar:])
