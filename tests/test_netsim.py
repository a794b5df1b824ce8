"""Tests for the alpha-beta timing model and trace replay.

Replay semantics are verified on hand-built traces with exactly computable
clock values, then cross-checked against the paper's closed-form costs on
real collective schedules.
"""

import math

import numpy as np
import pytest

from repro.netsim import (
    ARIES,
    GIGE,
    IB_FDR,
    PRESETS,
    SHM,
    TIERED_ARIES,
    TIERED_GIGE,
    TIERED_IB_FDR,
    NetworkModel,
    ReplayDeadlockError,
    TieredNetworkModel,
    overlap_step_time,
    replay,
    resolve_network,
)
from repro.runtime import Topology, Trace, run_ranks


def model(alpha=1.0, beta=0.1, gamma=0.0):
    return NetworkModel(name="test", alpha=alpha, beta=beta, gamma=gamma)


class TestNetworkModel:
    def test_message_time(self):
        m = model(alpha=2.0, beta=0.5)
        assert m.message_time(10) == pytest.approx(2.0 + 5.0)

    def test_compute_time(self):
        assert model(gamma=0.25).compute_time(8) == pytest.approx(2.0)

    def test_bandwidth(self):
        assert NetworkModel("x", 0.0, 1e-9).bandwidth_gbps == pytest.approx(1.0)
        assert NetworkModel("x", 0.0, 0.0).bandwidth_gbps == float("inf")

    def test_with_replaces(self):
        m = ARIES.with_(gamma=0.0)
        assert m.gamma == 0.0
        assert m.alpha == ARIES.alpha

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel("bad", alpha=-1.0, beta=0.0)

    def test_preset_ordering(self):
        # supercomputer < IB < GigE in both latency and per-byte cost
        assert ARIES.alpha < IB_FDR.alpha < GIGE.alpha
        assert ARIES.beta < IB_FDR.beta < GIGE.beta

    def test_describe_mentions_name(self):
        assert "aries" in ARIES.describe()


def tiered(intra=None, inter=None, shared_uplink=True):
    return TieredNetworkModel(
        name="test_tiered",
        intra=intra if intra is not None else model(alpha=0.1, beta=0.01),
        inter=inter if inter is not None else model(alpha=1.0, beta=0.1),
        shared_uplink=shared_uplink,
    )


class TestTieredNetworkModel:
    def test_tier_classification(self):
        m = tiered()
        assert m.tier(True) is m.intra
        assert m.tier(False) is m.inter
        assert m.message_time(100, same_host=True) == pytest.approx(0.1 + 1.0)
        assert m.message_time(100, same_host=False) == pytest.approx(1.0 + 10.0)

    def test_gamma_is_local(self):
        m = tiered(intra=model(gamma=0.5), inter=model(gamma=0.25))
        assert m.gamma == 0.5
        assert m.compute_time(4) == pytest.approx(2.0)

    def test_with_replaces(self):
        m = tiered().with_(shared_uplink=False)
        assert m.shared_uplink is False

    def test_rejects_non_models(self):
        with pytest.raises(TypeError):
            TieredNetworkModel(name="bad", intra=ARIES, inter=1.0)

    def test_presets_expose_tiered_entries(self):
        for preset in (TIERED_ARIES, TIERED_IB_FDR, TIERED_GIGE):
            assert PRESETS[preset.name] is preset
            assert preset.intra is SHM
            # the inter tier really is the slow one
            assert preset.inter.alpha > preset.intra.alpha
            assert preset.inter.beta > preset.intra.beta
            assert preset.name in preset.describe()
        assert TIERED_IB_FDR.inter is IB_FDR

    def test_resolve_network(self):
        assert resolve_network(ARIES) is ARIES
        assert resolve_network("tiered_gige") is TIERED_GIGE
        composed = resolve_network("tiered:shm/gige")
        assert composed.intra is SHM and composed.inter is GIGE
        defaulted = resolve_network("tiered:gige")
        assert defaulted.intra is SHM and defaulted.inter is GIGE
        with pytest.raises(ValueError, match="preset"):
            resolve_network("token-ring")
        with pytest.raises(ValueError, match="tiered spec"):
            resolve_network("tiered:nope")
        with pytest.raises(ValueError, match="tiered spec"):
            # tiered components must themselves be flat
            resolve_network("tiered:shm/tiered_gige")


class TestTieredReplay:
    def test_intra_vs_inter_costs(self):
        """One message, charged at the tier its (src, dst) hosts select."""
        trace = Trace(2)
        trace.record_send(0, 1, 0, 0, nbytes=100)
        trace.record_recv(1, 0, 0, 0, nbytes=100)
        m = tiered()
        same = replay(trace, m, topology=("a", "a"))
        cross = replay(trace, m, topology=("a", "b"))
        # intra: alpha 0.1, beta 0.01 -> arrival 0.1 + 1.0
        assert same.finish_times == pytest.approx([0.1, 1.1])
        # inter: alpha 1.0, beta 0.1 -> arrival 1.0 + 10.0
        assert cross.finish_times == pytest.approx([1.0, 11.0])

    def test_default_topology_is_flat(self):
        """No topology -> single host -> everything at intra rates."""
        trace = Trace(2)
        trace.record_send(0, 1, 0, 0, nbytes=100)
        trace.record_recv(1, 0, 0, 0, nbytes=100)
        m = tiered()
        assert replay(trace, m).finish_times == replay(
            trace, m, topology=("h", "h")
        ).finish_times

    def test_shared_uplink_serializes_concurrent_sends(self):
        """Two ranks of one host sending inter-node concurrently serialize
        on the host's egress link; without sharing they overlap."""
        trace = Trace(4)  # hosts: a=[0,1] b=[2,3]
        for src, dst in ((0, 2), (1, 3)):
            trace.record_send(src, dst, 0, 0, nbytes=100)
        for dst, src in ((2, 0), (3, 1)):
            trace.record_recv(dst, src, 0, 0, nbytes=100)
        topo = "2x2"
        m = tiered(intra=model(alpha=0.0, beta=0.0), inter=model(alpha=1.0, beta=0.1))
        unshared = replay(trace, m.with_(shared_uplink=False), topology=topo)
        shared = replay(trace, m, topology=topo)
        # unshared: both messages overlap fully -> both receivers at 11.0
        assert unshared.finish_times[2:] == pytest.approx([11.0, 11.0])
        # shared: rank 0's transmit occupies a's egress (and b's ingress)
        # for 10s; rank 1's starts only at t=10 -> second arrival at 20+1
        assert shared.finish_times[2] == pytest.approx(11.0)
        assert shared.finish_times[3] == pytest.approx(21.0)
        # senders only ever pay injection alpha, never the queueing delay
        assert shared.finish_times[:2] == unshared.finish_times[:2]

    def test_uplink_reservation_is_replay_order_independent(self):
        """A transmission slots into the uplink's earliest idle window at
        its own ready time: a same-host sender that becomes ready *later*
        (but is processed first, having the lower rank) must not push an
        earlier-ready transmission behind its own."""
        trace = Trace(4)  # hosts: a=[0,1] b=[2,3]
        # rank 0: busy for 1.0s, then sends inter (transmit 0.5s) — the
        # replayer processes it first
        trace.record_compute(0, 1000)
        trace.record_send(0, 2, 0, 0, nbytes=50)
        # rank 1: ready immediately, same egress/ingress pair
        trace.record_send(1, 3, 0, 0, nbytes=50)
        trace.record_recv(2, 0, 0, 0, nbytes=50)
        trace.record_recv(3, 1, 0, 0, nbytes=50)
        m = tiered(
            intra=model(alpha=0.0, beta=0.0, gamma=0.001),
            inter=model(alpha=0.0, beta=0.01, gamma=0.001),
        )
        result = replay(trace, m, topology="2x2")
        # rank 1's transmit uses the idle window [0, 0.5] that precedes
        # rank 0's reservation [1.0, 1.5] — not the queue behind it
        assert result.finish_times[3] == pytest.approx(0.5)
        assert result.finish_times[2] == pytest.approx(1.5)

    def test_uncontended_shared_equals_unshared(self):
        """A lone inter-node message costs exactly alpha + beta*L either way."""
        trace = Trace(2)
        trace.record_send(0, 1, 0, 0, nbytes=64)
        trace.record_recv(1, 0, 0, 0, nbytes=64)
        m = tiered()
        a = replay(trace, m, topology=("a", "b"))
        b = replay(trace, m.with_(shared_uplink=False), topology=("a", "b"))
        assert a.finish_times == b.finish_times

    def test_equal_tiers_bit_identical_to_plain(self):
        """Equal tiers without uplink sharing reproduce the single-model
        replay bit for bit, whatever the topology says."""
        def prog(comm):
            base = 100  # a user tag
            comm.sendrecv(np.arange(50, dtype=np.float32), comm.rank ^ 1, base)
            comm.compute(123, "work")

        out = run_ranks(prog, 4)
        flat_model = model(alpha=1.3e-6, beta=2.7e-9, gamma=3.1e-10)
        eq = TieredNetworkModel(
            name="eq", intra=flat_model, inter=flat_model, shared_uplink=False
        )
        base = replay(out.trace, flat_model)
        for topo in (None, "2x2", "4x1", ("a", "b", "a", "b")):
            got = replay(out.trace, eq, topology=topo)
            assert got.finish_times == base.finish_times  # exact, not approx
            assert got.phase_times == base.phase_times

    def test_equal_tiers_shared_identical_on_flat_topology(self):
        """With every rank on one host there is no inter traffic, so even
        the shared-uplink model cannot diverge from the plain replay."""
        def prog(comm):
            base = 100  # a user tag
            comm.sendrecv(1.0, comm.rank ^ 1, base)

        out = run_ranks(prog, 2)
        flat_model = model(alpha=1.0, beta=0.5)
        eq = TieredNetworkModel(name="eq", intra=flat_model, inter=flat_model)
        assert (
            replay(out.trace, eq).finish_times
            == replay(out.trace, flat_model).finish_times
        )

    def test_plain_model_ignores_tiers_but_validates_topology(self):
        trace = Trace(2)
        trace.record_send(0, 1, 0, 0, 10)
        trace.record_recv(1, 0, 0, 0, 10)
        m = model(alpha=1.0, beta=0.1)
        assert replay(trace, m, topology="2x1").finish_times == replay(
            trace, m
        ).finish_times
        with pytest.raises(ValueError, match="describes 4 ranks"):
            replay(trace, m, topology="2x2")

    def test_tiered_topology_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="describes 4 ranks"):
            replay(Trace(2), tiered(), topology="2x2")

    def test_hier_trace_rewarded_on_two_tier_network(self):
        """The tentpole shape: on 2x4 under every tiered preset's *network*
        terms (gamma zeroed to isolate wire time from the CPU-bound merge
        work, which is what the tiers model) the hierarchical schedule
        replays faster than every flat one."""
        from repro.collectives import sparse_allreduce
        from repro.streams import SparseStream

        topo = Topology.from_spec("2x4")
        traces = {}
        for algo in ("ssar_hier", "ssar_rec_dbl", "ssar_split_ag", "ssar_ring"):
            def prog(comm, algo=algo):
                gen = np.random.default_rng(40 + comm.rank)
                s = SparseStream.random_uniform(1 << 14, nnz=300, rng=gen)
                return sparse_allreduce(comm, s, algorithm=algo)

            traces[algo] = run_ranks(prog, 8, topology=topo).trace
        for preset in (TIERED_ARIES, TIERED_IB_FDR, TIERED_GIGE):
            wire_only = preset.with_(
                intra=preset.intra.with_(gamma=0.0),
                inter=preset.inter.with_(gamma=0.0),
            )
            times = {
                algo: replay(t, wire_only, topology=topo).makespan
                for algo, t in traces.items()
            }
            assert times["ssar_hier"] == min(times.values()), (preset.name, times)


def reference_replay(trace, net):
    """The pre-readiness-scheduling replayer (quadratic rank rescans),
    kept verbatim as the bit-compatibility oracle for plain models."""
    nranks = trace.nranks
    events = [trace.events(r) for r in range(nranks)]
    pointers = [0] * nranks
    clocks = [0.0] * nranks
    arrivals = {}
    remaining = sum(len(e) for e in events)
    while remaining:
        progressed = False
        for rank in range(nranks):
            ptr = pointers[rank]
            lst = events[rank]
            while ptr < len(lst):
                ev = lst[ptr]
                if ev.op == "send":
                    clocks[rank] += net.alpha
                    arrivals[(rank, ev.peer, ev.tag, ev.seq)] = (
                        clocks[rank] + net.beta * ev.nbytes
                    )
                elif ev.op == "recv":
                    key = (ev.peer, rank, ev.tag, ev.seq)
                    if key not in arrivals:
                        break
                    arrival = arrivals.pop(key)
                    if arrival > clocks[rank]:
                        clocks[rank] = arrival
                elif ev.op == "compute":
                    clocks[rank] += net.gamma * ev.nbytes
                ptr += 1
                remaining -= 1
                progressed = True
            pointers[rank] = ptr
        if not progressed:
            raise RuntimeError("stalled")
    return clocks


class TestReadinessScheduling:
    """The replay-loop refactor: readiness tracking must change the work
    bound, never the numbers."""

    def _ring_trace(self, nranks):
        from repro.collectives import sparse_allreduce
        from repro.streams import SparseStream

        def prog(comm):
            gen = np.random.default_rng(comm.rank)
            s = SparseStream.random_uniform(1 << 12, nnz=40, rng=gen)
            return sparse_allreduce(comm, s, algorithm="ssar_ring")

        return run_ranks(prog, nranks).trace

    def test_ring_replay_bit_identical_to_reference(self):
        """P=32 ring: the long sequential dependency chain that made the
        rescan loop quadratic; times must not move at all."""
        trace = self._ring_trace(32)
        m = model(alpha=1e-6, beta=1e-9, gamma=2e-10)
        assert replay(trace, m).finish_times == reference_replay(trace, m)

    def test_ring_replay_is_pass_bounded(self):
        """Each rank is activated once at start plus once per recv stall:
        total activations are bounded by messages + ranks, not by
        passes * ranks (the quadratic regime)."""
        trace = self._ring_trace(32)
        result = replay(trace, model())
        assert result.rank_activations <= trace.total_messages + trace.nranks
        # sanity: the ring really has the long chains that used to hurt
        assert trace.total_messages >= 32 * 2 * 31

    @pytest.mark.parametrize("nranks", [2, 3, 5, 8])
    def test_collective_replays_match_reference(self, nranks):
        from repro.collectives import sparse_allreduce
        from repro.streams import SparseStream

        for algo in ("ssar_rec_dbl", "ssar_split_ag", "dsar_split_ag"):
            def prog(comm, algo=algo):
                gen = np.random.default_rng(3 * comm.rank + 1)
                s = SparseStream.random_uniform(2048, nnz=100, rng=gen)
                return sparse_allreduce(comm, s, algorithm=algo)

            trace = run_ranks(prog, nranks).trace
            m = model(alpha=1e-6, beta=1e-9, gamma=2e-10)
            assert replay(trace, m).finish_times == reference_replay(trace, m)


class TestReplayHandBuilt:
    def test_single_message(self):
        trace = Trace(2)
        trace.record_send(0, 1, 0, 0, nbytes=100)
        trace.record_recv(1, 0, 0, 0, nbytes=100)
        result = replay(trace, model(alpha=1.0, beta=0.1))
        # sender: injection alpha -> 1.0; receiver: arrival 1.0 + 10.0
        assert result.finish_times[0] == pytest.approx(1.0)
        assert result.finish_times[1] == pytest.approx(11.0)
        assert result.makespan == pytest.approx(11.0)

    def test_pairwise_exchange_costs_one_round(self):
        trace = Trace(2)
        for r in (0, 1):
            trace.record_send(r, 1 - r, 0, 0, nbytes=50)
        for r in (0, 1):
            trace.record_recv(r, 1 - r, 0, 0, nbytes=50)
        result = replay(trace, model(alpha=1.0, beta=0.1))
        # both: alpha + beta*L = 1 + 5 = 6 (full overlap of directions)
        assert result.finish_times == pytest.approx([6.0, 6.0])

    def test_compute_charges_gamma(self):
        trace = Trace(1)
        trace.record_compute(0, 1000)
        result = replay(trace, model(gamma=0.001))
        assert result.makespan == pytest.approx(1.0)

    def test_fifo_sequencing(self):
        trace = Trace(2)
        trace.record_send(0, 1, 0, 0, nbytes=10)
        trace.record_send(0, 1, 0, 1, nbytes=10)
        trace.record_recv(1, 0, 0, 0, nbytes=10)
        trace.record_recv(1, 0, 0, 1, nbytes=10)
        result = replay(trace, model(alpha=1.0, beta=0.0))
        # sender clock: 1 then 2; arrivals at 1, 2; receiver max(0,1)=1 then 2
        assert result.finish_times[0] == pytest.approx(2.0)
        assert result.finish_times[1] == pytest.approx(2.0)

    def test_receiver_waits_for_late_sender(self):
        trace = Trace(2)
        trace.record_compute(0, 1000)  # sender busy first
        trace.record_send(0, 1, 0, 0, nbytes=0)
        trace.record_recv(1, 0, 0, 0, nbytes=0)
        result = replay(trace, model(alpha=1.0, gamma=0.01))
        assert result.finish_times[1] == pytest.approx(10.0 + 1.0)

    def test_unmatched_recv_is_deadlock(self):
        trace = Trace(2)
        trace.record_recv(1, 0, 0, 0, nbytes=10)
        with pytest.raises(ReplayDeadlockError):
            replay(trace, model())

    def test_phase_accounting(self):
        trace = Trace(1)
        trace.record_mark(0, "phase_a")
        trace.record_compute(0, 100)
        trace.record_mark(0, "phase_b")
        trace.record_compute(0, 300)
        result = replay(trace, model(gamma=1.0))
        assert result.phase("phase_a") == pytest.approx(100.0)
        assert result.phase("phase_b") == pytest.approx(300.0)
        assert result.phase("missing") == 0.0

    def test_empty_trace(self):
        result = replay(Trace(3), model())
        assert result.makespan == 0.0

    def test_determinism(self):
        trace = Trace(2)
        trace.record_send(0, 1, 0, 0, 10)
        trace.record_recv(1, 0, 0, 0, 10)
        r1 = replay(trace, ARIES)
        r2 = replay(trace, ARIES)
        assert r1.finish_times == r2.finish_times


class TestReplayOnRealSchedules:
    def test_recursive_doubling_latency_is_log_p(self):
        """A zero-byte recursive-doubling exchange costs exactly log2(P) rounds."""
        def prog(comm):
            base = 100  # a user tag
            distance, rnd = 1, 0
            while distance < comm.size:
                partner = comm.rank ^ distance
                comm.sendrecv(0, partner, base + rnd)
                distance *= 2
                rnd += 1

        for P in (2, 4, 8):
            out = run_ranks(prog, P)
            t = replay(out.trace, model(alpha=1.0, beta=0.0))
            # sendrecv: payload 8 bytes but beta=0 -> alpha per round
            assert t.makespan == pytest.approx(math.log2(P), abs=1e-9)

    def test_dense_rec_dbl_matches_closed_form(self):
        from repro.collectives import allreduce_recursive_doubling
        from repro.costmodel import dense_rec_dbl_time

        N, P = 4096, 8
        vecs = [np.random.default_rng(r).standard_normal(N).astype(np.float32) for r in range(P)]

        out = run_ranks(lambda c: allreduce_recursive_doubling(c, vecs[c.rank]), P)
        m = model(alpha=1e-6, beta=1e-9, gamma=0.0)
        measured = replay(out.trace, m).makespan
        predicted = dense_rec_dbl_time(P, N, m)
        # header bytes add a little; must agree within 5%
        assert measured == pytest.approx(predicted, rel=0.05)

    def test_dense_ring_matches_closed_form(self):
        from repro.collectives import allreduce_ring
        from repro.costmodel import dense_ring_time

        N, P = 4096, 8
        vecs = [np.random.default_rng(r).standard_normal(N).astype(np.float32) for r in range(P)]
        out = run_ranks(lambda c: allreduce_ring(c, vecs[c.rank]), P)
        m = model(alpha=1e-6, beta=1e-9, gamma=0.0)
        measured = replay(out.trace, m).makespan
        predicted = dense_ring_time(P, N, m)
        assert measured == pytest.approx(predicted, rel=0.10)


class TestOverlap:
    def test_blocking_is_sum(self):
        assert overlap_step_time(2.0, 3.0, nonblocking=False) == 5.0

    def test_nonblocking_is_max(self):
        assert overlap_step_time(2.0, 3.0, nonblocking=True) == 3.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            overlap_step_time(-1.0, 1.0, True)


def _executed(algorithm, nranks, dimension, nnz, seed=9000, topology=None):
    """Run one allreduce on uniform random inputs (sparse or dense by the
    algorithm's registry) and return its ``RunResult``, plus the exact sum."""
    from repro.collectives import ALGORITHMS, dense_allreduce, sparse_allreduce
    from repro.streams import SparseStream

    def stream(rank):
        gen = np.random.default_rng(seed + rank)
        return SparseStream.random_uniform(dimension, nnz=nnz, rng=gen)

    def prog(comm):
        s = stream(comm.rank)
        if algorithm in ALGORITHMS:
            return sparse_allreduce(comm, s, algorithm=algorithm).to_dense()
        return dense_allreduce(comm, s.to_dense(), algorithm)

    expected = sum(stream(r).to_dense().astype(np.float64) for r in range(nranks))
    return run_ranks(prog, nranks, topology=topology), expected


class TestReplayOfExecutedAllreduces:
    """The figure drivers' measurement composed from library pieces: an
    allreduce executed by ``run_ranks``, its trace replayed under a network
    that ``CostModel.resolve`` accepts (a model, a preset name or a
    ``tiered:`` spec), against the simulated topology when there is one."""

    def test_registries_hold_every_allreduce(self):
        from repro.collectives import ALGORITHMS, DENSE_ALGORITHMS

        assert set(ALGORITHMS) | set(DENSE_ALGORITHMS) == {
            "ssar_rec_dbl", "ssar_split_ag", "ssar_ring", "ssar_hier",
            "dsar_split_ag", "dsar_hier",
            "dense_rabenseifner", "dense_ring", "dense_rec_dbl",
        }
        assert not set(ALGORITHMS) & set(DENSE_ALGORITHMS)

    @pytest.mark.parametrize("algorithm", [
        "ssar_rec_dbl", "ssar_split_ag", "ssar_ring", "ssar_hier",
        "dsar_split_ag", "dsar_hier",
        "dense_rabenseifner", "dense_ring", "dense_rec_dbl",
    ])
    def test_every_allreduce_sums_and_replays(self, algorithm):
        from repro.costmodel import CostModel

        net = CostModel.resolve("aries")
        for P in (2, 4):
            out, expected = _executed(algorithm, P, dimension=4096, nnz=40)
            for result in out.results:
                np.testing.assert_allclose(result, expected, rtol=1e-5, atol=1e-6)
            assert out.trace.total_bytes_sent > 0 and out.trace.total_messages > 0
            assert replay(out.trace, net).makespan > 0

    def test_sparse_beats_dense_at_low_density(self):
        from repro.costmodel import CostModel

        net = CostModel.resolve("aries")
        times = {
            algo: replay(_executed(algo, 4, 1 << 16, 327)[0].trace, net).makespan
            for algo in ("ssar_rec_dbl", "dense_rabenseifner")
        }
        assert times["ssar_rec_dbl"] < times["dense_rabenseifner"]

    def test_model_object_is_replayed_as_given(self):
        from repro.costmodel import CostModel

        net = CostModel.resolve(ARIES.with_(alpha=1e-3))
        out, _ = _executed("ssar_rec_dbl", 2, 1024, 10)
        assert replay(out.trace, net).makespan >= 1e-3  # dominated by the huge alpha

    def test_unknown_network_rejected(self):
        from repro.costmodel import CostModel

        with pytest.raises(ValueError, match="preset"):
            CostModel.resolve("token-ring")

    def test_same_seed_same_trace_and_time(self):
        a, _ = _executed("ssar_rec_dbl", 2, 2048, 20, seed=7)
        b, _ = _executed("ssar_rec_dbl", 2, 2048, 20, seed=7)
        assert replay(a.trace, ARIES).makespan == replay(b.trace, ARIES).makespan
        assert a.trace.total_bytes_sent == b.trace.total_bytes_sent

    def test_tiered_spec_rewards_hierarchy_on_simulated_hosts(self):
        from repro.costmodel import CostModel

        net = CostModel.resolve("tiered:gige")
        topo = Topology.uniform(8, 4)
        times = {
            algo: replay(
                _executed(algo, 8, 1 << 14, 327, topology=topo)[0].trace, net, topology=topo
            ).makespan
            for algo in ("ssar_hier", "ssar_rec_dbl")
        }
        assert times["ssar_hier"] < times["ssar_rec_dbl"]

    def test_tiered_preset_without_topology_runs_at_intra_rates(self):
        from repro.costmodel import CostModel

        net = CostModel.resolve("tiered_gige")
        out, _ = _executed("ssar_rec_dbl", 2, 1024, 10)
        # no simulated hosts: one host, so every message is priced intra
        assert replay(out.trace, net).makespan == replay(out.trace, net.intra).makespan > 0

    def test_dsar_hier_replays_on_tiered_ib_fdr(self):
        from repro.costmodel import CostModel

        net = CostModel.resolve("tiered:ib_fdr")
        topo = Topology.uniform(4, 2)
        out, _ = _executed("dsar_hier", 4, 2048, 409, topology=topo)
        assert out.trace.total_bytes_sent > 0
        assert replay(out.trace, net, topology=topo).makespan > 0

    def test_hier_sends_no_more_messages_than_rec_dbl_on_two_hosts(self):
        topo = Topology.uniform(4, 2)
        messages = {
            algo: _executed(algo, 4, 2048, 20, topology=topo)[0].trace.total_messages
            for algo in ("ssar_hier", "ssar_rec_dbl")
        }
        assert 0 < messages["ssar_hier"] <= messages["ssar_rec_dbl"]
