"""Hierarchical sparse allreduce (``ssar_hier``) and its selector wiring.

Covers the correctness contract (same sum as every flat algorithm on any
topology), the bit-compatibility guarantee with ``ssar_rec_dbl`` on
power-of-two aligned host groups, the inter-node byte savings that are
the algorithm's reason to exist, and the two-host socket smoke leg CI
pins (2 simulated hosts x 2 ranks over TCP loopback).
"""

import threading

import numpy as np
import pytest

from repro.analysis import expected_union_size
from repro.collectives import (
    dsar_hierarchical,
    run_sparse_allreduce,
    sparse_allreduce,
    ssar_hierarchical,
    tree_reduce,
)
from repro.costmodel import CostModel, Instance
from repro.netsim import TIERED_ARIES, TIERED_GIGE, TIERED_IB_FDR, replay
from repro.quant import QSGDQuantizer
from repro.runtime import RankError, Topology, bytes_by_tier, run_ranks
from repro.streams import SparseStream

from conftest import make_rank_stream, reference_sum

DIM, NNZ = 2048, 64


def _hier_prog(comm):
    return ssar_hierarchical(comm, make_rank_stream(DIM, NNZ, comm.rank))


class TestCorrectness:
    @pytest.mark.parametrize(
        "nranks,topology",
        [
            (1, None),
            (2, "2x1"),
            (3, 2),  # ragged: node0=[0,1] node1=[2]
            (4, None),  # flat fallback
            (4, "2x2"),
            (5, 2),
            (6, 3),
            (8, "2x4"),
            (8, "4x2"),
            (8, ("a", "a", "a", "b", "b", "c", "c", "c")),  # uneven hosts
        ],
    )
    def test_matches_dense_reference(self, nranks, topology):
        out = run_ranks(_hier_prog, nranks, backend="thread", topology=topology)
        ref = reference_sum(DIM, NNZ, nranks)
        for r in range(nranks):
            assert np.allclose(out[r].to_dense(), ref, atol=1e-4), f"rank {r}"
        # the allreduce contract: every rank holds the identical result
        for r in range(1, nranks):
            assert np.array_equal(out[0].to_dense(), out[r].to_dense())

    def test_topology_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="describes 4 ranks"):
            run_ranks(_hier_prog, 2, backend="thread", topology=Topology.uniform(4, 2))

    def test_comm_topology_is_the_default(self):
        """With no explicit argument the communicator's map drives grouping."""

        def prog(comm):
            return ssar_hierarchical(comm, make_rank_stream(DIM, NNZ, comm.rank))

        out = run_ranks(prog, 4, backend="thread", topology="2x2")
        assert np.allclose(out[0].to_dense(), reference_sum(DIM, NNZ, 4), atol=1e-4)

    def test_empty_streams(self):
        def prog(comm):
            return ssar_hierarchical(comm, SparseStream(DIM))

        out = run_ranks(prog, 4, backend="thread", topology=Topology.uniform(4, 2))
        assert out[0].nnz == 0

    def test_dense_input_handled(self):
        """Dense-representation inputs are sparsified first, like the other
        SSAR entry points."""

        def prog(comm):
            dense_in = make_rank_stream(DIM, NNZ, comm.rank).densify()
            return ssar_hierarchical(comm, dense_in)

        out = run_ranks(prog, 4, backend="thread", topology="2x2")
        assert np.allclose(out[0].to_dense(), reference_sum(DIM, NNZ, 4), atol=1e-4)


class TestBitCompatibility:
    """On power-of-two aligned host groups the hierarchical schedule applies
    the exact floating-point association of recursive doubling."""

    @pytest.mark.parametrize(
        "nranks,topology",
        [(2, None), (4, None), (8, None), (4, "2x2"), (8, "2x4"), (8, "4x2"), (3, 3)],
    )
    def test_bit_identical_to_rec_dbl(self, nranks, topology):
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(nranks)]
        hier = run_sparse_allreduce(streams, "ssar_hier", topology=topology)
        rec = run_sparse_allreduce(streams, "ssar_rec_dbl", topology=topology)
        for r in range(nranks):
            assert np.array_equal(hier[r].to_dense(), rec[r].to_dense()), f"rank {r}"
            assert hier[r].is_dense == rec[r].is_dense


class TestInterNodeSavings:
    def test_hier_moves_fewer_inter_node_bytes(self):
        """The point of the algorithm: only merged unions cross the slow tier."""
        topo = Topology.from_spec("2x4")
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(8)]
        by_algo = {
            algo: run_sparse_allreduce(streams, algo, topology=topo)
            for algo in ("ssar_hier", "ssar_rec_dbl", "ssar_split_ag", "ssar_ring")
        }
        inter = {a: bytes_by_tier(res.trace, topo)[1] for a, res in by_algo.items()}
        assert inter["ssar_hier"] < inter["ssar_rec_dbl"]
        assert inter["ssar_hier"] < inter["ssar_split_ag"]
        assert inter["ssar_hier"] < inter["ssar_ring"]

    def test_flat_topology_has_zero_inter_bytes(self):
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(4)]
        out = run_sparse_allreduce(streams, "ssar_hier")
        assert bytes_by_tier(out.trace, Topology.flat(4)) == (
            out.trace.total_bytes_sent,
            0,
        )

    def test_two_tier_model_bounds_leader_payload(self):
        """App. B over a host's m = 4 supports: the leader union is smaller
        than m*k but at least k — the volume the slow tier is spared — and
        no larger than the union of all P = 8."""
        k_local = expected_union_size(NNZ, DIM, 4)
        assert NNZ <= k_local < 4 * NNZ
        assert k_local <= expected_union_size(NNZ, DIM, 8)


class TestTreeReduce:
    def test_root_holds_union_others_none(self):
        def prog(comm):
            return tree_reduce(comm, make_rank_stream(DIM, NNZ, comm.rank))

        out = run_ranks(prog, 5, backend="thread")
        assert np.allclose(out[0].to_dense(), reference_sum(DIM, NNZ, 5), atol=1e-4)
        assert out.results[1:] == [None] * 4

    def test_ssar_hier_copies_once_per_send(self, monkeypatch):
        """On a thread-backend 2x2 world a stream is copied only by the
        sends (the backend copies every payload): a leader sends twice
        (leader exchange, broadcast), its host peer once (to the leader),
        and a peer keeps no copy of a contribution it has sent."""
        real_copy, on_rank, copies = SparseStream.copy, threading.local(), [0] * 4

        def counting_copy(self, *args, **kwargs):
            rank = getattr(on_rank, "rank", None)
            if rank is not None:
                copies[rank] += 1
            return real_copy(self, *args, **kwargs)

        monkeypatch.setattr(SparseStream, "copy", counting_copy)

        def prog(comm):
            stream = make_rank_stream(DIM, NNZ, comm.rank)
            ssar_hierarchical(comm, stream)  # builds the hierarchy
            on_rank.rank = comm.rank
            ssar_hierarchical(comm, stream)
            on_rank.rank = None

        run_ranks(prog, 4, backend="thread", topology="2x2")
        assert copies == [2, 1, 2, 1]

    def test_single_rank_copy(self):
        def prog(comm):
            s = make_rank_stream(DIM, NNZ, comm.rank)
            out = tree_reduce(comm, s)
            assert out is not s
            return np.array_equal(out.to_dense(), s.to_dense())

        assert run_ranks(prog, 1).results == [True]


class TestAutoSelection:
    def test_auto_picks_hier_on_hierarchical_world(self):
        def prog(comm):
            out = sparse_allreduce(
                comm, make_rank_stream(DIM, NNZ, comm.rank), algorithm="auto"
            )
            marks = [
                e.label
                for e in comm.trace.events(comm.rank)
                if e.op == "mark"
            ]
            return ("ssar_hier" in marks, out.to_dense())

        out = run_ranks(prog, 4, backend="thread", topology="2x2")
        picked, dense = out[0]
        assert picked
        assert np.allclose(dense, reference_sum(DIM, NNZ, 4), atol=1e-4)

    def test_auto_stays_flat_without_topology(self):
        def prog(comm):
            sparse_allreduce(comm, make_rank_stream(DIM, NNZ, comm.rank), "auto")
            return [
                e.label for e in comm.trace.events(comm.rank) if e.op == "mark"
            ]

        out = run_ranks(prog, 4, backend="thread")
        assert "ssar_hier" not in out[0]


def _dsar_hier_prog(comm):
    return dsar_hierarchical(comm, make_rank_stream(DIM, NNZ, comm.rank))


class TestDsarHier:
    @pytest.mark.parametrize(
        "nranks,topology",
        [
            (1, None),
            (2, "2x1"),
            (3, 2),  # ragged: node0=[0,1] node1=[2]
            (4, None),  # flat fallback
            (4, "2x2"),
            (6, 3),
            (8, "2x4"),
            (8, "4x2"),
            (8, ("a", "a", "a", "b", "b", "c", "c", "c")),  # uneven hosts
        ],
    )
    def test_matches_dense_reference(self, nranks, topology):
        out = run_ranks(_dsar_hier_prog, nranks, backend="thread", topology=topology)
        ref = reference_sum(DIM, NNZ, nranks)
        for r in range(nranks):
            assert out[r].is_dense, f"rank {r}"  # the representation switch
            assert np.allclose(out[r].to_dense(), ref, atol=1e-4), f"rank {r}"
        for r in range(1, nranks):
            assert np.array_equal(out[0].to_dense(), out[r].to_dense())

    def test_via_sparse_allreduce_api(self):
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(4)]
        out = run_sparse_allreduce(streams, "dsar_hier", topology="2x2")
        assert out[0].is_dense
        assert np.allclose(out[0].to_dense(), reference_sum(DIM, NNZ, 4), atol=1e-4)

    def test_comm_topology_is_the_default(self):
        def prog(comm):
            return dsar_hierarchical(comm, make_rank_stream(DIM, NNZ, comm.rank))

        out = run_ranks(prog, 4, backend="thread", topology="2x2")
        assert np.allclose(out[0].to_dense(), reference_sum(DIM, NNZ, 4), atol=1e-4)

    def test_topology_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="describes 4 ranks"):
            run_ranks(_dsar_hier_prog, 2, backend="thread", topology=Topology.uniform(4, 2))

    def test_moves_fewer_inter_node_bytes_than_flat_dsar(self):
        """Only nnodes dense partitions cross the slow tier instead of P."""
        topo = Topology.from_spec("2x4")
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(8)]
        hier = run_sparse_allreduce(streams, "dsar_hier", topology=topo)
        flat = run_sparse_allreduce(streams, "dsar_split_ag", topology=topo)
        assert (
            bytes_by_tier(hier.trace, topo)[1] < bytes_by_tier(flat.trace, topo)[1]
        )

    def test_quantized_identical_across_ranks_and_close(self):
        """Each partition quantized once by its owning leader: every rank
        dequantizes the same codes, so results agree bit for bit."""
        def prog(comm):
            return dsar_hierarchical(
                comm,
                make_rank_stream(DIM, NNZ, comm.rank),
                quantizer=QSGDQuantizer(bits=8, bucket_size=256, seed=100 + comm.rank),
            )

        out = run_ranks(prog, 4, backend="thread", topology="2x2")
        ref = reference_sum(DIM, NNZ, 4)
        base = out[0].to_dense()
        for r in range(1, 4):
            assert np.array_equal(base, out[r].to_dense())
        err = np.linalg.norm(base - ref) / max(np.linalg.norm(ref), 1e-12)
        assert err < 0.05

    def test_quantized_moves_fewer_bytes(self):
        def factory(bits):
            def prog(comm):
                q = QSGDQuantizer(bits=bits, bucket_size=256, seed=1) if bits else None
                return dsar_hierarchical(
                    comm, make_rank_stream(1 << 14, 512, comm.rank), quantizer=q
                )
            return prog

        full = run_ranks(factory(None), 4, backend="thread", topology="2x2")
        quant = run_ranks(factory(4), 4, backend="thread", topology="2x2")
        assert quant.trace.total_bytes_sent < full.trace.total_bytes_sent

    def test_single_rank_quantizes_once(self):
        """P=1 delegates to the flat kernel's fixed single-rank path."""
        def prog(comm):
            return dsar_hierarchical(
                comm,
                make_rank_stream(DIM, NNZ, comm.rank),
                quantizer=QSGDQuantizer(bits=4, bucket_size=128, seed=9),
            )

        out = run_ranks(prog, 1, backend="thread")
        q = QSGDQuantizer(bits=4, bucket_size=128, seed=9)
        expect = q.dequantize(
            q.quantize(make_rank_stream(DIM, NNZ, 0).to_dense())
        ).astype(np.float32)
        assert np.array_equal(out[0].to_dense(), expect)


class TestTieredReplayVerdict:
    """The PR's acceptance shape: under a tiered preset on 2x4 the replayed
    makespan of the hierarchical schedule beats every flat algorithm, and
    the cost model's choice agrees with that replay verdict.

    The full sweep-the-board verdict is pinned under the GigE-class tier —
    the cloud regime where the inter-node wire dominates (on an Aries/IB
    class fabric the replay is CPU-gamma-bound at this small P, and the
    leader's concentrated merge work keeps distributed-reduction schedules
    competitive — the wire-only ordering is pinned in test_netsim). Every
    preset must still prefer ssar_hier over its structural counterpart
    ssar_rec_dbl, whose inter round moves the same unions through a shared
    uplink four-at-a-time."""

    TOPO = Topology.from_spec("2x4")
    TDIM = 1 << 16
    STATIC_NNZ = 3000  # E[K8] ~ 20k, well below delta = 32768
    DYNAMIC_NNZ = 12000  # E[K8] ~ 53k > delta -> dynamic instance

    def _trace(self, algo, nnz):
        streams = [make_rank_stream(self.TDIM, nnz, r) for r in range(8)]
        return run_sparse_allreduce(streams, algo, topology=self.TOPO).trace

    def test_static_hier_beats_flat_and_selector_agrees(self):
        times = {
            algo: replay(
                self._trace(algo, self.STATIC_NNZ), TIERED_GIGE, topology=self.TOPO
            ).makespan
            for algo in ("ssar_hier", "ssar_rec_dbl", "ssar_split_ag", "ssar_ring")
        }
        assert times["ssar_hier"] == min(times.values()), times
        assert (
            CostModel.default().choose(Instance(self.TDIM, 8, self.STATIC_NNZ), self.TOPO)
            == "ssar_hier"
        )

    @pytest.mark.parametrize("preset", [TIERED_ARIES, TIERED_IB_FDR, TIERED_GIGE])
    def test_hier_beats_rec_dbl_under_every_tiered_preset(self, preset):
        t_hier = replay(
            self._trace("ssar_hier", self.STATIC_NNZ), preset, topology=self.TOPO
        ).makespan
        t_rec = replay(
            self._trace("ssar_rec_dbl", self.STATIC_NNZ), preset, topology=self.TOPO
        ).makespan
        assert t_hier < t_rec, preset.name

    def test_dynamic_hier_beats_flat_and_selector_agrees(self):
        t_hier = replay(
            self._trace("dsar_hier", self.DYNAMIC_NNZ), TIERED_GIGE, topology=self.TOPO
        ).makespan
        t_flat = replay(
            self._trace("dsar_split_ag", self.DYNAMIC_NNZ),
            TIERED_GIGE,
            topology=self.TOPO,
        ).makespan
        assert t_hier < t_flat
        assert (
            CostModel(TIERED_GIGE).choose(Instance(self.TDIM, 8, self.DYNAMIC_NNZ), self.TOPO)
            == "dsar_hier"
        )

    def test_flat_preset_replay_sees_no_hier_advantage_reversal(self):
        """Replay under the plain flat presets is untouched by the tiered
        machinery: identical numbers with and without a topology."""
        from repro.netsim import GIGE

        trace = self._trace("ssar_hier", self.STATIC_NNZ)
        assert (
            replay(trace, GIGE).finish_times
            == replay(trace, GIGE, topology=self.TOPO).finish_times
        )


def _chunked_prog(comm, algo, chunks):
    stream = make_rank_stream(DIM, NNZ, comm.rank)
    fn = ssar_hierarchical if algo == "ssar_hier" else dsar_hierarchical
    return fn(comm, stream, chunks=chunks)


class TestChunked:
    """The chunked pipeline (tentpole of the overlap PR): splitting the
    coordinate space into K chunks so leader exchanges overlap intra-host
    reduces must not change a single bit of the result — every chunk is
    reduced by the exact unchunked schedule on its sub-range."""

    @pytest.mark.parametrize("algo", ["ssar_hier", "dsar_hier"])
    @pytest.mark.parametrize("chunks", [2, 3, 4, 8])
    @pytest.mark.parametrize(
        "nranks,topology",
        [(3, 2), (4, "2x2"), (5, 2), (8, "2x4")],  # ragged + aligned hosts
    )
    def test_bit_identical_to_unchunked(self, algo, chunks, nranks, topology):
        base = run_ranks(_chunked_prog, nranks, algo, 1, backend="thread", topology=topology)
        out = run_ranks(
            _chunked_prog, nranks, algo, chunks, backend="thread", topology=topology
        )
        ref = reference_sum(DIM, NNZ, nranks)
        for r in range(nranks):
            assert np.array_equal(base[r].to_dense(), out[r].to_dense()), f"rank {r}"
            assert base[r].is_dense == out[r].is_dense
        assert np.allclose(base[0].to_dense(), ref, atol=1e-4)

    def test_chunks_one_is_the_unchunked_schedule(self):
        """chunks=1 takes the original code path: identical trace shape."""
        base = run_ranks(_chunked_prog, 4, "ssar_hier", 1, backend="thread", topology="2x2")
        plain = run_ranks(_hier_prog, 4, backend="thread", topology="2x2")
        assert base.trace.total_messages == plain.trace.total_messages
        assert base.trace.total_bytes_sent == plain.trace.total_bytes_sent

    def test_more_chunks_than_nnz(self):
        """Chunks that receive no coordinates still flow through the
        pipeline (empty streams are legal payloads)."""
        out = run_ranks(_chunked_prog, 4, "ssar_hier", 64, backend="thread", topology="2x2")
        base = run_ranks(_chunked_prog, 4, "ssar_hier", 1, backend="thread", topology="2x2")
        for r in range(4):
            assert np.array_equal(base[r].to_dense(), out[r].to_dense())

    def test_empty_streams_chunked(self):
        def prog(comm):
            return ssar_hierarchical(comm, SparseStream(DIM), chunks=4)

        out = run_ranks(prog, 4, backend="thread", topology=Topology.uniform(4, 2))
        assert out[0].nnz == 0

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5])
    def test_invalid_chunks_rejected(self, bad):
        with pytest.raises(RankError, match="chunks"):
            run_ranks(_chunked_prog, 2, "ssar_hier", bad, backend="thread", topology=2)

    @pytest.mark.parametrize("bad", [0, -3, True, 2.5, "4"])
    def test_invalid_chunks_raise_in_the_driver_not_the_ranks(self, bad):
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(2)]
        with pytest.raises(ValueError, match="chunks"):
            run_sparse_allreduce(streams, "ssar_hier", chunks=bad)

    @pytest.mark.parametrize("bad", [0, -0.5])
    def test_non_positive_timeout_raises_in_the_driver_not_the_ranks(self, bad):
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(2)]
        with pytest.raises(ValueError, match="timeout"):
            run_sparse_allreduce(streams, "ssar_hier", timeout=bad)

    def test_driver_chunks_reach_the_hierarchical_collective(self):
        """chunks= on the one-call driver produces the chunked schedule
        (more messages: each chunk travels separately) with the identical sum."""
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(4)]
        base = run_sparse_allreduce(streams, "ssar_hier", topology="2x2")
        chunked = run_sparse_allreduce(streams, "ssar_hier", topology="2x2", chunks=4)
        for r in range(4):
            assert np.array_equal(base[r].to_dense(), chunked[r].to_dense())
        assert chunked.trace.total_messages > base.trace.total_messages

    def test_driver_chunks_one_is_the_default_schedule(self):
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(4)]
        base = run_sparse_allreduce(streams, "ssar_hier", topology="2x2")
        one = run_sparse_allreduce(streams, "ssar_hier", topology="2x2", chunks=1)
        assert one.trace.total_messages == base.trace.total_messages
        assert one.trace.total_bytes_sent == base.trace.total_bytes_sent

    @pytest.mark.parametrize("backend", ["process", "shmem"])
    def test_driver_forwards_backend_topology_and_chunks(self, backend):
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(4)]
        out = run_sparse_allreduce(
            streams, "ssar_hier", backend=backend, topology=2, chunks=2
        )
        thread = run_sparse_allreduce(streams, "ssar_hier", topology=2, chunks=2)
        ref = reference_sum(DIM, NNZ, 4)
        for r in range(4):
            assert np.allclose(out[r].to_dense(), ref, atol=1e-4)
            assert np.array_equal(out[r].to_dense(), thread[r].to_dense())
        assert out.trace.total_bytes_sent == thread.trace.total_bytes_sent

    def test_chunks_noop_on_flat_algorithms(self):
        """Like the quantizer knob, chunks= is silently dropped by
        algorithms that cannot pipeline: same trace, same bits."""
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(4)]
        base = run_sparse_allreduce(streams, "ssar_rec_dbl")
        out = run_sparse_allreduce(streams, "ssar_rec_dbl", chunks=4)
        for r in range(4):
            assert np.array_equal(base[r].to_dense(), out[r].to_dense())
        assert base.trace.total_messages == out.trace.total_messages
        assert base.trace.total_bytes_sent == out.trace.total_bytes_sent

    def test_auto_selection_accepts_chunks(self):
        """algorithm="auto" + chunks= picks ssar_hier on a hierarchical
        world and matches the unchunked auto result bit for bit."""
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(4)]
        base = run_sparse_allreduce(streams, "auto", topology="2x2")
        out = run_sparse_allreduce(streams, "auto", topology="2x2", chunks=4)
        for r in range(4):
            assert np.array_equal(base[r].to_dense(), out[r].to_dense())
        assert out.trace.total_messages > base.trace.total_messages  # chunked

    def test_chunked_still_moves_fewer_inter_node_bytes(self):
        """Chunking adds per-chunk headers but must not forfeit the
        hierarchy's reason to exist on the slow tier."""
        topo = Topology.from_spec("2x4")
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(8)]
        chunked = run_sparse_allreduce(streams, "ssar_hier", topology=topo, chunks=4)
        rec = run_sparse_allreduce(streams, "ssar_rec_dbl", topology=topo)
        assert bytes_by_tier(chunked.trace, topo)[1] < bytes_by_tier(rec.trace, topo)[1]

    def test_quantized_chunked_dsar_agrees_across_ranks(self):
        """Quantized + chunked is *not* bit-identical to unchunked (the
        quantizer buckets tile each chunk separately) but stays an
        allreduce: every rank identical, close to the true sum."""
        def prog(comm):
            return dsar_hierarchical(
                comm,
                make_rank_stream(DIM, NNZ, comm.rank),
                quantizer=QSGDQuantizer(bits=8, bucket_size=256, seed=100 + comm.rank),
                chunks=4,
            )

        out = run_ranks(prog, 4, backend="thread", topology="2x2")
        ref = reference_sum(DIM, NNZ, 4)
        base = out[0].to_dense()
        for r in range(1, 4):
            assert np.array_equal(base, out[r].to_dense())
        err = np.linalg.norm(base - ref) / max(np.linalg.norm(ref), 1e-12)
        assert err < 0.05

    def test_single_rank_chunked(self):
        out = run_ranks(_chunked_prog, 1, "ssar_hier", 4, backend="thread")
        assert np.allclose(out[0].to_dense(), reference_sum(DIM, NNZ, 1), atol=1e-6)


@pytest.mark.parametrize("nranks,topology", [(4, "2x2")])
class TestSocketTwoHostSmoke:
    """The CI hierarchical smoke leg: 2 simulated hosts x 2 ranks over the
    socket backend on loopback, bit-for-bit against ssar_rec_dbl."""

    def test_socket_two_host_bit_identical(self, nranks, topology):
        streams = [make_rank_stream(DIM, NNZ, r) for r in range(nranks)]
        hier = run_sparse_allreduce(
            streams, "ssar_hier", backend="socket", topology=topology
        )
        rec = run_sparse_allreduce(
            streams, "ssar_rec_dbl", backend="socket", topology=topology
        )
        ref = reference_sum(DIM, NNZ, nranks)
        topo = Topology.from_spec(topology)
        for r in range(nranks):
            assert np.array_equal(hier[r].to_dense(), rec[r].to_dense()), f"rank {r}"
            assert np.allclose(hier[r].to_dense(), ref, atol=1e-4)
        assert bytes_by_tier(hier.trace, topo)[1] < bytes_by_tier(rec.trace, topo)[1]
