"""Tests for tensor fusion (gradient bucket coalescing, §9) and its
async mode (every bucket's plan started, in layout order, on the
communicator's one progress thread)."""

import threading

import numpy as np
import pytest

from repro.collectives.api import cached_plan
from repro.core import ErrorFeedback, GradientFuser
from repro.nn import make_lstm, make_mlp
from repro.runtime import run_ranks
from repro.runtime.trace import MARK, SEND
from repro.streams import SparseStream


class TestBucketLayout:
    def test_one_bucket_per_tensor_at_zero_threshold(self):
        fuser = GradientFuser([("a", 10), ("b", 20), ("c", 5)], min_bucket_bytes=0)
        assert fuser.n_buckets == 3
        assert [b.size for b in fuser.buckets] == [10, 20, 5]

    def test_all_fused_at_huge_threshold(self):
        fuser = GradientFuser([("a", 10), ("b", 20)], min_bucket_bytes=1 << 30)
        assert fuser.n_buckets == 1
        assert fuser.buckets[0].size == 30
        assert fuser.buckets[0].tensor_names == ("a", "b")

    def test_threshold_respected(self):
        # 4-byte elements; 100-byte threshold = 25 elements per bucket
        fuser = GradientFuser([(f"t{i}", 10) for i in range(10)], min_bucket_bytes=100)
        for b in fuser.buckets[:-1]:
            assert b.size * 4 >= 100
        assert sum(b.size for b in fuser.buckets) == 100

    def test_slices_cover_exactly(self):
        fuser = GradientFuser([("a", 7), ("b", 13), ("c", 29)], min_bucket_bytes=50)
        covered = []
        for s in fuser.slices():
            covered.extend(range(s.start, s.stop))
        assert covered == list(range(49))

    def test_from_network_mlp(self):
        net = make_mlp(64, 10, hidden=(32,), seed=0)
        fuser = GradientFuser.from_network(net, min_bucket_bytes=1 << 10)
        assert fuser.total_size == net.n_params

    def test_from_network_lstm(self):
        net = make_lstm(32, 4, embed_dim=8, hidden_dim=12, seed=0)
        fuser = GradientFuser.from_network(net, min_bucket_bytes=1 << 10)
        assert fuser.total_size == net.n_params

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GradientFuser([])

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            GradientFuser([("a", -1)])

    def test_make_error_feedback_matches_layout(self):
        fuser = GradientFuser([("a", 100), ("b", 200)], min_bucket_bytes=0)
        efs = fuser.make_error_feedback(k=4, bucket_size=64)
        assert len(efs) == 2
        assert efs[0].residual.shape == (100,)
        assert efs[1].residual.shape == (200,)


class TestFusedAllreduce:
    def test_fused_equals_monolithic_sum(self):
        """Per-bucket TopK allreduce with full k (= everything selected)
        must equal the dense sum of the gradients."""
        dim = 256
        fuser = GradientFuser([("a", 96), ("b", 160)], min_bucket_bytes=0)
        P = 4

        def grads(rank):
            return np.random.default_rng(400 + rank).standard_normal(dim).astype(np.float32)

        def prog(comm):
            # k >= bucket size: selection keeps every coordinate
            efs = fuser.make_error_feedback(k=1 << 20, bucket_size=None)
            return fuser.fused_topk_allreduce(
                comm, grads(comm.rank), efs, algorithm="ssar_rec_dbl"
            )

        out = run_ranks(prog, P)
        ref = np.sum([grads(r) for r in range(P)], axis=0)
        for r in range(P):
            assert np.allclose(out[r], ref, atol=1e-4)

    def test_fused_topk_respects_per_bucket_error_feedback(self):
        dim = 128
        fuser = GradientFuser([("a", 64), ("b", 64)], min_bucket_bytes=0)
        P = 2

        def prog(comm):
            efs = fuser.make_error_feedback(k=4, bucket_size=32)
            grad = np.random.default_rng(comm.rank).standard_normal(dim).astype(np.float32)
            out1 = fuser.fused_topk_allreduce(comm, grad, efs, algorithm="ssar_rec_dbl")
            # residuals now hold the unsent mass of each bucket
            residual_norms = [ef.residual_norm for ef in efs]
            return out1, residual_norms

        out = run_ranks(prog, P)
        _, norms = out[0]
        assert all(n > 0 for n in norms)

    def test_shape_mismatch_rejected(self):
        fuser = GradientFuser([("a", 10)], min_bucket_bytes=0)

        def prog(comm):
            efs = fuser.make_error_feedback(k=2)
            return fuser.fused_topk_allreduce(comm, np.zeros(11, np.float32), efs)

        from repro.runtime import RankError

        with pytest.raises(RankError):
            run_ranks(prog, 2)

    def test_ef_count_mismatch_rejected(self):
        fuser = GradientFuser([("a", 10), ("b", 10)], min_bucket_bytes=0)

        def prog(comm):
            return fuser.fused_topk_allreduce(
                comm, np.zeros(20, np.float32), [ErrorFeedback(10, 2)]
            )

        from repro.runtime import RankError

        with pytest.raises(RankError):
            run_ranks(prog, 2)

    def test_fusion_reduces_message_count(self):
        """Fewer buckets -> fewer collective invocations -> fewer messages."""
        dim = 1024
        sizes = [(f"t{i}", 64) for i in range(16)]
        P = 4

        def run_with(threshold):
            fuser = GradientFuser(sizes, min_bucket_bytes=threshold)

            def prog(comm):
                efs = fuser.make_error_feedback(k=4, bucket_size=64)
                grad = np.random.default_rng(comm.rank).standard_normal(dim).astype(np.float32)
                return fuser.fused_topk_allreduce(comm, grad, efs, algorithm="ssar_rec_dbl")

            return run_ranks(prog, P)

        layerwise = run_with(0)  # 16 buckets
        fused = run_with(1 << 30)  # 1 bucket
        assert fused.trace.total_messages < layerwise.trace.total_messages

    def test_fused_quantized_payloads_smaller(self):
        from repro.quant import QSGDQuantizer

        dim = 4096
        fuser = GradientFuser([("a", dim)], min_bucket_bytes=0)
        P = 2

        def run_with(quantizer):
            def prog(comm):
                efs = fuser.make_error_feedback(k=64, bucket_size=None)
                grad = np.random.default_rng(comm.rank).standard_normal(dim).astype(np.float32)
                return fuser.fused_topk_allreduce(
                    comm, grad, efs, algorithm="ssar_rec_dbl", quantizer=quantizer
                )

            return run_ranks(prog, P)

        fp = run_with(None)
        q4 = run_with(QSGDQuantizer(bits=4, bucket_size=512, seed=0))
        assert q4.trace.total_bytes_sent < fp.trace.total_bytes_sent


def _grads(rank, dim, seed=400):
    return np.random.default_rng(seed + rank).standard_normal(dim).astype(np.float32)


class TestAsyncFusedAllreduce:
    """i_fused_allreduce: selection eager (program order), communication in
    the background, join in bucket order — bit-identical to blocking mode."""

    DIM = 256
    SIZES = [("a", 96), ("b", 96), ("c", 64)]

    def _run(self, nranks, mode, topology=None, chunks=1, algorithm="ssar_rec_dbl"):
        fuser = GradientFuser(self.SIZES, min_bucket_bytes=0)

        def prog(comm):
            efs = fuser.make_error_feedback(k=8, bucket_size=32)
            grad = _grads(comm.rank, self.DIM)
            if mode == "blocking":
                out = fuser.fused_topk_allreduce(
                    comm, grad, efs, algorithm=algorithm, chunks=chunks
                )
            elif mode == "flag":
                out = fuser.i_fused_allreduce(
                    comm, grad, efs, algorithm=algorithm, chunks=chunks
                ).wait()
            else:
                handle = fuser.i_fused_allreduce(
                    comm, grad, efs, algorithm=algorithm, chunks=chunks
                )
                overlapped = sum(range(500))  # caller compute during comm
                out = handle.wait()
                assert overlapped == sum(range(500))
            return out, [ef.residual_norm for ef in efs]

        return run_ranks(prog, nranks, topology=topology)

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_async_bit_identical_to_blocking(self, nranks):
        blk = self._run(nranks, "blocking")
        asy = self._run(nranks, "async")
        for r in range(nranks):
            assert np.array_equal(blk[r][0], asy[r][0]), f"rank {r}"
            # error-feedback state advanced identically (selection is the
            # program-order part; it must not depend on join timing)
            assert blk[r][1] == asy[r][1]

    def test_nonblocking_flag_routes_through_async(self):
        blk = self._run(4, "blocking")
        flag = self._run(4, "flag")
        for r in range(4):
            assert np.array_equal(blk[r][0], flag[r][0])

    def test_async_chunked_hier_bit_identical(self):
        """The PR's full stack in one call: auto-selected hierarchical
        collective, chunked, one background launch per bucket."""
        blk = self._run(4, "blocking", topology="2x2", algorithm="auto")
        asy = self._run(4, "async", topology="2x2", algorithm="auto", chunks=2)
        for r in range(4):
            assert np.array_equal(blk[r][0], asy[r][0]), f"rank {r}"

    def test_async_trace_matches_blocking(self):
        """Same collectives, same bytes — the async mode changes *when*
        traffic completes, never how much travels."""
        blk = self._run(4, "blocking")
        asy = self._run(4, "async")
        assert asy.trace.total_messages == blk.trace.total_messages
        assert asy.trace.total_bytes_sent == blk.trace.total_bytes_sent

    def test_selection_runs_eagerly_at_launch(self):
        """Error-feedback residuals mutate at i_fused_allreduce() time,
        before wait(): the program-order half is not deferred."""
        fuser = GradientFuser([("a", 64), ("b", 64)], min_bucket_bytes=0)

        def prog(comm):
            efs = fuser.make_error_feedback(k=4, bucket_size=32)
            handle = fuser.i_fused_allreduce(comm, _grads(comm.rank, 128), efs)
            norms_at_launch = [ef.residual_norm for ef in efs]
            handle.wait()
            norms_at_join = [ef.residual_norm for ef in efs]
            return norms_at_launch, norms_at_join

        out = run_ranks(prog, 2)
        at_launch, at_join = out[0]
        assert all(n > 0 for n in at_launch)
        assert at_launch == at_join  # wait() does not touch the residuals

    def test_wait_is_idempotent(self):
        fuser = GradientFuser([("a", 64)], min_bucket_bytes=0)

        def prog(comm):
            efs = fuser.make_error_feedback(k=4, bucket_size=32)
            handle = fuser.i_fused_allreduce(comm, _grads(comm.rank, 64), efs)
            first = handle.wait()
            second = handle.wait()
            return first is second

        assert all(run_ranks(prog, 2).results)

    def test_back_to_back_steps_in_program_order(self):
        """Two async steps joined in order behave like two blocking steps
        (the non-blocking-collective program-order contract)."""
        fuser = GradientFuser(self.SIZES, min_bucket_bytes=0)

        def prog(comm, nonblocking):
            efs = fuser.make_error_feedback(k=8, bucket_size=32)
            outs = []
            for step in range(2):
                grad = _grads(comm.rank, self.DIM, seed=700 + 31 * step)
                if nonblocking:
                    outs.append(fuser.i_fused_allreduce(comm, grad, efs).wait().copy())
                else:
                    outs.append(fuser.fused_topk_allreduce(comm, grad, efs).copy())
            return outs

        blk = run_ranks(prog, 4, False)
        asy = run_ranks(prog, 4, True)
        for r in range(4):
            for step in range(2):
                assert np.array_equal(blk[r][step], asy[r][step]), (r, step)


class TestStreamInput:
    """A gradient stream stays pairs: the fused call selects from them and
    returns the update's non-zeros as a stream — the coordinates and bits
    of the dense call's non-zeros, whether a bucket's total came back
    sparse or dense."""

    SIZES = [("a", 96), ("b", 96), ("c", 64)]

    @pytest.mark.parametrize("algorithm", ["ssar_rec_dbl", "dsar_split_ag"])
    @pytest.mark.parametrize("mode", ["blocking", "async"])
    def test_update_is_the_dense_calls_non_zeros(self, algorithm, mode):
        fuser = GradientFuser(self.SIZES, min_bucket_bytes=0)

        def prog(comm):
            gen = np.random.default_rng(comm.rank)
            grads = [
                SparseStream.random_uniform(256, nnz, gen, value_dtype=np.float32)
                for nnz in (0, 40, 200)
            ]
            grads[1].values[::7] = 0.0  # stored zeros select nothing
            runs = []
            for as_stream in (True, False):
                efs = fuser.make_error_feedback(k=8, bucket_size=32)
                for grad in grads:
                    grad = grad if as_stream else grad.to_dense()
                    if mode == "blocking":
                        runs.append(fuser.fused_topk_allreduce(comm, grad, efs, algorithm))
                    else:
                        runs.append(fuser.i_fused_allreduce(comm, grad, efs, algorithm).wait())
            return runs

        for runs in run_ranks(prog, 4):
            for update, dense in zip(runs[:3], runs[3:]):
                assert isinstance(update, SparseStream) and not update.is_dense
                assert update.indices.tolist() == np.flatnonzero(dense).tolist()
                assert np.array_equal(update.to_dense().view(np.uint32), dense.view(np.uint32))

    def test_dimension_mismatch_rejected(self):
        fuser = GradientFuser(self.SIZES, min_bucket_bytes=0)
        efs = fuser.make_error_feedback(k=8, bucket_size=32)
        with pytest.raises(ValueError):
            fuser.fused_topk_allreduce(None, SparseStream.zeros(255, np.float32), efs)


def _own_progress_threads(comm):
    prefix = f"icoll-rank{comm.world_rank}-"
    return sorted(t.name for t in threading.enumerate() if t.name.startswith(prefix))


class TestOneProgressThread:
    """A fused call starts every bucket's plan on the communicator's one
    progress thread: alive across fused calls, joined when the rank
    program returns."""

    def test_one_progress_thread_per_launching_communicator(self):
        fuser = GradientFuser([(f"t{i}", 64) for i in range(8)], min_bucket_bytes=0)

        def prog(comm):
            efs = fuser.make_error_feedback(k=4, bucket_size=32)
            seen = []
            for step in range(3):
                handle = fuser.i_fused_allreduce(
                    comm, _grads(comm.rank, 512, seed=step), efs, algorithm="ssar_rec_dbl"
                )
                seen.append(_own_progress_threads(comm))
                handle.wait()
                seen.append(_own_progress_threads(comm))
            return seen

        before = threading.active_count()
        out = run_ranks(prog, 2)
        for rank in range(2):
            assert out[rank] == [[f"icoll-rank{rank}-depth0"]] * 6
        assert threading.active_count() == before

    def test_failing_bucket_surfaces_at_wait(self, monkeypatch):
        import repro.collectives.api as api

        real = api.ALGORITHMS["ssar_rec_dbl"]

        def run(comm, stream, **kwargs):
            if stream.dimension == 96:  # bucket "b", on every rank alike
                raise RuntimeError("bucket b failed")
            return real(comm, stream, **kwargs)

        monkeypatch.setitem(api.ALGORITHMS, "ssar_rec_dbl", run)
        fuser = GradientFuser([("a", 64), ("b", 96), ("c", 32)], min_bucket_bytes=0)

        def prog(comm):
            efs = fuser.make_error_feedback(k=4, bucket_size=32)
            handle = fuser.i_fused_allreduce(
                comm, _grads(comm.rank, 192), efs, algorithm="ssar_rec_dbl"
            )
            with pytest.raises(RuntimeError, match="bucket b failed"):
                handle.wait()
            return _own_progress_threads(comm)

        out = run_ranks(prog, 2)
        assert out.results == [[f"icoll-rank{rank}-depth0"] for rank in range(2)]


    def test_a_failed_bucket_loses_no_trace_rows(self, monkeypatch):
        """Bucket 2 of 4 raises: ``wait()`` still joins buckets 3 and 4,
        so every bucket that ran has its rows in the rank's log — the log
        of a run whose bucket 2 returns without a message."""
        import repro.collectives.api as api

        real = api.ALGORITHMS["ssar_rec_dbl"]
        fuser = GradientFuser([("a", 64), ("b", 96), ("c", 32), ("d", 48)], min_bucket_bytes=0)

        def run(raising):
            def schedule(comm, stream, **kwargs):
                if stream.dimension != 96:  # bucket "b", on every rank alike
                    return real(comm, stream, **kwargs)
                if raising:
                    raise RuntimeError("bucket b failed")
                return stream

            def prog(comm):
                efs = fuser.make_error_feedback(k=4, bucket_size=32)
                handle = fuser.i_fused_allreduce(
                    comm, _grads(comm.rank, 240), efs, algorithm="ssar_rec_dbl"
                )
                if not raising:
                    return handle.wait()
                with pytest.raises(RuntimeError, match="bucket b failed"):
                    handle.wait()
                with pytest.raises(RuntimeError, match="bucket b failed"):
                    handle.wait()  # and again: the error stays

            with monkeypatch.context() as patch:
                patch.setitem(api.ALGORITHMS, "ssar_rec_dbl", schedule)
                return run_ranks(prog, 2).trace

        failed, clean = run(True), run(False)
        for rank in range(2):
            rows = list(failed.events(rank))
            assert rows == list(clean.events(rank))
            assert sum(event.op == SEND for event in rows) == 3  # a, c and d


def _sends_between(trace, rank, first, last):
    """Send events of ``rank`` after its mark ``first`` up to mark ``last``."""
    sends, inside = [], False
    for event in trace.events(rank):
        if event.op == MARK and event.label == first:
            sends, inside = [], True
        elif event.op == MARK and event.label == last and inside:
            return sends
        elif inside and event.op == SEND:
            sends.append(event)
    raise AssertionError(f"marks {first!r}..{last!r} not found on rank {rank}")


class TestOneAgreementRound:
    """A fused step pays its control plane once per plan: the plan's first
    launch agrees on its nnz in one scalar round, and every later step
    sends only its buckets' schedules."""

    NRANKS = 4
    BUCKETS = 4
    STEPS = 3

    def _trace(self):
        fuser = GradientFuser(
            [(f"t{i}", 64) for i in range(self.BUCKETS)], min_bucket_bytes=0
        )

        def prog(comm):
            efs = fuser.make_error_feedback(k=4, bucket_size=32)
            for step in range(self.STEPS):
                comm.mark(f"step{step}")
                handle = fuser.i_fused_allreduce(
                    comm, _grads(comm.rank, 256, seed=900 + step), efs, chunks="auto",
                )
                comm.mark(f"launched{step}")
                handle.wait()
                comm.mark(f"joined{step}")
            plan = cached_plan(comm, SparseStream.zeros(64, np.float32), chunks="auto")
            return plan.switches[-1].algorithm

        out = run_ranks(prog, self.NRANKS, topology="2x2")
        assert set(out.results) == {"ssar_hier"}
        return out.trace

    def test_launch_runs_exactly_one_round(self):
        trace = self._trace()
        for step in range(self.STEPS):
            on_rank_thread = [
                event
                for rank in range(self.NRANKS)
                for event in _sends_between(trace, rank, f"step{step}", f"launched{step}")
            ]
            if step == 0:
                # the four buckets share one plan, whose first run agrees:
                # gather to root + binomial bcast of one float; the bucket
                # traffic is buffered on the progress thread until the join
                assert len(on_rank_thread) == 2 * (self.NRANKS - 1)
                assert {e.nbytes for e in on_rank_thread} == {8}
            else:
                assert on_rank_thread == []

    def test_step_message_count_is_pinned(self):
        trace = self._trace()
        # per bucket on 2x2: 2 intra reduces, 2 leader exchanges, 2 bcasts
        for step in range(self.STEPS):
            sends = [
                event
                for rank in range(self.NRANKS)
                for event in _sends_between(trace, rank, f"step{step}", f"joined{step}")
            ]
            assert len(sends) == 6 * self.BUCKETS + (2 * (self.NRANKS - 1) if step == 0 else 0)
            if step:
                assert sum(e.context == () for e in sends) == 0


class TestAutoChunksFused:
    @pytest.mark.parametrize("nranks,topology", [(2, None), (4, "2x2")])
    def test_async_bit_identical_to_blocking(self, nranks, topology):
        fuser = GradientFuser([("a", 96), ("b", 96), ("c", 64)], min_bucket_bytes=0)

        def prog(comm, nonblocking):
            efs = fuser.make_error_feedback(k=8, bucket_size=32)
            outs = []
            for step in range(2):
                grad = _grads(comm.rank, 256, seed=300 + step)
                if nonblocking:
                    out = fuser.i_fused_allreduce(
                        comm, grad, efs, algorithm="auto", chunks="auto"
                    ).wait()
                else:
                    out = fuser.fused_topk_allreduce(
                        comm, grad, efs, algorithm="auto", chunks="auto"
                    )
                outs.append(out.copy())
            return outs

        blk = run_ranks(prog, nranks, False, topology=topology)
        asy = run_ranks(prog, nranks, True, topology=topology)
        for r in range(nranks):
            for step in range(2):
                assert np.array_equal(blk[r][step], asy[r][step]), (r, step)
        assert asy.trace.total_messages == blk.trace.total_messages
