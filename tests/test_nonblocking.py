"""Direct coverage for :mod:`repro.runtime.nonblocking` (paper §7).

Previously only exercised indirectly through async SGD; these tests pin
down request completion ordering, the deferred trace-flush contract, and
that the machinery is backend-agnostic.
"""

import time

import numpy as np
import pytest

from repro.collectives import sparse_allreduce, ssar_recursive_double
from repro.runtime import i_collective, run_ranks

from conftest import make_rank_stream, reference_sum

BACKENDS = ["thread", "process"]


class TestRequestCompletionOrdering:
    def test_icollective_wait_is_idempotent(self):
        def prog(comm):
            stream = make_rank_stream(256, 16, comm.rank)
            handle = i_collective(comm, ssar_recursive_double, stream)
            first = handle.wait()
            second = handle.wait()
            return first is second

        out = run_ranks(prog, 2)
        assert all(out.results)

    def test_icollective_overlaps_with_blocking_traffic(self):
        """User p2p traffic and the background collective share the wire."""
        def prog(comm):
            stream = make_rank_stream(512, 32, comm.rank)
            handle = i_collective(comm, ssar_recursive_double, stream)
            peer = 1 - comm.rank
            user = comm.sendrecv(comm.rank + 100, peer, tag=3)
            return user, handle.wait().to_dense()

        out = run_ranks(prog, 2)
        assert out[0][0] == 101 and out[1][0] == 100
        ref = reference_sum(512, 32, 2)
        for r in range(2):
            assert np.allclose(out[r][1], ref, atol=1e-4)

    def test_two_icollectives_in_program_order(self):
        """Tag-space shifting keeps back-to-back collectives separate."""
        def prog(comm):
            s1 = make_rank_stream(256, 10, comm.rank, base_seed=100)
            s2 = make_rank_stream(256, 10, comm.rank, base_seed=200)
            h1 = i_collective(comm, ssar_recursive_double, s1)
            h2 = i_collective(comm, ssar_recursive_double, s2)
            return h2.wait().to_dense(), h1.wait().to_dense()

        out = run_ranks(prog, 4)
        ref1 = reference_sum(256, 10, 4, base_seed=100)
        ref2 = reference_sum(256, 10, 4, base_seed=200)
        for r in range(4):
            assert np.allclose(out[r][0], ref2, atol=1e-4)
            assert np.allclose(out[r][1], ref1, atol=1e-4)


class TestDeferredTraceFlush:
    def test_events_absent_until_wait(self):
        """The rank's log gains the collective's events only at the join."""
        def prog(comm):
            stream = make_rank_stream(512, 32, comm.rank)
            handle = i_collective(comm, ssar_recursive_double, stream)
            while not handle.test():
                time.sleep(0.002)
            # collective finished in the background, but its events are
            # still buffered: the rank log only holds what *we* recorded.
            before = len(comm.trace.events(comm.rank))
            comm.compute(64, "local")
            handle.wait()
            after = len(comm.trace.events(comm.rank))
            return before, after

        out = run_ranks(prog, 2)
        for before, after in out.results:
            assert before == 0
            assert after > before + 1  # compute marker + flushed collective

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_counts_match_blocking_ssar(self, backend):
        """One SSAR via i_collective records exactly the events of a
        blocking SSAR call (same messages, same bytes), on both backends."""
        def blocking(comm):
            return ssar_recursive_double(comm, make_rank_stream(1024, 40, comm.rank))

        def nonblocking(comm):
            h = i_collective(comm, ssar_recursive_double, make_rank_stream(1024, 40, comm.rank))
            return h.wait()

        P = 4
        blk = run_ranks(blocking, P, backend=backend)
        nbk = run_ranks(nonblocking, P, backend=backend)
        assert nbk.trace.total_messages == blk.trace.total_messages
        assert nbk.trace.total_bytes_sent == blk.trace.total_bytes_sent
        for r in range(P):
            blk_ops = [e.op for e in blk.trace.events(r)]
            nbk_ops = [e.op for e in nbk.trace.events(r)]
            assert nbk_ops == blk_ops
            assert np.array_equal(nbk[r].to_dense(), blk[r].to_dense())

    def test_error_surfaces_at_wait_not_launch(self):
        def bad_collective(comm):
            raise RuntimeError("collective failed")

        def prog(comm):
            handle = i_collective(comm, bad_collective)
            time.sleep(0.01)  # failure already happened in the background
            with pytest.raises(RuntimeError, match="collective failed"):
                handle.wait()
            return True

        out = run_ranks(prog, 2)
        assert all(out.results)


@pytest.mark.parametrize("backend", BACKENDS)
def test_icollective_correct_on_backend(backend):
    """The §7 non-blocking allreduce works over real process transport too."""
    def prog(comm):
        stream = make_rank_stream(1000, 20, comm.rank)
        handle = i_collective(comm, ssar_recursive_double, stream)
        local = sum(range(1000))  # overlapped local work
        return handle.wait().to_dense(), local

    out = run_ranks(prog, 4, backend=backend)
    ref = reference_sum(1000, 20, 4)
    for r in range(4):
        assert np.allclose(out[r][0], ref, atol=1e-4)
        assert out[r][1] == sum(range(1000))


class TestStreamForm:
    """The redesigned surface: i_collective(comm, stream, ...) accepts the
    knobs of sparse_allreduce directly and resolves them through the same
    path, eagerly at launch."""

    def test_keyword_algorithm_equals_blocking(self):
        def prog(comm):
            stream = make_rank_stream(512, 32, comm.rank)
            blocking = sparse_allreduce(comm, stream, algorithm="ssar_rec_dbl")
            handle = i_collective(comm, stream, algorithm="ssar_rec_dbl")
            return blocking.to_dense(), handle.wait().to_dense()

        out = run_ranks(prog, 4)
        for r in range(4):
            assert np.array_equal(out[r][0], out[r][1])

    def test_positional_algorithm(self):
        def prog(comm):
            handle = i_collective(comm, make_rank_stream(512, 32, comm.rank), "ssar_ring")
            return handle.wait().to_dense()

        out = run_ranks(prog, 4)
        ref = reference_sum(512, 32, 4)
        for r in range(4):
            assert np.allclose(out[r], ref, atol=1e-4)

    def test_default_is_auto_selection(self):
        """No algorithm at all: the stream form picks like sparse_allreduce
        ("auto"), here ssar_hier on a hierarchical world."""
        def prog(comm):
            out = i_collective(comm, make_rank_stream(2048, 64, comm.rank)).wait()
            marks = [e.label for e in comm.trace.events(comm.rank) if e.op == "mark"]
            return "ssar_hier" in marks, out.to_dense()

        out = run_ranks(prog, 4, topology="2x2")
        picked, dense = out[0]
        assert picked
        assert np.allclose(dense, reference_sum(2048, 64, 4), atol=1e-4)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chunked_hier_equals_unchunked_blocking(self, backend):
        """The full knob set in flight: chunked ssar_hier through the
        stream form is bit-identical to the blocking unchunked call."""
        def prog(comm):
            stream = make_rank_stream(2048, 64, comm.rank)
            blocking = sparse_allreduce(comm, stream, algorithm="ssar_hier")
            handle = i_collective(comm, stream, algorithm="ssar_hier", chunks=4)
            return blocking.to_dense(), handle.wait().to_dense()

        out = run_ranks(prog, 4, backend=backend, topology="2x2")
        for r in range(4):
            assert np.array_equal(out[r][0], out[r][1]), f"rank {r} on {backend}"

    def test_quantized_dsar_through_stream_form(self):
        from repro.quant import QSGDQuantizer

        def prog(comm):
            return i_collective(
                comm,
                make_rank_stream(2048, 128, comm.rank),
                algorithm="dsar_split_ag",
                quantizer=QSGDQuantizer(bits=8, bucket_size=256, seed=7),
            ).wait()

        out = run_ranks(prog, 4)
        ref = reference_sum(2048, 128, 4)
        err = np.linalg.norm(out[0].to_dense() - ref) / np.linalg.norm(ref)
        assert err < 0.05
        for r in range(1, 4):
            assert np.array_equal(out[r].to_dense(), out[0].to_dense())

    def test_bad_algorithm_raises_at_launch_not_wait(self):
        def prog(comm):
            with pytest.raises(ValueError, match="unknown algorithm"):
                i_collective(comm, make_rank_stream(256, 16, comm.rank), "nope")
            return True

        assert all(run_ranks(prog, 2).results)

    def test_invalid_chunks_raise_at_launch(self):
        def prog(comm):
            with pytest.raises(ValueError, match="chunks"):
                i_collective(comm, make_rank_stream(256, 16, comm.rank), chunks=0)
            return True

        assert all(run_ranks(prog, 2).results)

    def test_double_algorithm_rejected(self):
        def prog(comm):
            stream = make_rank_stream(256, 16, comm.rank)
            with pytest.raises(TypeError, match="at most one positional"):
                i_collective(comm, stream, "ssar_ring", algorithm="ssar_rec_dbl")
            with pytest.raises(TypeError, match="at most one positional"):
                i_collective(comm, stream, "ssar_ring", "extra")
            return True

        assert all(run_ranks(prog, 1).results)

    def test_stray_kwargs_rejected(self):
        def prog(comm):
            with pytest.raises(TypeError, match="unexpected keyword"):
                i_collective(comm, make_rank_stream(256, 16, comm.rank), bogus=1)
            return True

        assert all(run_ranks(prog, 1).results)

    def test_callable_form_forwards_knobs(self):
        """The pre-redesign call sites keep working: a callable collective
        with knob kwargs receives them verbatim."""
        from repro.collectives import sparse_allreduce as sa

        def prog(comm):
            stream = make_rank_stream(512, 32, comm.rank)
            handle = i_collective(comm, sa, stream, algorithm="ssar_rec_dbl")
            return handle.wait().to_dense()

        out = run_ranks(prog, 4)
        ref = reference_sum(512, 32, 4)
        for r in range(4):
            assert np.allclose(out[r], ref, atol=1e-4)

    def test_stream_form_trace_matches_blocking(self):
        def blocking(comm):
            return sparse_allreduce(
                comm, make_rank_stream(1024, 40, comm.rank), algorithm="ssar_split_ag"
            )

        def nonblocking(comm):
            return i_collective(
                comm, make_rank_stream(1024, 40, comm.rank), algorithm="ssar_split_ag"
            ).wait()

        blk = run_ranks(blocking, 4)
        nbk = run_ranks(nonblocking, 4)
        assert nbk.trace.total_messages == blk.trace.total_messages
        assert nbk.trace.total_bytes_sent == blk.trace.total_bytes_sent
        for r in range(4):
            assert [e.op for e in nbk.trace.events(r)] == [
                e.op for e in blk.trace.events(r)
            ]


class TestNestedLaunchTagSpaces:
    """Concurrent sibling collectives at two nesting levels (e.g. fused
    buckets each running a chunked hierarchical collective) must occupy
    disjoint tag regions. Regression: with one equal additive stride,
    outer launch i / inner launch k collided with i' / k' whenever
    i + k == i' + k', and leader traffic crossed buckets."""

    def test_concurrent_chunked_hier_launches_bit_identical(self):
        def prog(comm, nonblocking):
            streams = [
                make_rank_stream(96, 24, comm.rank, base_seed=1000 + 111 * j)
                for j in range(3)
            ]
            if not nonblocking:
                return [
                    sparse_allreduce(comm, s, algorithm="ssar_hier").to_dense()
                    for s in streams
                ]
            handles = [
                i_collective(comm, s, algorithm="ssar_hier", chunks=2)
                for s in streams
            ]
            return [h.wait().to_dense() for h in handles]

        blk = run_ranks(prog, 4, False, topology="2x2")
        nbk = run_ranks(prog, 4, True, topology="2x2")
        for r in range(4):
            for j in range(3):
                assert np.array_equal(blk[r][j], nbk[r][j]), (r, j)
