"""Shmem backend internals: the slab, p2p semantics, failure handling.

The generic point-to-point/collective semantics are asserted for the
thread backend in ``test_runtime.py`` and for the pipe transport in
``test_process_backend.py``; this file re-asserts the same contract over
the shmem backend (pipes plus a shared slab for large frames) and covers
what only exists there — the slab's put / view / release protocol (wrap
to offset 0, "no room: use the pipe"), descriptor validation, and
in-place decoding out of the shared segment.
"""

import hashlib
import mmap
import os
import time

import numpy as np
import pytest

from repro.runtime import RankError, RankFailedError, Trace, i_collective, run_ranks
from repro.runtime.mesh import _LEN
from repro.runtime.shmem_backend import _SLAB_HEADER, _SLAB_TAG, ShmemBackend, Slab
from repro.runtime.wire import _FRAME, MAX_FRAME_BYTES, decode_message, encode_frame_parts
from repro.streams import SparseStream

BACKEND = "shmem"


@pytest.fixture
def slab():
    # an anonymous shared mapping: what a forked child shares with its parent
    mapping = mmap.mmap(-1, _SLAB_HEADER + 4096)
    s = Slab(memoryview(mapping), 4096)
    yield s
    s.close()
    mapping.close()


def _put(slab, parts, total):
    """What a send does: copy in, write the descriptor, hand the bytes out."""
    spot = slab.put(parts, total)
    if spot is not None:
        slab.head = spot[1]
    return spot


class TestSlab:
    def test_put_view_round_trip(self, slab):
        assert _put(slab, [b"hello ", b"world"], 11) == (0, 11)
        assert _put(slab, [b"x" * 100], 100) == (11, 111)
        assert bytes(slab.data[:11]) == b"hello world"
        assert bytes(slab.data[11:111]) == b"x" * 100
        slab.release(111)
        assert _put(slab, [b"y" * 3985], 3985) == (111, 4096)  # all of it is free again

    def test_encoded_stream_decodes_in_place(self, slab):
        """Vectored stream encode lands in the slab without a staging blob
        and decodes straight out of it."""
        s = SparseStream(1000, indices=[1, 2, 500], values=[1.0, -2.0, 3.5])
        total, parts = encode_frame_parts(5, 0, s.nbytes_payload, s)
        offset, _ = _put(slab, parts, total)
        tag, seq, nbytes, epoch, context, out = decode_message(slab.view(offset, total))
        assert (tag, seq, nbytes, epoch, context) == (5, 0, s.nbytes_payload, 0, b"")
        assert np.array_equal(out.indices, s.indices)
        assert np.array_equal(out.values, s.values)

    def test_wrap_skips_to_offset_zero_and_frees_the_skipped_tail(self, slab):
        """A frame never straddles the end, so it always decodes in place;
        the bytes skipped at the end are freed with the frame after them."""
        assert _put(slab, [b"a" * 3000], 3000) == (0, 3000)
        slab.release(3000)
        assert _put(slab, [b"b" * 2000], 2000) == (0, 3000 + 1096 + 2000)
        assert bytes(slab.data[:2000]) == b"b" * 2000
        assert _put(slab, [b"c" * 1500], 1500) is None  # 1000 free: the skip counts as used
        slab.release(6096)
        assert _put(slab, [b"d" * 2096], 2096) == (2000, 8192)  # ... and came back with its frame

    def test_many_wraps_stay_contiguous(self, slab):
        payload = bytes(range(256)) * 3  # 768 bytes; a 4096-byte slab wraps often
        for i in range(50):
            offset, head_after = _put(slab, [payload], len(payload))
            assert bytes(slab.view(offset, len(payload))) == payload, f"iteration {i}"
            slab.release(head_after)

    def test_no_room_means_use_the_pipe(self, slab):
        assert _put(slab, [b"a" * 3000], 3000) == (0, 3000)
        assert _put(slab, [b"b" * 2000], 2000) is None  # 1096 free, and it would straddle
        assert _put(slab, [b"c" * 1096], 1096) == (3000, 4096)  # a refusal handed nothing out
        slab.release(4096)
        assert _put(slab, [b"d" * 4097], 4097) is None  # larger than the whole slab: never

    def test_unsent_descriptor_hands_nothing_out(self, slab):
        """``put`` alone moves no counter: a send that raised before its
        descriptor was written leaves the slab as it was."""
        assert slab.put([b"a" * 3000], 3000) == (0, 3000)
        assert slab.put([b"b" * 3000], 3000) == (0, 3000)

    def test_counter_wraps_with_the_u32(self, slab):
        slab.head = (1 << 32) - 96  # offset 4000 of the 4096-byte slab
        slab.release(slab.head)
        assert _put(slab, [b"e" * 96], 96) == (4000, 0)
        assert _put(slab, [b"f" * 4001], 4001) is None  # 96 bytes short
        slab.release(0)
        assert _put(slab, [b"f" * 4001], 4001) == (0, 4001)

    def test_counter_stores_are_single_writes(self, slab):
        """The writer must never read a counter value the reader did not
        store: ``struct.pack_into`` zero-fills before it packs, and a
        writer that caught the word at 0 mid-update computed free space
        that was not free (PR 17: garbage payloads in 1 of ~150 runs)."""
        stored = (0x00200008, 0x00400008)
        slab.release(stored[0])
        pid = os.fork()
        if pid == 0:  # the reader: keeps moving the counter between two values
            end = time.monotonic() + 0.5
            while time.monotonic() < end:
                for value in stored * 500:
                    slab.release(value)
            os._exit(0)
        seen = set()
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            seen.update(slab._tail[0] for _ in range(1000))
        assert seen <= set(stored)

    @pytest.mark.parametrize("offset,length", [(-8, 1024), (4000, 1024), (0, 4097), (0, 32)])
    def test_view_checks_the_descriptor(self, slab, offset, length):
        with pytest.raises(ValueError, match="slab descriptor"):
            slab.view(offset, length)
        with pytest.raises(ValueError, match="slab limit"):
            slab.view(0, MAX_FRAME_BYTES + 1)


class TestShmemPointToPoint:
    def test_send_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(5), 1, tag=7)
                return None
            return comm.recv(0, tag=7)

        out = run_ranks(prog, 2, backend=BACKEND)
        assert np.array_equal(out[1], np.arange(5))

    def test_fifo_per_channel(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(20):
                    comm.send(i, 1, tag=3)
                return None
            return [comm.recv(0, tag=3) for _ in range(20)]

        out = run_ranks(prog, 2, backend=BACKEND)
        assert out[1] == list(range(20))

    def test_tags_do_not_cross(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
                return None
            second = comm.recv(0, tag=2)
            first = comm.recv(0, tag=1)
            return (first, second)

        out = run_ranks(prog, 2, backend=BACKEND)
        assert out[1] == ("a", "b")

    def test_large_payload_exchange_no_deadlock(self):
        """Simultaneous multi-MB sendrecv must not deadlock on ring capacity:
        a sender blocked on a full ring drives the progress engine itself."""
        def prog(comm):
            peer = 1 - comm.rank
            big = np.full(1 << 20, float(comm.rank), dtype=np.float64)  # 8 MB
            got = comm.sendrecv(big, peer, tag=2)
            return float(got[0])

        out = run_ranks(prog, 2, backend=BACKEND, timeout=60.0)
        assert out[0] == 1.0 and out[1] == 0.0

    def test_late_large_send_to_finished_rank_completes(self):
        """Buffered-send contract: an unmatched multi-MB send to a rank that
        already exited must still complete (the parent drains its rings)."""
        def prog(comm):
            if comm.rank == 0:
                return "done-early"  # exits immediately, never receives
            time.sleep(0.3)  # let rank 0 finish first
            big = np.zeros(1 << 18, dtype=np.float64)  # 2 MB >> ring capacity
            comm.send(big, 0, tag=5)
            return "sent"

        out = run_ranks(prog, 2, backend=BACKEND, timeout=30.0)
        assert out.results == ["done-early", "sent"]

    def test_cross_process_isolation_is_physical(self):
        """Receiver mutations cannot reach the sender: separate address
        spaces, and decoded arrays are copies out of the shared ring."""
        def prog(comm):
            arr = np.zeros(4)
            if comm.rank == 0:
                comm.send(arr, 1)
                comm.recv(1, tag=9)  # sync
                return float(arr[0])
            got = comm.recv(0)
            got[0] = 99.0
            comm.send(0, 0, tag=9)
            return None

        out = run_ranks(prog, 2, backend=BACKEND)
        assert out[0] == 0.0

    def test_decoded_stream_is_writable(self):
        """Streams decoded out of the ring own their buffers (receivers may
        reduce into them in place)."""
        def prog(comm):
            if comm.rank == 0:
                comm.send(SparseStream(100, indices=[3], values=[1.0]), 1)
                return None
            s = comm.recv(0)
            s.values[0] = 42.0  # must not raise (not a read-only ring view)
            return float(s.values[0])

        out = run_ranks(prog, 2, backend=BACKEND)
        assert out[1] == 42.0

    def test_negative_tags_rejected(self):
        def sender(comm):
            if comm.rank == 0:
                comm.send(b"x", 1, tag=-1)
            else:
                comm.recv(0, tag=-1)

        with pytest.raises(RankError) as exc_info:
            run_ranks(sender, 2, backend=BACKEND)
        assert isinstance(exc_info.value.original, ValueError)
        assert "non-negative" in str(exc_info.value.original)


class TestShmemCollectiveHelpers:
    @pytest.mark.parametrize("nranks", [2, 3, 5, 8])
    def test_barrier_completes(self, nranks):
        out = run_ranks(lambda comm: (comm.barrier(), comm.rank)[1], nranks, backend=BACKEND)
        assert out.results == list(range(nranks))

    @pytest.mark.parametrize("nranks,root", [(2, 0), (5, 2), (8, 7)])
    def test_bcast(self, nranks, root):
        def prog(comm):
            value = f"payload-{comm.rank}" if comm.rank == root else None
            return comm.bcast(value, root=root)

        out = run_ranks(prog, nranks, backend=BACKEND)
        assert all(v == f"payload-{root}" for v in out.results)

    @pytest.mark.parametrize("nranks", [2, 4, 6])
    def test_gather_to_root(self, nranks):
        out = run_ranks(
            lambda comm: comm.gather_to_root(comm.rank * 2, root=0), nranks, backend=BACKEND
        )
        assert out[0] == [2 * r for r in range(nranks)]
        assert all(out[r] is None for r in range(1, nranks))


class TestShmemFailureHandling:
    def test_rank_error_propagates(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.recv(1)  # would deadlock without abort

        with pytest.raises(RankError) as exc_info:
            run_ranks(prog, 2, backend=BACKEND)
        assert exc_info.value.rank == 1
        assert isinstance(exc_info.value.original, ValueError)

    def test_blocked_ranks_abort_not_deadlock(self):
        start = time.monotonic()

        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("fail fast")
            comm.recv(0)

        with pytest.raises(RankError) as exc_info:
            run_ranks(prog, 4, backend=BACKEND)
        assert exc_info.value.rank == 0
        assert time.monotonic() - start < 30.0

    def test_timeout_detects_deadlock(self):
        def prog(comm):
            comm.recv(1 - comm.rank)  # mutual recv: classic deadlock

        with pytest.raises(TimeoutError):
            run_ranks(prog, 2, backend=BACKEND, timeout=1.0)

    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            run_ranks(lambda c: None, 0, backend=BACKEND)

    def test_hard_death_aborts_blocked_peer(self):
        """A rank that dies without reporting (os._exit) closes its
        doorbells; blocked peers observe EOF and the run raises."""
        import os as _os

        def prog(comm):
            if comm.rank == 1:
                _os._exit(3)  # dies without reporting anything
            comm.recv(1)

        with pytest.raises(RankError, match="process died"):
            run_ranks(prog, 2, backend=BACKEND, timeout=30.0)

    @pytest.mark.parametrize("offset,length", [
        (-8, 1 << 16),  # out-of-range offset
        (0, MAX_FRAME_BYTES + 1),  # over the frame limit
        ((1 << 21) - 100, 1 << 16),  # runs past the slab's capacity
    ])
    def test_corrupt_descriptor_names_the_peer(self, offset, length):
        """A garbage descriptor becomes RankFailedError(sender) at the
        blocked reader; nothing is sized from it."""

        def prog(comm):
            if comm.rank == 0:
                bad = _LEN.pack(_FRAME.size) + _FRAME.pack(_SLAB_TAG, offset, length, 0, 0)
                comm._out[1].send(memoryview(bad))
                return None
            with pytest.raises(RankFailedError) as err:
                comm.recv(0, tag=5)
            return err.value.rank, str(err.value), len(comm._partial[0][0])

        out = run_ranks(prog, 2, backend=BACKEND, timeout=30.0, op_timeout=10.0)
        rank, message, buffer_len = out[1]
        assert rank == 0 and "corrupt" in message
        assert buffer_len == 1 << 16  # the reassembly buffer never grew

    def test_unpicklable_exception_still_reported(self):
        def prog(comm):
            class Local(Exception):  # unpicklable: defined inside a function
                pass

            raise Local("opaque failure")

        with pytest.raises(RankError, match="opaque failure"):
            run_ranks(prog, 2, backend=BACKEND)


class TestShmemTrace:
    def test_send_recv_events_match(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10, dtype=np.float32), 1)
            else:
                comm.recv(0)

        out = run_ranks(prog, 2, backend=BACKEND)
        sends = [e for e in out.trace.events(0) if e.op == "send"]
        recvs = [e for e in out.trace.events(1) if e.op == "recv"]
        assert len(sends) == len(recvs) == 1
        assert sends[0].nbytes == recvs[0].nbytes == 48
        assert sends[0].seq == recvs[0].seq

    def test_failure_keeps_partial_trace_like_other_backends(self):
        def failing(comm):
            if comm.rank == 0:
                comm.send(1, 1, tag=2)
                raise ValueError("die")
            comm.recv(0, tag=2)

        counts = {}
        for backend in ("thread", BACKEND):
            t = Trace(2)
            with pytest.raises(RankError):
                run_ranks(failing, 2, trace=t, backend=backend)
            counts[backend] = sum(len(events) for events in t)
        assert counts[BACKEND] == counts["thread"] > 0

    def test_world_metadata(self):
        out = run_ranks(lambda c: c.rank, 3, backend=BACKEND)
        assert out.world.size == 3
        assert len(out.world.pids) == 3
        assert out.world.slab_capacity >= 4096


class TestSlabCapacityConfig:
    def test_custom_slab_capacity(self):
        """Tiny slabs still move big messages (down the pipe); the capacity
        is rounded up to a power of two (offsets wrap with the u32)."""
        backend = ShmemBackend(slab_capacity=5000)

        def prog(comm):
            peer = 1 - comm.rank
            payload = np.arange(65536, dtype=np.float32)  # 256 KB >> 8 KB slab
            got = comm.sendrecv(payload, peer, tag=1)
            return float(got.sum())

        out = run_ranks(prog, 2, backend=backend, timeout=60.0)
        expected = float(np.arange(65536, dtype=np.float32).sum())
        assert out[0] == expected and out[1] == expected
        assert out.world.slab_capacity == 8192


def _dense(n, seed):
    return SparseStream(n, dense=np.random.default_rng(seed).standard_normal(n).astype(np.float32))


def _digest(stream):
    return hashlib.sha256(stream.dense_payload.tobytes()).hexdigest()


class TestLargeFrames:
    def test_slab_then_pipe_bit_identical(self):
        """A 256 KB stream travels through the slab, a 4 MB one — larger
        than the whole (default) slab — down the pipe; both arrive
        bit-identically, in order."""

        def prog(comm):
            if comm.rank == 0:
                slab = comm._out_slabs[1]
                comm.send(_dense(1 << 16, 1), 1, tag=3)
                through_slab = slab.head
                comm.send(_dense(1 << 20, 2), 1, tag=3)
                return through_slab, slab.head
            return [_digest(comm.recv(0, tag=3)) for _ in range(2)]

        out = run_ranks(prog, 2, backend=BACKEND, timeout=60.0)
        through_slab, after_big = out[0]
        assert through_slab > 1 << 18 and after_big == through_slab
        assert out[1] == [_digest(_dense(1 << 16, 1)), _digest(_dense(1 << 20, 2))]

    def test_frame_over_the_limit_is_refused_by_the_writer(self, monkeypatch):
        from repro.runtime import shmem_backend

        monkeypatch.setattr(  # forked ranks inherit it: a frame nobody could allocate
            shmem_backend, "encode_frame_parts", lambda *a: (MAX_FRAME_BYTES + 1, [b""])
        )

        def prog(comm):
            if comm.rank == 0:
                with pytest.raises(ValueError, match="stream limit"):
                    comm.send(np.zeros(4096), 1)  # 32 KB accounted: the large-frame path

        run_ranks(prog, 2, backend=BACKEND, timeout=30.0)

    def test_two_threads_keep_per_tag_fifo(self):
        """A rank thread and an ``i_collective`` thread send large frames
        to the same peer: slab order is descriptor order (one lock), and
        5 MB through a 2 MB slab mixes slab and pipe frames on each tag."""
        count = 40

        def prog(comm):
            def background(c):
                if c.rank == 0:
                    for i in range(count):
                        c.send(np.full(8192, float(i)), 1, tag=1)  # 64 KB each
                    return None
                return [float(c.recv(0, tag=1)[0]) for _ in range(count)]

            handle = i_collective(comm, background)
            mine = None
            if comm.rank == 0:
                for i in range(count):
                    comm.send(np.full(8192, -float(i)), 1, tag=2)
            else:
                mine = [float(comm.recv(0, tag=2)[0]) for _ in range(count)]
            return handle.wait(), mine

        out = run_ranks(prog, 2, backend=BACKEND, timeout=60.0)
        assert out[1] == ([float(i) for i in range(count)], [-float(i) for i in range(count)])
