"""Shmem backend internals: ring protocol, p2p semantics, failure handling.

The generic point-to-point/collective semantics are asserted for the
thread backend in ``test_runtime.py`` and for the pipe transport in
``test_process_backend.py``; this file re-asserts the same contract over
the shared-memory ring transport and covers what only exists there — the
SPSC ring protocol (wrap padding, oversize chunking, drain), the
doorbell-EOF failure path, and zero-copy in-place decoding.
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.runtime import RankError, RankFailedError, Trace, run_ranks
from repro.runtime.shmem_backend import _LEN, CorruptRingError, ShmemBackend, SharedRing
from repro.runtime.wire import encode_frame_parts
from repro.streams import SparseStream

BACKEND = "shmem"

_NO_ABORT = lambda: False  # noqa: E731


@pytest.fixture
def ring():
    r = SharedRing(4096, mp.get_context())
    yield r
    r.close_doorbell()
    r.close()
    r.unlink()


def _read_one(ring):
    got = []
    status = ring.try_read_frame(lambda view: got.append(bytes(view)), _NO_ABORT)
    return status, got


class TestSharedRing:
    def test_capacity_rounds_to_power_of_two(self):
        ctx = mp.get_context()
        r = SharedRing(5000, ctx)
        try:
            assert r.capacity == 8192
        finally:
            r.close_doorbell()
            r.close()
            r.unlink()

    def test_frame_round_trip(self, ring):
        assert ring.write([b"hello ", b"world"], 11, _NO_ABORT)
        status, got = _read_one(ring)
        assert status == "ok" and got == [b"hello world"]
        assert ring.avail() == 0

    def test_counter_stores_are_single_writes(self, ring):
        """The other process must never read a counter value that was not
        stored: ``struct.pack_into`` zero-fills before it packs, and a
        reader that caught head at 0 mid-update saw ~4 GB "published"
        (1 in ~150 ring shifts of 8 MB frames: garbage payloads, or a
        writer computing negative free space)."""
        import os

        stored = (0x00200008, 0x00400008)
        ring._set_head(stored[0])
        pid = os.fork()
        if pid == 0:  # the producer: keeps moving head between two values
            end = time.monotonic() + 0.5
            while time.monotonic() < end:
                for value in stored * 500:
                    ring._set_head(value)
            os._exit(0)
        seen = set()
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            seen.update(ring._head() for _ in range(1000))
        assert seen <= set(stored)

    def test_empty_ring_reports_empty(self, ring):
        status, got = _read_one(ring)
        assert status == "empty" and got == []

    def test_fifo_many_frames(self, ring):
        for i in range(16):
            assert ring.write([bytes([i]) * 10], 10, _NO_ABORT)
        frames = []
        while True:
            status = ring.try_read_frame(lambda v: frames.append(bytes(v)), _NO_ABORT)
            if status == "empty":
                break
        assert frames == [bytes([i]) * 10 for i in range(16)]

    def test_wrap_around_with_pad_marker(self, ring):
        """Frames stay contiguous across many wraps of a small ring."""
        payload = bytes(range(256)) * 3  # 768 bytes; 4096-byte ring wraps often
        for i in range(50):
            assert ring.write([payload], len(payload), _NO_ABORT)
            status, got = _read_one(ring)
            assert status == "ok" and got == [payload], f"iteration {i}"

    def test_oversize_frame_chunks_through(self, ring):
        """A frame larger than the whole ring streams through in chunks."""
        import threading

        big = (np.arange(5000, dtype=np.int32) % 251).astype(np.uint8).tobytes() * 4
        assert len(big) > ring.capacity
        consumer_got = []

        def consumer():
            # the writer blocks on the full ring until the reader drains,
            # so consumption must run concurrently with the write
            while True:
                status = ring.try_read_frame(
                    lambda v: consumer_got.append(bytes(v)), _NO_ABORT
                )
                if status == "ok":
                    return
                time.sleep(0.001)

        t = threading.Thread(target=consumer, daemon=True)
        t.start()
        assert ring.write([big], len(big), _NO_ABORT)
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert consumer_got == [big]

    def test_drain_discards_everything(self, ring):
        ring.write([b"x" * 100], 100, _NO_ABORT)
        ring.write([b"y" * 100], 100, _NO_ABORT)
        ring.drain()
        status, got = _read_one(ring)
        assert status == "empty" and got == []

    def test_writer_abort_on_full_ring(self, ring):
        """A blocked writer observes the abort flag instead of hanging."""
        payload = b"z" * 2048
        assert ring.write([payload], len(payload), _NO_ABORT)
        aborted = {"n": 0}

        def abort_soon():
            aborted["n"] += 1
            return aborted["n"] > 3

        assert not ring.write([payload, payload], 4096, abort_soon)

    @pytest.mark.parametrize("word", [
        (1 << 63) | 3_200_000_000,  # oversize flag + garbage: the observed 3.2 GB allocation
        (1 << 63) | 64,  # oversize flag on a frame the writer would have sent contiguously
        1 << 40,  # contiguous record larger than the ring
        2048,  # contiguous record larger than what is published
    ])
    def test_corrupt_length_word_raises_instead_of_allocating(self, ring, word):
        assert ring.write([b"x" * 16], 16, _NO_ABORT)
        _LEN.pack_into(ring.data, 0, word)  # stomp the record's length word
        with pytest.raises(CorruptRingError, match="length word"):
            _read_one(ring)
        assert ring._partial is None  # no reassembly buffer was sized from it

    def test_frame_over_the_limit_is_refused_by_the_writer(self, ring):
        with pytest.raises(ValueError, match="ring limit"):
            ring.write([b""], (1 << 30) + 1, _NO_ABORT)

    def test_encode_frame_parts_write(self, ring):
        """Vectored stream encode lands in the ring without staging blobs."""
        s = SparseStream(1000, indices=[1, 2, 500], values=[1.0, -2.0, 3.5])
        total, parts = encode_frame_parts(5, 0, s.nbytes_payload, s)
        assert ring.write(parts, total, _NO_ABORT)
        from repro.runtime.wire import decode_message

        frames = []
        ring.try_read_frame(lambda v: frames.append(decode_message(v)), _NO_ABORT)
        tag, seq, nbytes, epoch, out = frames[0]
        assert (tag, seq, nbytes, epoch) == (5, 0, s.nbytes_payload, 0)
        assert np.array_equal(out.indices, s.indices)
        assert np.array_equal(out.values, s.values)


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

    def test_isend_irecv(self):
        def prog(comm):
            if comm.rank == 0:
                handle = comm.isend(42, 1)
                assert handle.test()
                handle.wait()
                return None
            handle = comm.irecv(0)
            return handle.wait()

        out = run_ranks(prog, 2, backend=BACKEND)
        assert out[1] == 42

    def test_probe_drives_progress(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("ping", 1, tag=4)
                return comm.recv(1, tag=5)
            handle = comm.irecv(0, tag=4)
            deadline = time.monotonic() + 10.0
            while not handle.test():
                assert time.monotonic() < deadline, "probe never saw the message"
                time.sleep(0.001)
            comm.send("pong", 0, tag=5)
            return handle.wait()

        out = run_ranks(prog, 2, backend=BACKEND, timeout=30.0)
        assert out.results == ["pong", "ping"]


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

    def test_corrupt_ring_names_the_peer(self):
        """A garbage length word becomes RankFailedError(sender) at the
        blocked reader, not an allocation of that size."""

        def prog(comm):
            if comm.rank == 0:
                ring = comm._out_rings[1]
                head = ring._head()
                _LEN.pack_into(ring.data, head & ring._mask, (1 << 63) | 3_200_000_000)
                ring._set_head(head + _LEN.size)
                ring._ding()
                return None
            with pytest.raises(RankFailedError) as err:
                comm.recv(0, tag=5)
            return err.value.rank, str(err.value)

        out = run_ranks(prog, 2, backend=BACKEND, timeout=30.0)
        rank, message = out[1]
        assert rank == 0 and "corrupt" in message

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

    def test_accumulating_trace_rebases_seqs(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, 1, tag=4)
            else:
                comm.recv(0, tag=4)

        trace = Trace(2)
        run_ranks(prog, 2, backend=BACKEND, trace=trace)
        run_ranks(prog, 2, backend=BACKEND, trace=trace)
        sends = [e for e in trace.events(0) if e.op == "send"]
        assert [e.seq for e in sends] == [0, 1]

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
        assert out.world.ring_capacity >= 4096


class TestRingCapacityConfig:
    def test_custom_ring_capacity(self):
        """Tiny rings still move big messages (chunked path end to end)."""
        backend = ShmemBackend(ring_capacity=4096)

        def prog(comm):
            peer = 1 - comm.rank
            payload = np.arange(65536, dtype=np.float32)  # 256 KB >> 4 KB ring
            got = comm.sendrecv(payload, peer, tag=1)
            return float(got.sum())

        out = run_ranks(prog, 2, backend=backend, timeout=60.0)
        expected = float(np.arange(65536, dtype=np.float32).sum())
        assert out[0] == expected and out[1] == expected
