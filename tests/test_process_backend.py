"""Process backend internals: wire format, p2p semantics, failure handling.

The generic point-to-point/collective semantics are asserted for the thread
backend in ``test_runtime.py``; this file re-asserts the same contract over
real multiprocess transport and covers what only exists there — the §5.1
wire encoding, cross-process payload isolation, and process death handling.
"""

import errno
import gc
import multiprocessing
import os
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.quant import QSGDQuantizer
from repro.runtime import RankError, RankFailedError, mesh, run_ranks
from repro.runtime.wire import (
    FLAG_DENSE,
    FLAG_SPARSE,
    decode_message,
    decode_payload,
    encode_message,
    encode_payload,
)
from repro.streams import SparseStream

BACKEND = "process"

#: the backends launched by the shared launcher (``runtime/mesh.py``): its
#: failure paths are one function, so their tests run on every transport.
MESH_BACKENDS = ("process", "shmem", "socket")


class PoisonPayload:
    """Payload whose unpickle raises in the receiving process (test helper)."""

    def __init__(self) -> None:
        self.x = 1

    def comm_nbytes(self) -> int:
        return 8

    def __setstate__(self, state):
        raise RuntimeError("poisoned payload")


class TestWireFormat:
    def test_sparse_stream_round_trip(self):
        s = SparseStream(1000, indices=[3, 500, 999], values=[1.5, -2.0, 7.25])
        out = decode_payload(encode_payload(s))
        assert isinstance(out, SparseStream)
        assert out.dimension == 1000 and not out.is_dense
        assert np.array_equal(out.indices, s.indices)
        assert np.array_equal(out.values, s.values)
        assert out.value_dtype == s.value_dtype

    def test_dense_stream_round_trip(self):
        s = SparseStream(64, dense=np.arange(64, dtype=np.float64), value_dtype=np.float64)
        out = decode_payload(encode_payload(s))
        assert out.is_dense
        assert np.array_equal(out.to_dense(), s.to_dense())

    def test_header_word_is_first(self):
        """§5.1: the first word of a stream buffer is the sparse/dense flag."""
        sparse_blob = encode_payload(SparseStream(10, indices=[1], values=[1.0]))
        dense_blob = encode_payload(SparseStream(10, dense=np.zeros(10, dtype=np.float32)))
        # byte 0 is the kind discriminator; the flag word follows
        assert int.from_bytes(sparse_blob[1:9], "little") == FLAG_SPARSE
        assert int.from_bytes(dense_blob[1:9], "little") == FLAG_DENSE

    def test_value_wire_bytes_annotation_survives(self):
        s = SparseStream(100, indices=[5], values=[2.0])
        s.value_wire_bytes = 1.25
        assert decode_payload(encode_payload(s)).value_wire_bytes == 1.25
        s.value_wire_bytes = None
        assert decode_payload(encode_payload(s)).value_wire_bytes is None

    def test_empty_stream_round_trip(self):
        out = decode_payload(encode_payload(SparseStream.zeros(50)))
        assert out.dimension == 50 and out.nnz == 0

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_all_value_dtypes(self, dtype):
        s = SparseStream(32, indices=[0, 31], values=[1.0, -1.0], value_dtype=dtype)
        out = decode_payload(encode_payload(s))
        assert out.value_dtype == np.dtype(dtype)
        assert np.array_equal(out.values, s.values)

    def test_decoded_arrays_are_writable(self):
        out = decode_payload(encode_payload(SparseStream(10, indices=[1], values=[1.0])))
        out.values[0] = 9.0  # must not raise (fresh buffer, not a readonly view)
        assert out.values[0] == 9.0

    def test_pickle_fallback_payloads(self):
        for obj in [42, "hello", (1, 2.5), {"k": np.arange(3)}, None,
                    QSGDQuantizer(bits=4, bucket_size=64, seed=1)]:
            out = decode_payload(encode_payload(obj))
            if isinstance(obj, dict):
                assert np.array_equal(out["k"], obj["k"])
            elif isinstance(obj, QSGDQuantizer):
                assert out.bits == obj.bits
            else:
                assert out == obj

    def test_message_framing(self):
        assert decode_message(encode_message(7, 3, 128, "data")) == (7, 3, 128, 0, b"", "data")

    def test_message_framing_carries_epoch(self):
        blob = encode_message(7, 3, 128, "data", 5)
        assert decode_message(blob) == (7, 3, 128, 5, b"", "data")

    def test_corrupt_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            decode_payload(b"\xff garbage")


class TestProcessPointToPoint:
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

    def test_sendrecv_exchange(self):
        def prog(comm):
            peer = 1 - comm.rank
            return comm.sendrecv(comm.rank * 10, peer, tag=5)

        out = run_ranks(prog, 2, backend=BACKEND)
        assert out[0] == 10 and out[1] == 0

    def test_large_payload_exchange_no_deadlock(self):
        """Simultaneous multi-MB sendrecv must not deadlock on pipe buffers."""
        def prog(comm):
            peer = 1 - comm.rank
            big = np.full(1 << 20, float(comm.rank), dtype=np.float64)  # 8 MB
            got = comm.sendrecv(big, peer, tag=2)
            return float(got[0])

        out = run_ranks(prog, 2, backend=BACKEND, timeout=60.0)
        assert out[0] == 1.0 and out[1] == 0.0

    def test_late_large_send_to_finished_rank_completes(self):
        """Buffered-send contract: an unmatched multi-MB send to a rank that
        already returned must still complete (the finished rank keeps
        reading until its peers FIN), not block on the ~64 KiB pipe buffer
        until timeout."""
        def prog(comm):
            if comm.rank == 0:
                return "done-early"  # exits immediately, never receives
            time.sleep(0.3)  # let rank 0 finish first
            big = np.zeros(1 << 18, dtype=np.float64)  # 2 MB >> pipe capacity
            comm.send(big, 0, tag=5)
            return "sent"

        out = run_ranks(prog, 2, backend=BACKEND, timeout=30.0)
        assert out.results == ["done-early", "sent"]

    def test_cross_process_isolation_is_physical(self):
        """Receiver mutations cannot reach the sender: separate address spaces."""
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

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_negative_tags_rejected_on_every_backend(self, backend):
        """Negative tags are reserved for transport framing (the FIN marker);
        both backends must reject them identically instead of the process
        backend silently eating tag -1 as a shutdown frame."""
        def sender(comm):
            if comm.rank == 0:
                comm.send(b"x", 1, tag=-1)
            else:
                comm.recv(0, tag=-1)

        with pytest.raises(RankError) as exc_info:
            run_ranks(sender, 2, backend=backend)
        assert isinstance(exc_info.value.original, ValueError)
        assert "non-negative" in str(exc_info.value.original)

    def test_self_send_rejected(self):
        def prog(comm):
            comm.send(1, comm.rank)

        with pytest.raises(RankError):
            run_ranks(prog, 2, backend=BACKEND)

    def test_out_of_range_dest_rejected(self):
        def prog(comm):
            comm.send(1, 5)

        with pytest.raises(RankError):
            run_ranks(prog, 2, backend=BACKEND)


class TestProcessCollectiveHelpers:
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


class TestProcessFailureHandling:
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

    @pytest.mark.parametrize("backend", MESH_BACKENDS)
    def test_undecodable_frame_raises_instead_of_none_results(self, backend):
        """An abort with no reported rank error (the inbound path hit an
        undecodable frame) must raise, not return a ParallelResult with
        silent Nones."""
        def prog(comm):
            if comm.rank == 0:
                comm.send(PoisonPayload(), 1)
                return "rank0-ok"
            return comm.recv(0)

        with pytest.raises(RankError):
            run_ranks(prog, 2, backend=backend, timeout=30.0)

    @pytest.mark.parametrize("backend", MESH_BACKENDS)
    def test_peer_of_hard_died_rank_is_unblocked(self, backend):
        """A rank sending a large payload to a rank that hard-died
        (os._exit, no error report) is not left blocked — the send fails
        (EPIPE on a pipe, a reset on TCP) — and its trace is preserved."""
        from repro.runtime import Trace

        def prog(comm):
            if comm.rank == 1:
                os._exit(3)  # dies without reporting anything
            time.sleep(0.3)
            comm.send(np.zeros(1 << 20, dtype=np.float64), 1, tag=8)  # 8 MB
            return "sent"

        t = Trace(2)
        with pytest.raises(RankError, match="process died"):
            run_ranks(prog, 2, backend=backend, trace=t, timeout=30.0)
        # rank 0's send returned (or failed typed) and its events were shipped back
        assert any(e.op == "send" and e.nbytes > 1 << 22 for e in t.events(0))

    def test_unpicklable_exception_still_reported(self):
        def prog(comm):
            class Local(Exception):  # unpicklable: defined inside a function
                pass

            raise Local("opaque failure")

        with pytest.raises(RankError, match="opaque failure"):
            run_ranks(prog, 2, backend=BACKEND)

    @pytest.mark.parametrize("backend", MESH_BACKENDS)
    def test_a_rank_that_aborted_stays_readable(self, backend):
        """Rank 2 dies; rank 1 unwinds from it with RankFailedError; rank 0
        then sends 8 MB to rank 1 and waits on rank 2. Rank 1 keeps reading
        until its peers are done, so the send completes and rank 0 names
        the rank that died, not the one that only aborted."""
        with pytest.raises(RankError) as exc_info:
            run_ranks(_cascade_prog, 3, backend=backend, timeout=60.0)
        assert exc_info.value.partial_results[0] == ("failed", 2)

    @pytest.mark.parametrize("backend", MESH_BACKENDS)
    def test_a_corrupt_stream_is_not_waited_out(self, backend):
        """Rank 1 reads an undecodable frame from rank 0, which lives on;
        ranks 0 and 2 wait on rank 1. Its writer sends no EOF, so rank 1
        leaves at once instead of lingering, and the run fails promptly."""
        start = time.monotonic()
        with pytest.raises(RankError):
            run_ranks(_poisoned_prog, 3, backend=backend, timeout=60.0)
        assert time.monotonic() - start < mesh._LINGER_S / 2


def _poisoned_prog(comm):
    if comm.rank == 0:
        comm.send(PoisonPayload(), 1)
    return comm.recv(0 if comm.rank == 1 else 1)


def _cascade_prog(comm):
    if comm.rank == 2:
        time.sleep(0.2)
        os._exit(3)
    if comm.rank == 1:
        comm.recv(2)  # unwinds with RankFailedError(2): reported "aborted"
    time.sleep(0.8)
    try:
        comm.send(np.zeros(1 << 20, dtype=np.float64), 1, tag=4)  # 8 MB
        comm.recv(2)
    except RankFailedError as exc:
        return ("failed", exc.rank)
    return "clean"


#: the real class, for :meth:`_FlakyContext.shared_memory` to call while it stands in
_SharedMemory = shared_memory.SharedMemory


class _FlakyContext:
    """The real multiprocessing context, except that the ``fail_pipe``-th
    ``Pipe()`` or the ``fail_start``-th ``Process.start()`` raises EMFILE.
    ``segments`` names every shared-memory segment created meanwhile
    (:meth:`shared_memory` stands in for ``SharedMemory``)."""

    def __init__(self, real, fail_pipe=None, fail_start=None):
        self._real = real
        self._fail_pipe = fail_pipe
        self._fail_start = fail_start
        self.pipes = 0
        self.processes = 0
        self.segments = []

    def shared_memory(self, *args, **kwargs):
        segment = _SharedMemory(*args, **kwargs)
        if kwargs.get("create"):
            self.segments.append(segment.name)
        return segment

    def __getattr__(self, name):
        return getattr(self._real, name)

    def _fail(self, *args, **kwargs):
        raise OSError(errno.EMFILE, "Too many open files (injected)")

    def Pipe(self, duplex=True):
        self.pipes += 1
        if self.pipes == self._fail_pipe:
            self._fail()
        return self._real.Pipe(duplex)

    def Process(self, **kwargs):
        proc = self._real.Process(**kwargs)
        self.processes += 1
        if self.processes == self._fail_start:
            proc.start = self._fail
        return proc


def _open_fds() -> int:
    gc.collect()
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc to count fds")
@pytest.mark.parametrize("backend", MESH_BACKENDS)
class TestLaunchFailureCleanup:
    """A launch that fails part-way leaves nothing behind: no live rank,
    no shared-memory segment, no pipe/socket descriptor."""

    def _assert_clean_failure(self, backend, monkeypatch, **fail):
        run_ranks(lambda c: None, 3, backend=backend)  # warm-up: resource tracker up
        real = multiprocessing.get_context("fork")
        flaky = _FlakyContext(real, **fail)
        fds = _open_fds()
        with monkeypatch.context() as patch:
            patch.setattr(mesh.mp, "get_context", lambda method=None: flaky)
            patch.setattr(shared_memory, "SharedMemory", flaky.shared_memory)
            with pytest.raises(OSError, match="injected"):
                run_ranks(lambda c: c.barrier(), 3, backend=backend, timeout=30.0)
        assert not [p for p in multiprocessing.active_children() if p.name.startswith("rank-")]
        # only this launch's own segments: a world elsewhere on the host may hold others
        assert backend == "shmem" or not flaky.segments
        assert not [name for name in flaky.segments if os.path.exists(f"/dev/shm/{name}")]
        assert _open_fds() == fds
        return flaky

    def test_mesh_build_failing_after_one_channel(self, backend, monkeypatch):
        flaky = self._assert_clean_failure(backend, monkeypatch, fail_pipe=2)
        assert flaky.pipes == 2 and flaky.processes == 0
        assert not flaky.segments  # the slab segment comes after the pipes

    def test_process_start_failing_on_second_rank(self, backend, monkeypatch):
        flaky = self._assert_clean_failure(backend, monkeypatch, fail_start=2)
        assert flaky.processes == 2  # rank 0 was running and had to be reaped
        assert len(flaky.segments) == (backend == "shmem")  # one slab segment, unlinked


class TestProcessTrace:
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

    def test_compute_and_mark_events(self):
        def prog(comm):
            comm.mark("phase")
            comm.compute(1000, "work")

        out = run_ranks(prog, 2, backend=BACKEND)
        ops = [e.op for e in out.trace.events(0)]
        assert ops == ["mark", "compute"]

    def test_failure_keeps_partial_trace_like_thread_backend(self):
        """A caller-supplied trace keeps pre-failure events on both backends."""
        from repro.runtime import Trace

        def failing(comm):
            if comm.rank == 0:
                comm.send(1, 1, tag=2)
                raise ValueError("die")
            comm.recv(0, tag=2)

        counts = {}
        for backend in ("thread", "process"):
            t = Trace(2)
            with pytest.raises(RankError):
                run_ranks(failing, 2, trace=t, backend=backend)
            counts[backend] = sum(len(events) for events in t)
        assert counts["process"] == counts["thread"] > 0

    def test_world_metadata(self):
        out = run_ranks(lambda c: c.rank, 3, backend=BACKEND)
        assert out.world.size == 3
        assert len(out.world.pids) == 3
